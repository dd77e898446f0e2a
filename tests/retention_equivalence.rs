//! Tier-1 retention equivalence: the bench's retained-vs-unbounded checks,
//! promoted into `cargo test -q` so a retention regression fails the build
//! without anyone running the bench bin.
//!
//! Two layers are covered, both against the same fixed fleet feed:
//!
//! * **store + WAL**: chunked ingestion into a retained `ShardedTtkv`
//!   (incremental in-place sweeps, layered WAL compaction) must equal the
//!   unbounded side pruned *once* at the current horizon — exactly, not
//!   just on sampled queries — and the layered WAL must replay to the
//!   same store at every checkpoint;
//! * **engine**: a full `ingest_live` run with a `RetentionPolicy` must land on
//!   exactly `prune(horizon)` of the retention-off run, while every
//!   post-horizon query and lifetime counter agrees.

use ocasta::{
    fleet_ingest_live, FleetConfig, IngestOptions, KeyPlacement, MachineSpec, RetentionPolicy,
    ShardedTtkv, TimeDelta, TimePrecision, TraceOp, Ttkv, Wal, WorkloadSpec,
};

/// Ingests the fleet into a fresh sharded store and merges it.
fn ingest_merged(machines: &[MachineSpec], config: &FleetConfig) -> (Ttkv, ocasta::FleetReport) {
    let sharded = ShardedTtkv::with_seal_threshold(config.shards, config.seal_threshold);
    let report = fleet_ingest_live(machines, config, &sharded, IngestOptions::default())
        .expect("ingest succeeds");
    (sharded.into_ttkv(), report)
}

/// A small deterministic fleet (seeded workload generator).
fn machines(count: usize, days: u64) -> Vec<MachineSpec> {
    (0..count)
        .map(|i| {
            let mut spec = WorkloadSpec::new(format!("app{}", i % 2));
            spec.sessions_per_day = 1.5;
            spec.reads_per_session = 4;
            spec.static_keys = 5;
            spec.churn_keys = 8;
            spec.churn_writes_per_day = 4.0;
            MachineSpec::new(format!("m{i:02}"), days, 4_200 + i as u64, vec![spec])
        })
        .collect()
}

/// The fleet's mutation ops as one time-ordered feed.
fn feed(count: usize, days: u64) -> Vec<TraceOp> {
    let mut ops: Vec<TraceOp> = machines(count, days)
        .iter()
        .flat_map(|m| m.stream().filter(|op| matches!(op, TraceOp::Mutation(_))))
        .collect();
    ops.sort_by_key(|op| match op {
        TraceOp::Mutation(event) => event.timestamp,
        TraceOp::Reads(..) => ocasta::Timestamp::EPOCH,
    });
    ops
}

#[test]
fn retained_store_and_layered_wal_equal_unbounded_pruned_once() {
    let ops = feed(3, 20);
    assert!(ops.len() > 200, "feed is non-trivial: {}", ops.len());
    let retain = TimeDelta::from_days(4);
    let precision = TimePrecision::Milliseconds;

    let off = ShardedTtkv::new(4);
    let on = ShardedTtkv::new(4);
    let dir = std::env::temp_dir().join(format!("ocasta-t1-retention-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wal = Wal::open(&dir).expect("scratch dir writable");

    let checkpoints = 5;
    for checkpoint in 1..=checkpoints {
        let done = ops.len() * checkpoint / checkpoints;
        let start = ops.len() * (checkpoint - 1) / checkpoints;
        let chunk = &ops[start..done];
        off.append_routed(chunk.to_vec());
        on.append_routed(chunk.to_vec());
        wal.append(chunk).expect("wal append");

        let frontier = on.last_mutation_time().expect("non-empty chunks");
        let horizon = frontier.saturating_sub(retain);
        on.prune_before(horizon);
        wal.compact_pruned(precision, horizon).expect("wal compact");

        // Staged incremental sweeps == one direct prune, exactly.
        let mut direct = off.snapshot_store();
        let on_snap = on.snapshot_store();
        direct.prune_before(horizon);
        assert_eq!(on_snap, direct, "checkpoint {checkpoint}");
        // The layered WAL chain replays to the same store.
        assert_eq!(
            wal.replay(precision).expect("wal replay"),
            on_snap,
            "checkpoint {checkpoint}"
        );

        // Post-horizon queries and lifetime counters are preserved.
        let off_snap = off.snapshot_store();
        assert_eq!(on_snap.stats().writes, off_snap.stats().writes);
        assert_eq!(on_snap.stats().deletes, off_snap.stats().deletes);
        for key in off_snap.keys() {
            for probe in [horizon, frontier] {
                assert_eq!(
                    on_snap.value_at(key.as_str(), probe),
                    off_snap.value_at(key.as_str(), probe),
                    "{key} at {probe} (checkpoint {checkpoint})"
                );
            }
        }
        assert!(on_snap.approx_bytes() <= off_snap.approx_bytes());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_retention_run_equals_unbounded_run_pruned_at_final_horizon() {
    let machines = machines(3, 16);
    let base = FleetConfig {
        shards: 4,
        ingest_threads: 2,
        batch_size: 32,
        placement: KeyPlacement::PerMachine,
        ..FleetConfig::default()
    };
    let (reference, _) = ingest_merged(&machines, &base);
    let (pruned, report) = ingest_merged(
        &machines,
        &FleetConfig {
            retention: Some(RetentionPolicy {
                retain: TimeDelta::from_days(4),
                min_interval: TimeDelta::from_days(2),
            }),
            ..base
        },
    );
    let retention = report.retention.expect("policy was set");
    assert!(retention.sweeps > 0);
    let horizon = retention.horizon.expect("swept");

    // Exact equality with the rebuild path: prune the unbounded reference
    // once at the final horizon, then collect dead shells — the final
    // sweep GCs counter-only shells (and only the final sweep does).
    let mut expected = reference.clone();
    expected.prune_before(horizon);
    let shells = expected.gc_dead_shells();
    assert_eq!(pruned, expected);
    assert_eq!(retention.shells, shells, "sweeper reported its GC tally");

    // And the headline guarantees, spelled out.
    assert!(pruned.approx_bytes() < reference.approx_bytes());
    assert_eq!(pruned.stats().writes, expected.stats().writes);
    let frontier = reference.last_mutation_time().expect("events exist");
    for key in reference.keys() {
        assert_eq!(
            pruned.value_at(key.as_str(), horizon),
            reference.value_at(key.as_str(), horizon),
            "{key} at the horizon"
        );
        assert_eq!(
            pruned.value_at(key.as_str(), frontier),
            reference.value_at(key.as_str(), frontier),
            "{key} at the frontier"
        );
    }
}
