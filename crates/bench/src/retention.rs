//! Steady-state memory and disk under sustained ingest: retention off
//! versus on.
//!
//! The paper's Table I TTKVs grow to tens of megabytes over a two-month
//! trace; a fleet that serves users *indefinitely* must not grow without
//! bound. This sweep drives one fixed time-ordered mutation feed into two
//! live [`ShardedTtkv`]s — one keeping everything, one swept to a rolling
//! `frontier − retain` horizon with its WAL compacted to the same horizon
//! — and samples both footprints at every checkpoint, **asserting
//! post-horizon query equivalence each time** so a retention regression
//! cannot produce a plausible-looking table
//! (`cargo run -p ocasta-bench --bin retention --release`).
//!
//! The run also re-plays the repair-service scenario with the engine's
//! own [`RetentionPolicy`]: a pinned concurrent `RepairSession` under a
//! live sweeper must repair exactly like a no-retention run — the
//! `DESIGN.md §5.9` pin argument, bench-asserted.

use std::path::Path;

use ocasta::fleet::{fleet_machines, FleetRunConfig};
use ocasta::{
    PruneStats, RepairServiceConfig, RetentionPolicy, ServiceObservers, ShardedTtkv, TimeDelta,
    TimePrecision, Timestamp, TraceOp, Ttkv, Wal,
};

use crate::render_table;

/// Machines in the benchmark fleet.
pub const MACHINES: usize = 10;
/// Days of simulated usage per machine.
pub const DAYS: u64 = 60;
/// Trailing days the retention side keeps.
pub const RETAIN_DAYS: u64 = 10;
/// Footprint samples (and equivalence checks) along the feed.
pub const CHECKPOINTS: usize = 6;

/// One checkpoint of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Ingest frontier at the checkpoint, in fractional days.
    pub day: f64,
    /// Mutation events ingested so far.
    pub events: usize,
    /// Live store footprint with retention off, bytes.
    pub off_store_bytes: u64,
    /// Live store footprint with retention on, bytes.
    pub on_store_bytes: u64,
    /// WAL disk footprint (snapshot + log) with retention off, bytes.
    pub off_disk_bytes: u64,
    /// WAL disk footprint (snapshot + log) with retention on, bytes.
    pub on_disk_bytes: u64,
    /// Versions reclaimed so far on the retention side.
    pub pruned_versions: u64,
    /// Versions reclaimed by *this* checkpoint's sweep alone.
    pub sweep_pruned_versions: u64,
    /// Wall-clock cost of this checkpoint's incremental sweep (shard
    /// prune + layered WAL compaction), microseconds. The series this
    /// traces is the tentpole claim: it tracks `sweep_pruned_versions`,
    /// not live-state size.
    pub sweep_stall_us: u64,
    /// Wall-clock cost of a rebuild-style sweep over the *unbounded*
    /// side at the same horizon: one full WAL compaction (replay
    /// everything, rewrite the whole snapshot) plus one whole-store prune
    /// scan — the O(live state) cost shape both reclamation paths had
    /// before they went incremental. Grows with the run; the incremental
    /// series does not.
    pub rebuild_stall_us: u64,
}

/// The fixed time-ordered mutation feed every configuration ingests.
pub fn feed(machines: usize, days: u64) -> Vec<TraceOp> {
    let machines = fleet_machines(&FleetRunConfig {
        machines,
        days,
        seed: 99,
        apps: vec!["gedit".into(), "evolution".into(), "chrome".into()],
        ..FleetRunConfig::default()
    })
    .expect("catalog names are valid");
    let mut ops: Vec<TraceOp> = machines
        .iter()
        .flat_map(|machine| {
            machine
                .stream()
                .filter(|op| matches!(op, TraceOp::Mutation(_)))
        })
        .collect();
    ops.sort_by_key(|op| match op {
        TraceOp::Mutation(event) => event.timestamp,
        TraceOp::Reads(..) => Timestamp::EPOCH,
    });
    ops
}

/// The full result of one [`sweep`]: the per-checkpoint series plus the
/// *settled* disk footprint measured after one final rebase at the last
/// horizon.
///
/// The distinction matters because the sweeper rebases on a cadence
/// (every few sweeps): if the run happens to end mid-cycle, the retention
/// chain still carries overlapping delta layers and the last checkpoint's
/// disk reading is transiently inflated — it reflects where the rebase
/// clock stopped, not the steady state a long-lived deployment pays.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Per-checkpoint footprint samples, mid-run readings.
    pub samples: Vec<Sample>,
    /// Retention-side disk bytes after the final settling rebase.
    pub settled_on_disk_bytes: u64,
    /// Unbounded-side disk bytes at the same moment (already settled —
    /// the off side compacts to a single snapshot every checkpoint).
    pub settled_off_disk_bytes: u64,
    /// Wall-clock cost of the settling rebase, microseconds.
    pub settle_stall_us: u64,
    /// The settled retained store serialised as an `ocasta-ttkv binary v2`
    /// segment, bytes (the format snapshots and WAL layers actually use).
    pub snapshot_v2_bytes: u64,
    /// The same store serialised in the legacy text v1 format, bytes.
    pub snapshot_v1_bytes: u64,
    /// Time to load the v2 segment back into a store, microseconds.
    pub replay_v2_us: u64,
    /// Time to load the text v1 form back into a store, microseconds.
    pub replay_v1_us: u64,
}

/// Drives the feed into both configurations, sweeping the retention side
/// to `frontier − retain` after every chunk and compacting its WAL to the
/// same horizon. Off-side WALs are compacted too (unpruned), so the disk
/// comparison is snapshot-to-snapshot. After the last checkpoint the
/// retention chain is settled with one final rebase, so the outcome
/// carries both the mid-run and the steady-state disk footprint.
///
/// # Panics
///
/// Panics if any post-horizon query ever differs between the two sides,
/// if the retention side fails to stay below the unbounded side, or if
/// the settled store's binary v2 serialisation fails to round-trip or to
/// come in below its text v1 form (the format smoke assertion CI relies
/// on).
pub fn sweep(
    ops: &[TraceOp],
    retain: TimeDelta,
    checkpoints: usize,
    scratch: &Path,
) -> SweepOutcome {
    let precision = TimePrecision::Milliseconds;
    let off = ShardedTtkv::new(8);
    let on = ShardedTtkv::new(8);
    let _ = std::fs::remove_dir_all(scratch);
    let mut off_wal = Wal::open(scratch.join("off")).expect("scratch dir writable");
    let mut on_wal = Wal::open(scratch.join("on")).expect("scratch dir writable");
    // Delta layers overlap (each repeats the keys it touched), so a chain
    // left to grow can overtake a single compacted snapshot; rebase every
    // few sweeps as a long-running deployment would, so the disk series
    // reflects the steady state (and the stall series shows the
    // amortised rebase spikes honestly).
    on_wal.set_rebase_layers(3);
    let mut reclaimed = PruneStats::default();
    let mut samples = Vec::new();
    let mut last_horizon = Timestamp::EPOCH;

    for checkpoint in 1..=checkpoints {
        let done = ops.len() * checkpoint / checkpoints;
        let start = ops.len() * (checkpoint - 1) / checkpoints;
        let chunk = &ops[start..done];
        off.append_routed(chunk.to_vec());
        on.append_routed(chunk.to_vec());
        off_wal.append(chunk).expect("wal append");
        on_wal.append(chunk).expect("wal append");

        // This half of the bench measures footprint with no pinned
        // readers (the pin path is exercised end-to-end by
        // `pinned_session_equivalence`), so the horizon is unclamped.
        let frontier = on.last_mutation_time().expect("chunks are non-empty");
        let horizon = frontier.saturating_sub(retain);
        last_horizon = horizon;
        // The incremental sweep, timed end to end: in-place shard prune
        // plus layered (delta) WAL compaction.
        let sweep_started = std::time::Instant::now();
        let sweep_stats = on.prune_before(horizon);
        on_wal
            .compact_pruned(precision, horizon)
            .expect("wal compact");
        let sweep_stall_us = sweep_started.elapsed().as_micros() as u64;
        reclaimed.absorb(sweep_stats);

        // The O(live state) yardstick, first half: the unbounded side's
        // full compaction — replay everything, rewrite the whole snapshot
        // — which is exactly the cost shape `Wal::compact_pruned` had
        // before layering.
        let rebuild_started = std::time::Instant::now();
        off_wal.compact(precision).expect("wal compact");
        let mut rebuild_stall_us = rebuild_started.elapsed().as_micros() as u64;

        let off_snap = off.snapshot_store();
        let on_snap = on.snapshot_store();
        // Second half: a whole-store prune scan at the same horizon — the
        // cost shape the shard rebuild sweep had. Both halves grow with
        // the run; the incremental series does not.
        let mut rebuilt = off_snap.clone();
        let rebuild_started = std::time::Instant::now();
        rebuilt.prune_before(horizon);
        rebuild_stall_us += rebuild_started.elapsed().as_micros() as u64;

        // Incremental == rebuild == direct, exactly: however many staged
        // sweeps have run, the retained store must equal the unbounded
        // store pruned once at the current horizon.
        assert_eq!(
            on_snap, rebuilt,
            "retained store must equal one direct prune at {horizon}"
        );
        // The layered WAL chain must replay to the same store.
        assert_eq!(
            on_wal.replay(precision).expect("wal replay"),
            on_snap,
            "layered replay diverged at {horizon}"
        );
        // Post-horizon equivalence, at the horizon itself and the frontier.
        for key in off_snap.keys() {
            for probe in [horizon, frontier] {
                assert_eq!(
                    on_snap.value_at(key.as_str(), probe),
                    off_snap.value_at(key.as_str(), probe),
                    "{key} diverged at {probe} (horizon {horizon})"
                );
            }
        }
        assert_eq!(
            on_snap.stats().writes,
            off_snap.stats().writes,
            "lifetime counters must survive pruning"
        );

        samples.push(Sample {
            day: frontier.as_days(),
            events: done,
            off_store_bytes: off_snap.approx_bytes(),
            on_store_bytes: on_snap.approx_bytes(),
            off_disk_bytes: off_wal.log_bytes() + off_wal.snapshot_bytes(),
            on_disk_bytes: on_wal.log_bytes() + on_wal.snapshot_bytes(),
            pruned_versions: reclaimed.pruned_versions,
            sweep_pruned_versions: sweep_stats.pruned_versions,
            sweep_stall_us,
            rebuild_stall_us,
        });
    }
    // Settle the retention chain: the loop above leaves it wherever the
    // rebase cadence happened to stop, so the last checkpoint's disk
    // reading can carry un-rebased delta layers whose keys overlap the
    // base. One explicit rebase at the final horizon collapses the chain
    // to the footprint a long-lived deployment actually holds; both
    // readings are reported so the cadence-vs-steady-state gap stays
    // visible instead of skewing the headline ratio.
    let settle_started = std::time::Instant::now();
    on_wal
        .compact_pruned_rebased(precision, last_horizon)
        .expect("wal rebase");
    let settle_stall_us = settle_started.elapsed().as_micros() as u64;
    assert_eq!(
        on_wal.replay(precision).expect("wal replay"),
        on.snapshot_store(),
        "settling rebase diverged at {last_horizon}"
    );
    let settled_on_disk_bytes = on_wal.log_bytes() + on_wal.snapshot_bytes();
    let settled_off_disk_bytes = off_wal.log_bytes() + off_wal.snapshot_bytes();

    // Format yardstick: the settled retained store serialised both ways,
    // with a timed load of each. Binary v2 is the live format; text v1 is
    // the read-only import/export path — if v2 ever stops beating it on
    // the bench feed, the format regressed.
    let settled_store = on.snapshot_store();
    let mut v2 = Vec::new();
    settled_store.save(&mut v2).expect("serialise v2");
    let v1 = settled_store.save_to_string();
    let replay_started = std::time::Instant::now();
    let from_v2 = Ttkv::load(v2.as_slice()).expect("v2 segment loads");
    let replay_v2_us = replay_started.elapsed().as_micros() as u64;
    let replay_started = std::time::Instant::now();
    let from_v1 = Ttkv::load_from_str(&v1).expect("v1 text loads");
    let replay_v1_us = replay_started.elapsed().as_micros() as u64;
    assert_eq!(from_v2, settled_store, "v2 roundtrip diverged");
    assert_eq!(from_v1, settled_store, "v1 roundtrip diverged");
    assert!(
        v2.len() < v1.len(),
        "binary v2 snapshot must be smaller than text v1: {} vs {} bytes",
        v2.len(),
        v1.len()
    );
    std::fs::remove_dir_all(scratch).ok();

    let last = samples.last().expect("checkpoints > 0");
    assert!(
        last.on_store_bytes < last.off_store_bytes,
        "retention must bound memory: {} vs {}",
        last.on_store_bytes,
        last.off_store_bytes
    );
    assert!(
        settled_on_disk_bytes < settled_off_disk_bytes,
        "retention must bound disk once settled: {settled_on_disk_bytes} vs \
         {settled_off_disk_bytes}"
    );
    SweepOutcome {
        samples,
        settled_on_disk_bytes,
        settled_off_disk_bytes,
        settle_stall_us,
        snapshot_v2_bytes: v2.len() as u64,
        snapshot_v1_bytes: v1.len() as u64,
        replay_v2_us,
        replay_v1_us,
    }
}

/// The engine-integrated half: a repair-service run with the fleet
/// engine's own retention sweeper and a pinned concurrent session, against
/// the identical run with retention off. Returns the rendered comparison.
///
/// # Panics
///
/// Panics if any session's repair outcome differs between the two runs,
/// or if retention fails to shrink the pinned snapshot.
pub fn pinned_session_equivalence() -> String {
    let base = RepairServiceConfig {
        users: 2,
        scenario_ids: vec![13, 15],
        min_catalog_events: u64::MAX,
        start_bound_days: Some(3),
        ..RepairServiceConfig::default()
    };
    let mut fleet = base.fleet.clone();
    fleet.machines = 4;
    fleet.days = 16;
    fleet.engine.shards = 4;
    fleet.engine.ingest_threads = 2;
    let without = ocasta::run_repair_service_observed(
        &RepairServiceConfig {
            fleet: fleet.clone(),
            ..base.clone()
        },
        &ServiceObservers::default(),
    )
    .expect("service runs");
    fleet.engine.retention = Some(RetentionPolicy {
        retain: TimeDelta::from_days(5),
        min_interval: TimeDelta::from_days(1),
    });
    let with = ocasta::run_repair_service_observed(
        &RepairServiceConfig { fleet, ..base },
        &ServiceObservers::default(),
    )
    .expect("service runs");

    let retention = with.ingest.retention.expect("policy was set");
    assert!(retention.sweeps > 0, "the sweeper must have run");
    let horizon = retention.horizon.expect("swept");
    assert!(
        horizon <= with.session_pin,
        "sweeps may never pass the session pin"
    );
    assert!(
        with.snapshot_stats.approx_bytes < without.snapshot_stats.approx_bytes,
        "the pinned snapshot must shrink under retention"
    );
    for (a, b) in with.sessions.iter().zip(&without.sessions) {
        assert!(
            a.report.is_fixed() && b.report.is_fixed(),
            "sessions repair"
        );
        let (oa, ob) = (&a.report.outcome, &b.report.outcome);
        assert_eq!(
            oa.fix.as_ref().map(|f| f.version),
            ob.fix.as_ref().map(|f| f.version)
        );
        assert_eq!(oa.trials_to_fix, ob.trials_to_fix);
        assert_eq!(oa.total_trials, ob.total_trials);
        assert_eq!(oa.total_screenshots, ob.total_screenshots);
    }

    format!(
        "pinned-session equivalence: {} sessions fixed identically with \
         retention on (pin {}, final horizon {}, {}) — snapshot {} -> {} bytes\n",
        with.sessions.len(),
        with.session_pin,
        horizon,
        retention.reclaimed,
        without.snapshot_stats.approx_bytes,
        with.snapshot_stats.approx_bytes,
    )
}

/// Renders one sample row.
fn row(sample: &Sample) -> Vec<String> {
    vec![
        format!("{:.1}", sample.day),
        sample.events.to_string(),
        format!("{:.1}", sample.off_store_bytes as f64 / 1e3),
        format!("{:.1}", sample.on_store_bytes as f64 / 1e3),
        format!("{:.1}", sample.off_disk_bytes as f64 / 1e3),
        format!("{:.1}", sample.on_disk_bytes as f64 / 1e3),
        sample.sweep_pruned_versions.to_string(),
        sample.sweep_stall_us.to_string(),
        sample.rebuild_stall_us.to_string(),
    ]
}

/// Serialises the sweep as machine-readable JSON (the perf-trajectory
/// artifact CI accumulates as `BENCH_retention.json`).
///
/// `final_disk_ratio` is the *settled* reading (after the closing rebase);
/// `mid_run_disk_ratio` preserves the last checkpoint's raw reading, which
/// can sit above it when the run ends mid rebase-cycle.
pub fn to_json(outcome: &SweepOutcome, session_note: &str) -> String {
    let samples = &outcome.samples;
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"retention\",\n  \"machines\": {MACHINES},\n  \"days\": {DAYS},\n  \
         \"retain_days\": {RETAIN_DAYS},\n  \"checkpoints\": [\n"
    ));
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"day\": {:.2}, \"events\": {}, \"off_store_bytes\": {}, \
             \"on_store_bytes\": {}, \"off_disk_bytes\": {}, \"on_disk_bytes\": {}, \
             \"pruned_versions\": {}, \"sweep_pruned_versions\": {}, \
             \"sweep_stall_us\": {}, \"rebuild_stall_us\": {}}}{}\n",
            s.day,
            s.events,
            s.off_store_bytes,
            s.on_store_bytes,
            s.off_disk_bytes,
            s.on_disk_bytes,
            s.pruned_versions,
            s.sweep_pruned_versions,
            s.sweep_stall_us,
            s.rebuild_stall_us,
            if i + 1 == samples.len() { "" } else { "," },
        ));
    }
    let last = samples.last().expect("checkpoints > 0");
    out.push_str(&format!(
        "  ],\n  \"final_store_ratio\": {:.4},\n  \"final_disk_ratio\": {:.4},\n  \
         \"mid_run_disk_ratio\": {:.4},\n  \"settle_stall_us\": {},\n  \
         \"median_sweep_stall_us\": {},\n  \"median_rebuild_stall_us\": {},\n  \
         \"final_rebuild_stall_us\": {},\n  \
         \"snapshot_v2_bytes\": {},\n  \"snapshot_v1_bytes\": {},\n  \
         \"replay_v2_us\": {},\n  \"replay_v1_us\": {},\n  \
         \"pinned_session_equivalence\": \"{}\"\n}}\n",
        last.on_store_bytes as f64 / last.off_store_bytes as f64,
        outcome.settled_on_disk_bytes as f64 / outcome.settled_off_disk_bytes as f64,
        last.on_disk_bytes as f64 / last.off_disk_bytes as f64,
        outcome.settle_stall_us,
        median(samples.iter().map(|s| s.sweep_stall_us)),
        median(samples.iter().map(|s| s.rebuild_stall_us)),
        last.rebuild_stall_us,
        outcome.snapshot_v2_bytes,
        outcome.snapshot_v1_bytes,
        outcome.replay_v2_us,
        outcome.replay_v1_us,
        session_note.trim().replace('"', "'"),
    ));
    out
}

/// Median of a series (0 for an empty one).
fn median(values: impl Iterator<Item = u64>) -> u64 {
    let mut sorted: Vec<u64> = values.collect();
    sorted.sort_unstable();
    sorted.get(sorted.len() / 2).copied().unwrap_or(0)
}

/// Runs the full sweep; returns `(human table, machine JSON)`.
pub fn run() -> (String, String) {
    let ops = feed(MACHINES, DAYS);
    let scratch =
        std::env::temp_dir().join(format!("ocasta-bench-retention-{}", std::process::id()));
    let outcome = sweep(
        &ops,
        TimeDelta::from_days(RETAIN_DAYS),
        CHECKPOINTS,
        &scratch,
    );
    let samples = &outcome.samples;

    let rows: Vec<Vec<String>> = samples.iter().map(row).collect();
    let mut out = format!(
        "Steady-state footprint under sustained ingest \
         ({MACHINES} machines x {DAYS} days, retain {RETAIN_DAYS} days, \
         {} events, {CHECKPOINTS} checkpoints)\n\n",
        ops.len(),
    );
    out.push_str(&render_table(
        &[
            "Day",
            "Events",
            "Store KB (off)",
            "Store KB (on)",
            "Disk KB (off)",
            "Disk KB (on)",
            "Swept",
            "Sweep us",
            "Rebuild us",
        ],
        &rows,
    ));
    let first = samples.first().expect("checkpoints > 0");
    let last = samples.last().expect("checkpoints > 0");
    out.push_str(&format!(
        "\nincremental == rebuild == direct (store + layered WAL replay) at every checkpoint: ok\n\
         unbounded store grew {:.1}x over the run; retained store grew {:.1}x \
         and ended at {:.0}% of unbounded ({:.0}% on disk once settled; {:.0}% \
         mid rebase-cycle, {} us to settle)\n",
        last.off_store_bytes as f64 / first.off_store_bytes.max(1) as f64,
        last.on_store_bytes as f64 / first.on_store_bytes.max(1) as f64,
        100.0 * last.on_store_bytes as f64 / last.off_store_bytes as f64,
        100.0 * outcome.settled_on_disk_bytes as f64 / outcome.settled_off_disk_bytes as f64,
        100.0 * last.on_disk_bytes as f64 / last.off_disk_bytes as f64,
        outcome.settle_stall_us,
    ));
    out.push_str(&format!(
        "per-sweep stall: incremental median {} us (rebase spikes included) \
         while the rebuild yardstick grew {} -> {} us with the run — sweep \
         cost tracks per-sweep reclaimed volume ({} versions at the last \
         checkpoint), not live-state size\n",
        median(samples.iter().map(|s| s.sweep_stall_us)),
        first.rebuild_stall_us,
        last.rebuild_stall_us,
        last.sweep_pruned_versions,
    ));
    out.push_str(&format!(
        "snapshot format: binary v2 {:.1} KB vs text v1 {:.1} KB \
         ({:.0}% of text), loads in {} us vs {} us\n",
        outcome.snapshot_v2_bytes as f64 / 1e3,
        outcome.snapshot_v1_bytes as f64 / 1e3,
        100.0 * outcome.snapshot_v2_bytes as f64 / outcome.snapshot_v1_bytes.max(1) as f64,
        outcome.replay_v2_us,
        outcome.replay_v1_us,
    ));
    let session_note = pinned_session_equivalence();
    out.push_str(&session_note);
    let json = to_json(&outcome, &session_note);
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_asserts_equivalence_and_boundedness_on_a_small_feed() {
        // A small fleet keeps the unit test quick; the binary runs the
        // full sweep (whose checkpoints assert the same invariants).
        let ops = feed(3, 24);
        let scratch = std::env::temp_dir().join(format!(
            "ocasta-bench-retention-test-{}",
            std::process::id()
        ));
        let outcome = sweep(&ops, TimeDelta::from_days(4), 4, &scratch);
        let samples = &outcome.samples;
        assert_eq!(samples.len(), 4);
        assert!(samples.windows(2).all(|w| w[0].events <= w[1].events));
        let last = samples.last().unwrap();
        assert!(last.pruned_versions > 0);
        assert!(last.on_store_bytes < last.off_store_bytes);
        // The settled reading never exceeds the mid-run one: the closing
        // rebase can only collapse overlapping delta layers, not add any.
        assert!(outcome.settled_on_disk_bytes <= last.on_disk_bytes);
        assert!(outcome.settled_on_disk_bytes < outcome.settled_off_disk_bytes);

        // Binary v2 must beat the text form even on the small feed, and
        // both loads must have been timed.
        assert!(outcome.snapshot_v2_bytes < outcome.snapshot_v1_bytes);
        assert!(outcome.snapshot_v2_bytes > 0);

        let json = to_json(&outcome, "ok");
        assert!(json.contains("\"bench\": \"retention\""), "{json}");
        assert!(json.contains("\"final_store_ratio\""), "{json}");
        assert!(json.contains("\"mid_run_disk_ratio\""), "{json}");
        assert!(json.contains("\"snapshot_v2_bytes\""), "{json}");
        assert!(json.contains("\"replay_v2_us\""), "{json}");
        assert_eq!(json.matches("{\"day\"").count(), 4, "{json}");
    }
}
