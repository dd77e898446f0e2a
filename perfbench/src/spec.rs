//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics, exactly as `BENCHMARK.json` declares them (a self-test holds
//! the two in step).

/// A metric name with its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["ingest", "ingest-retain"];

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: [Metric; 8] = [
    m("setup_s", "s"),
    m("ingest_mut_per_s", "mut/s"),
    m("recover_s", "s"),
    m("disk_bytes_per_mutation", "B"),
    m("peak_rss_mb", "MB"),
    m("cluster_accuracy_pct", "%"),
    m("repair_pass_s", "s"),
    m("screens_per_fix", "count"),
];

/// Per-layer metrics: every traced run reports each of them.
pub const PER_LAYER: [Metric; 46] = [
    m("trace.gen_s", "s"),
    m("trace.ops", "count"),
    m("fleet.batch_apply_s", "s"),
    m("fleet.lock_wait_s", "s"),
    m("fleet.seal_s", "s"),
    m("fleet.seals", "count"),
    m("fleet.batches", "count"),
    m("fleet.wal_append_s", "s"),
    m("fleet.wal_frames", "count"),
    m("fleet.wal_log_bytes", "B"),
    m("fleet.wal_flushes", "count"),
    m("fleet.wal_log_decode_s", "s"),
    m("fleet.sweep_stall_s", "s"),
    m("fleet.sweeps", "count"),
    m("fleet.reclaimed_versions", "count"),
    m("fleet.cow_segments", "count"),
    m("fleet.wal_compact_s", "s"),
    m("fleet.wal_rebase_s", "s"),
    m("fleet.pin_epoch_us", "us"),
    m("fleet.materialize_ms", "ms"),
    m("ttkv.persist_encode_s", "s"),
    m("ttkv.persist_decode_s", "s"),
    m("ttkv.v2_bytes", "B"),
    m("ttkv.store_bytes", "B"),
    m("cluster.snapshot_ms", "ms"),
    m("cluster.hac_ms", "ms"),
    m("cluster.unsealed_events", "count"),
    m("cluster.keys", "count"),
    m("cluster.pairs", "count"),
    m("cluster.multi_clusters", "count"),
    m("cluster.absorb_s", "s"),
    m("cluster.absorb_mevents_per_s", "Mev/s"),
    m("cluster.query_ms_p50", "ms"),
    m("repair.search_seq_ms", "ms"),
    m("repair.search_par_ms", "ms"),
    m("repair.trials", "count"),
    m("repair.trials_to_fix", "count"),
    m("repair.useful_trial_ratio", "ratio"),
    m("repair.session_ms", "ms"),
    m("repair.ingest_ms", "ms"),
    m("service.session_open_s", "s"),
    m("service.session_step_s", "s"),
    m("service.pin_advances", "count"),
    m("trace.overhead_s", "s"),
    m("trace.overhead_pct", "%"),
    m("trace.rounds", "count"),
];

/// `true` if `name` is a legal benchmark name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn is_valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
