//! Fleet-tier metric handles: what the ingestion engine records when a
//! caller asks for observability.
//!
//! [`FleetMetrics`] is a bundle of [`ocasta_obs`] handles registered under
//! stable `fleet.*` names. The engine records into it from three places —
//! ingest workers (batch counts, stripe-lock wait, batch apply), the WAL
//! appender (append/flush/compact/rebase timings), and the retention
//! sweeper (stall, reclaimed volume, pin clamps) — always as a **pure
//! observer**: wall-clock readings and tallies only, nothing fed back into
//! scheduling or data flow, so an instrumented run produces bit-identical
//! stores to an uninstrumented one (asserted end-to-end by the CLI
//! determinism tests; `DESIGN.md §5.11`).

use std::sync::Arc;

use ocasta_obs::{Counter, Histogram, Registry};

/// Metric handles for one instrumented ingestion run.
///
/// Construct with [`FleetMetrics::register`] against the registry whose
/// snapshot you intend to export; pass by reference through
/// [`crate::IngestOptions::metrics`].
#[derive(Debug)]
pub struct FleetMetrics {
    /// Batches applied to shards (`fleet.ingest.batches`).
    pub ingest_batches: Arc<Counter>,
    /// Ops applied to shards (`fleet.ingest.ops`).
    pub ingest_ops: Arc<Counter>,
    /// Time spent waiting for a stripe lock (`fleet.shard.lock_wait_us`).
    pub lock_wait: Arc<Histogram>,
    /// Time spent applying a batch under the stripe lock, WAL send
    /// included (`fleet.shard.batch_apply_us`).
    pub batch_apply: Arc<Histogram>,
    /// Time an ingest worker spends encoding one batch into a WAL frame,
    /// outside any lock (`fleet.wal.encode_us`).
    pub wal_encode: Arc<Histogram>,
    /// WAL frame append latency on the appender thread: writing bytes a
    /// worker already encoded (`fleet.wal.append_us`).
    pub wal_append: Arc<Histogram>,
    /// WAL flush/fsync latency (`fleet.wal.flush_us`).
    pub wal_flush: Arc<Histogram>,
    /// Incremental (delta-layer) WAL compaction latency
    /// (`fleet.wal.compact_us`).
    pub wal_compact: Arc<Histogram>,
    /// Full-chain WAL rebase latency (`fleet.wal.rebase_us`).
    pub wal_rebase: Arc<Histogram>,
    /// Frames appended to the WAL (`fleet.wal.frames`).
    pub wal_frames: Arc<Counter>,
    /// Store-side sweep stall: one `prune_before` across every shard
    /// (`fleet.sweep.stall_us`).
    pub sweep_stall: Arc<Histogram>,
    /// Sweeps executed (`fleet.sweep.count`).
    pub sweeps: Arc<Counter>,
    /// Versions reclaimed by sweeps (`fleet.sweep.reclaimed_versions`).
    pub sweep_reclaimed_versions: Arc<Counter>,
    /// Approximate bytes reclaimed by sweeps
    /// (`fleet.sweep.reclaimed_bytes`).
    pub sweep_reclaimed_bytes: Arc<Counter>,
    /// Sweep attempts whose horizon a live pin clamped back
    /// (`fleet.sweep.pin_clamps`).
    pub pin_clamps: Arc<Counter>,
    /// Shard tails frozen into sealed segments (`fleet.shard.seals`).
    pub seals: Arc<Counter>,
    /// Time spent sealing one tail under its stripe lock
    /// (`fleet.shard.seal_us`).
    pub seal_stall: Arc<Histogram>,
    /// Epoch pins taken for snapshots (`fleet.snapshot.epoch_pins`).
    pub epoch_pins: Arc<Counter>,
    /// Time spent pinning one epoch across every shard
    /// (`fleet.snapshot.pin_us`).
    pub pin_stall: Arc<Histogram>,
    /// Sealed segments rewritten copy-on-write by sweeps
    /// (`fleet.sweep.cow_segments`).
    pub cow_segments: Arc<Counter>,
}

impl FleetMetrics {
    /// Registers every fleet metric on `registry` and returns the bundle.
    pub fn register(registry: &Registry) -> Self {
        FleetMetrics {
            ingest_batches: registry.counter("fleet.ingest.batches"),
            ingest_ops: registry.counter("fleet.ingest.ops"),
            lock_wait: registry.histogram("fleet.shard.lock_wait_us"),
            batch_apply: registry.histogram("fleet.shard.batch_apply_us"),
            wal_encode: registry.histogram("fleet.wal.encode_us"),
            wal_append: registry.histogram("fleet.wal.append_us"),
            wal_flush: registry.histogram("fleet.wal.flush_us"),
            wal_compact: registry.histogram("fleet.wal.compact_us"),
            wal_rebase: registry.histogram("fleet.wal.rebase_us"),
            wal_frames: registry.counter("fleet.wal.frames"),
            sweep_stall: registry.histogram("fleet.sweep.stall_us"),
            sweeps: registry.counter("fleet.sweep.count"),
            sweep_reclaimed_versions: registry.counter("fleet.sweep.reclaimed_versions"),
            sweep_reclaimed_bytes: registry.counter("fleet.sweep.reclaimed_bytes"),
            pin_clamps: registry.counter("fleet.sweep.pin_clamps"),
            seals: registry.counter("fleet.shard.seals"),
            seal_stall: registry.histogram("fleet.shard.seal_us"),
            epoch_pins: registry.counter("fleet.snapshot.epoch_pins"),
            pin_stall: registry.histogram("fleet.snapshot.pin_us"),
            cow_segments: registry.counter("fleet.sweep.cow_segments"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_names_every_series_once() {
        let registry = Registry::new();
        let metrics = FleetMetrics::register(&registry);
        metrics.ingest_batches.inc();
        metrics.sweep_stall.record(42);
        // Re-registering shares the same handles.
        let again = FleetMetrics::register(&registry);
        assert_eq!(again.ingest_batches.get(), 1);
        assert_eq!(again.sweep_stall.count(), 1);
        let json = registry.snapshot_json();
        for name in [
            "fleet.ingest.batches",
            "fleet.ingest.ops",
            "fleet.shard.lock_wait_us",
            "fleet.shard.batch_apply_us",
            "fleet.wal.encode_us",
            "fleet.wal.append_us",
            "fleet.wal.flush_us",
            "fleet.wal.compact_us",
            "fleet.wal.rebase_us",
            "fleet.wal.frames",
            "fleet.sweep.stall_us",
            "fleet.sweep.count",
            "fleet.sweep.reclaimed_versions",
            "fleet.sweep.reclaimed_bytes",
            "fleet.sweep.pin_clamps",
            "fleet.shard.seals",
            "fleet.shard.seal_us",
            "fleet.snapshot.epoch_pins",
            "fleet.snapshot.pin_us",
            "fleet.sweep.cow_segments",
        ] {
            assert!(json.contains(name), "{name} missing from {json}");
        }
    }
}
