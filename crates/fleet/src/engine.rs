//! The concurrent fleet ingestion engine.
//!
//! Reproduces — at simulation scale — the paper's deployment topology:
//! N machines (29 in the study) each stream their configuration-access
//! trace into a central time-travel store. The engine runs three kinds of
//! actors under one thread scope:
//!
//! * **ingest workers** (`ingest_threads` of them) pull whole machines off
//!   a work queue, drive each machine's lazy [`EventStream`], route ops
//!   into per-shard batches, and append full batches to the
//!   [`ShardedTtkv`] under that shard's stripe lock;
//! * an optional **WAL appender** receives every batch over a channel and
//!   appends it to the [`Wal`] before... strictly speaking *while* it is
//!   applied — each worker encodes its batch into a WAL frame before it
//!   takes the stripe lock, sends the frame bytes under the lock (so the
//!   log's per-shard order is apply order), and the single appender only
//!   writes bytes;
//! * the **caller**, which on completion merges the shards into one
//!   consistent [`Ttkv`] and hands it to clustering/repair.
//!
//! Ingestion is machine-granular: one machine's ops are produced and
//! applied in stream order by one worker, so per-key history order is
//! deterministic whenever distinct machines do not write the same key at
//! the same (quantised) timestamp — and [`ingest`] with one thread equals
//! [`ingest`] with sixteen, which the concurrency tests assert.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use ocasta_obs::Stopwatch;
use ocasta_trace::{EventStream, GeneratorConfig, TraceOp, WorkloadSpec};
use ocasta_ttkv::{HorizonGuard, Key, PruneStats, TimeDelta, TimePrecision, Timestamp, Ttkv};

use crate::fault::{panic_message, FaultPlan, IngestError};
use crate::metrics::FleetMetrics;
use crate::shard::ShardedTtkv;
use crate::tap::IngestTap;
use crate::wal::{quantized, EncodedFrame, Wal, WalError};

/// One simulated machine in the fleet: a named seed-deterministic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Machine name (becomes the key prefix under
    /// [`KeyPlacement::PerMachine`]).
    pub name: String,
    /// Deployment length in days.
    pub days: u64,
    /// RNG seed for this machine's stream.
    pub seed: u64,
    /// Per-application workloads running on the machine.
    pub specs: Vec<WorkloadSpec>,
}

impl MachineSpec {
    /// Creates a machine spec.
    pub fn new(name: impl Into<String>, days: u64, seed: u64, specs: Vec<WorkloadSpec>) -> Self {
        MachineSpec {
            name: name.into(),
            days,
            seed,
            specs,
        }
    }

    /// Opens this machine's lazy event stream.
    pub fn stream(&self) -> EventStream {
        EventStream::new(
            &GeneratorConfig::new(self.name.clone(), self.days, self.seed),
            self.specs.clone(),
        )
    }
}

/// How machine key spaces combine in the merged store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeyPlacement {
    /// All machines share one key space — the paper's per-user aggregation
    /// of traces from several lab machines (§V).
    #[default]
    Merged,
    /// Keys are prefixed `machine-name/...`, keeping machines disjoint
    /// (useful for per-machine analysis and for deterministic merges).
    PerMachine,
}

/// How much trailing history a long-running ingestion keeps live.
///
/// With a policy set, the engine runs a retention sweeper alongside the
/// ingest workers: whenever the ingest frontier (latest applied mutation
/// timestamp) has advanced far enough, the sweeper prunes every shard to
/// `frontier − retain` ([`ShardedTtkv::prune_before`]) and compacts the
/// WAL lane to the same horizon — both off the ingest workers' hot path.
/// Sweeps clamp to live [`HorizonGuard`] pins, so pinned repair sessions
/// and catalogs never lose history they registered for (`DESIGN.md §5.9`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Simulated trace time kept behind the ingest frontier; older
    /// versions collapse into per-key baselines.
    pub retain: TimeDelta,
    /// Minimum horizon advance between sweeps. Sweeps are incremental —
    /// O(ops since the last sweep + versions reclaimed), both in the
    /// shards and on the WAL lane — so this paces bookkeeping overhead
    /// (layer files, stats traffic), not a rebuild stall as it once did.
    pub min_interval: TimeDelta,
}

impl RetentionPolicy {
    /// A policy retaining the last `days` days of trace time, sweeping at
    /// most once per simulated day.
    pub fn keep_days(days: u64) -> Self {
        RetentionPolicy {
            retain: TimeDelta::from_days(days),
            min_interval: TimeDelta::from_days(1),
        }
    }
}

/// Tuning knobs for one ingestion run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of TTKV stripe locks (shards).
    pub shards: usize,
    /// Number of concurrent ingest workers.
    pub ingest_threads: usize,
    /// Ops buffered per shard before the stripe lock is taken.
    pub batch_size: usize,
    /// Timestamp quantisation applied at ingestion time.
    pub precision: TimePrecision,
    /// Key-space layout.
    pub placement: KeyPlacement,
    /// Bounded-memory retention, or `None` to keep history forever.
    pub retention: Option<RetentionPolicy>,
    /// Mutable-tail size at which a shard seals an immutable segment
    /// (see [`crate::DEFAULT_SEAL_THRESHOLD`]); smaller values seal more
    /// often, making epoch pins cheaper to copy at the cost of more
    /// segment folds.
    pub seal_threshold: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 16,
            ingest_threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            batch_size: 512,
            precision: TimePrecision::Seconds,
            placement: KeyPlacement::Merged,
            retention: None,
            seal_threshold: crate::shard::DEFAULT_SEAL_THRESHOLD,
        }
    }
}

/// What the retention sweeper did over one ingestion run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetentionReport {
    /// Sweeps executed (shard prune + WAL compaction each).
    pub sweeps: u64,
    /// The final prune horizon, if any sweep ran.
    pub horizon: Option<Timestamp>,
    /// Total reclaimed across all sweeps.
    pub reclaimed: PruneStats,
    /// Sweep attempts (paced at the policy's `min_interval`, like sweeps
    /// themselves) whose target horizon was clamped back by a live pin.
    pub clamped: u64,
    /// Dead counter-only key shells collected by the final sweep
    /// ([`ocasta_ttkv::Ttkv::gc_dead_shells`]): keys whose entire history
    /// was pruned away and whose last value was a tombstone. Collected
    /// once, after the final sweep — mid-run sweeps leave shells in place
    /// so a straggler rewrite keeps its lifetime counters.
    pub shells: u64,
}

/// What one ingestion run did, and how fast.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Machines ingested.
    pub machines: usize,
    /// Mutation events applied (writes + deletions).
    pub mutations: u64,
    /// Read accesses applied (sum of aggregated counters).
    pub reads: u64,
    /// Shards used.
    pub shards: usize,
    /// Ingest workers used.
    pub threads: usize,
    /// Wall-clock ingestion time (excludes the final shard merge).
    pub ingest_elapsed: Duration,
    /// Wall-clock shard build + merge time.
    pub merge_elapsed: Duration,
    /// Per-machine mutation counts, in machine order.
    pub per_machine: Vec<(String, u64)>,
    /// The retention sweeper's tally, when a policy was configured.
    pub retention: Option<RetentionReport>,
}

impl FleetReport {
    /// Mutations per second of ingestion wall-clock.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.ingest_elapsed.as_secs_f64();
        if secs > 0.0 {
            self.mutations as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} machines, {} mutations, {} reads via {} threads x {} shards \
             in {:.2?} (+{:.2?} merge) = {:.0} events/s",
            self.machines,
            self.mutations,
            self.reads,
            self.threads,
            self.shards,
            self.ingest_elapsed,
            self.merge_elapsed,
            self.events_per_sec(),
        )?;
        if let Some(retention) = &self.retention {
            write!(
                f,
                "; retention: {} sweeps ({} pin-clamped) to {}, {}, {} dead shells collected",
                retention.sweeps,
                retention.clamped,
                retention
                    .horizon
                    .map_or_else(|| "-".into(), |h| h.to_string()),
                retention.reclaimed,
                retention.shells,
            )?;
        }
        Ok(())
    }
}

/// Everything one ingestion run can optionally be instrumented with: a
/// durability lane, a live-analytics tap, and a retention pin registry.
///
/// The struct form keeps the entry-point surface flat: `ingest`,
/// [`ingest_with_wal`], [`ingest_into`] and friends are thin wrappers over
/// [`ingest_live`] with the corresponding option set.
#[derive(Default)]
pub struct IngestOptions<'a> {
    /// Append every accepted batch to this WAL before it is applied.
    pub wal: Option<&'a mut Wal>,
    /// Invoke on every accepted batch (outside the shard locks).
    pub tap: Option<&'a dyn IngestTap>,
    /// Clamp retention sweeps to this registry's live pins. Without a
    /// guard, a configured [`RetentionPolicy`] sweeps unclamped.
    pub guard: Option<&'a HorizonGuard>,
    /// Record ingest/WAL/sweep observations into these handles (see
    /// [`FleetMetrics`]). Purely observational: an instrumented run
    /// applies exactly the ops, in exactly the order, an uninstrumented
    /// one does.
    pub metrics: Option<&'a FleetMetrics>,
    /// Deterministic fault injection for the VOPR harness (see
    /// [`FaultPlan`]). `None` — the default — injects nothing and costs
    /// nothing: every hook is a field check on this option.
    pub faults: Option<&'a FaultPlan>,
}

impl std::fmt::Debug for IngestOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestOptions")
            .field("wal", &self.wal.is_some())
            .field("tap", &self.tap.is_some())
            .field("guard", &self.guard.is_some())
            .field("metrics", &self.metrics.is_some())
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

/// Ingests a whole fleet concurrently; returns the merged store and a
/// throughput report.
pub fn ingest(machines: &[MachineSpec], config: &FleetConfig) -> (Ttkv, FleetReport) {
    match ingest_inner(machines, config, IngestOptions::default()) {
        Ok(result) => result,
        // lint:allow(panic-in-worker-path): caller-facing infallible wrapper — absent a WAL lane or fault plan only an engine bug reaches Err, and surfacing that bug as a caller panic (never on a worker thread) is the intent
        Err(e) => unreachable!("no WAL lane, no fault plan: {e}"),
    }
}

/// Like [`ingest`], additionally invoking `tap` on every accepted batch —
/// the live-analytics hook (see [`IngestTap`] and [`crate::WriteLanes`]).
///
/// The tap runs on the ingest workers' threads, outside the shard locks;
/// batches reach it after placement and timestamp quantisation — as the
/// store sees them — and only *after* the shard has applied them, so
/// everything a tap consumer has observed is already readable through a
/// store snapshot.
pub fn ingest_tapped(
    machines: &[MachineSpec],
    config: &FleetConfig,
    tap: &dyn IngestTap,
) -> (Ttkv, FleetReport) {
    let options = IngestOptions {
        tap: Some(tap),
        ..IngestOptions::default()
    };
    match ingest_inner(machines, config, options) {
        Ok(result) => result,
        // lint:allow(panic-in-worker-path): caller-facing infallible wrapper — absent a WAL lane or fault plan only an engine bug reaches Err, and surfacing that bug as a caller panic (never on a worker thread) is the intent
        Err(e) => unreachable!("no WAL lane, no fault plan: {e}"),
    }
}

/// Like [`ingest`], additionally appending every batch to `wal` before it
/// is applied to the shards.
///
/// # Errors
///
/// Returns the first [`IngestError`] the run hits: a WAL failure on the
/// appender lane (ingestion still runs to completion so the store is
/// usable; the WAL may be truncated), or a panicked ingest worker.
pub fn ingest_with_wal(
    machines: &[MachineSpec],
    config: &FleetConfig,
    wal: &mut Wal,
) -> Result<(Ttkv, FleetReport), IngestError> {
    let options = IngestOptions {
        wal: Some(wal),
        ..IngestOptions::default()
    };
    ingest_inner(machines, config, options)
}

/// The fully-instrumented engine: optional WAL lane *and* optional tap.
///
/// # Errors
///
/// Same conditions as [`ingest_with_wal`].
pub fn ingest_with_wal_and_tap(
    machines: &[MachineSpec],
    config: &FleetConfig,
    wal: &mut Wal,
    tap: &dyn IngestTap,
) -> Result<(Ttkv, FleetReport), IngestError> {
    let options = IngestOptions {
        wal: Some(wal),
        tap: Some(tap),
        ..IngestOptions::default()
    };
    ingest_inner(machines, config, options)
}

/// The general merged-store entry point: bring your own [`IngestOptions`]
/// (WAL lane, tap, horizon guard, metrics bundle — any combination),
/// ingest, and merge the shards into one consistent store. The named
/// convenience wrappers ([`ingest`], [`ingest_with_wal`], …) all route
/// here.
///
/// # Errors
///
/// Same conditions as [`ingest_with_wal`] — only possible when a WAL lane
/// or a fault plan was supplied (absent both, workers can still panic on a
/// genuine engine bug, and that panic surfaces as an error here).
pub fn ingest_observed(
    machines: &[MachineSpec],
    config: &FleetConfig,
    options: IngestOptions<'_>,
) -> Result<(Ttkv, FleetReport), IngestError> {
    ingest_inner(machines, config, options)
}

fn ingest_inner(
    machines: &[MachineSpec],
    config: &FleetConfig,
    options: IngestOptions<'_>,
) -> Result<(Ttkv, FleetReport), IngestError> {
    let sharded = ShardedTtkv::with_seal_threshold(config.shards, config.seal_threshold);
    let mut report = ingest_live(machines, config, &sharded, options)?;

    let merge_started = Stopwatch::start();
    let store = sharded.into_ttkv();
    report.merge_elapsed = merge_started.elapsed();
    Ok((store, report))
}

/// Streams every machine into a **caller-owned** live store, invoking `tap`
/// on every accepted batch; returns when all machines are ingested.
///
/// Unlike [`ingest`], the shards are *not* merged when ingestion completes:
/// the caller keeps the [`ShardedTtkv`] live, reads it through
/// [`ShardedTtkv::snapshot_store`] at any moment — including while this
/// function is still running on another thread — and decides itself when
/// (or whether) to [`ShardedTtkv::into_ttkv`]. This is the entry point the
/// repair service tier uses: ingestion keeps flowing while repair sessions
/// pin snapshots (the returned report's `merge_elapsed` is therefore zero).
///
/// The batch size, placement, precision and worker count come from
/// `config`; the shard count comes from `sharded` itself. Pass `&()` as the
/// tap to observe nothing.
///
/// # Examples
///
/// ```
/// use ocasta_fleet::{ingest_into, FleetConfig, MachineSpec, ShardedTtkv};
/// use ocasta_trace::WorkloadSpec;
///
/// let mut spec = WorkloadSpec::new("app");
/// spec.churn_keys = 2;
/// spec.churn_writes_per_day = 1.0;
/// let machines = vec![MachineSpec::new("m0", 5, 1, vec![spec])];
/// let sharded = ShardedTtkv::new(4);
/// let report = ingest_into(&machines, &FleetConfig::default(), &sharded, &());
/// // The store stays live: snapshot it, keep ingesting, or merge now.
/// assert_eq!(sharded.snapshot_store().stats().writes, report.mutations);
/// ```
pub fn ingest_into(
    machines: &[MachineSpec],
    config: &FleetConfig,
    sharded: &ShardedTtkv,
    tap: &dyn IngestTap,
) -> FleetReport {
    let options = IngestOptions {
        tap: Some(tap),
        ..IngestOptions::default()
    };
    match ingest_live(machines, config, sharded, options) {
        Ok(report) => report,
        // lint:allow(panic-in-worker-path): caller-facing infallible wrapper — absent a WAL lane or fault plan only an engine bug reaches Err, and surfacing that bug as a caller panic (never on a worker thread) is the intent
        Err(e) => unreachable!("no WAL lane, no fault plan: {e}"),
    }
}

/// One message on the WAL lane: a frame a worker encoded, to append, or an
/// instruction from the retention sweeper to compact the log pruned to a
/// horizon — either incrementally (`Compact`, a mid-run delta layer,
/// O(delta)) or as a full fold (`Rebase`, the sweeper's final message,
/// leaving one pruned base on disk). All are handled by the single
/// appender, which is what keeps the `Wal` single-owner and the compaction
/// off the ingest workers' hot path.
enum WalMsg {
    Frame(EncodedFrame),
    Compact(Timestamp),
    Rebase(Timestamp),
}

/// The worker-pool engine behind every public ingest entry point: drives
/// all machines into the **caller-owned** `sharded` store, with whatever
/// [`IngestOptions`] instrumentation the caller wants, plus the retention
/// sweeper when `config.retention` is set. The shards are not merged —
/// `merge_elapsed` is zero; the caller snapshots or merges when it
/// pleases.
///
/// # Errors
///
/// Returns the first [`IngestError`] the run hits. A WAL failure on the
/// appender lane leaves the store usable (ingestion still runs to
/// completion; the WAL may be truncated). A panicked worker — injected via
/// [`FaultPlan::kill_worker_at_machine`] or a genuine bug — loses exactly
/// that worker's current machine: the queue keeps draining on the
/// surviving workers, stat locks tolerate the poison, the WAL lane and
/// sweeper shut down in the normal order, and the first failure is
/// returned as [`IngestError::WorkerPanicked`]. The caller-owned `sharded`
/// store holds everything the surviving machines applied.
pub fn ingest_live(
    machines: &[MachineSpec],
    config: &FleetConfig,
    sharded: &ShardedTtkv,
    options: IngestOptions<'_>,
) -> Result<FleetReport, IngestError> {
    let IngestOptions {
        wal,
        tap,
        guard,
        metrics,
        faults,
    } = options;
    let threads = config.ingest_threads.max(1);
    let started = Stopwatch::start();

    // Work queue of machine indices.
    let (work_tx, work_rx) = mpsc::channel::<usize>();
    for idx in 0..machines.len() {
        if work_tx.send(idx).is_err() {
            break;
        }
    }
    drop(work_tx);
    let work_rx = Mutex::new(work_rx);
    // First failure wins; later ones (cascades of the first) are dropped.
    let failure: Mutex<Option<IngestError>> = Mutex::new(None);

    // Optional WAL lane: workers send applied batches, one appender writes.
    let (wal_tx, wal_rx) = mpsc::channel::<WalMsg>();
    let wal_tx = wal.is_some().then_some(wal_tx);

    let per_machine = Mutex::new(vec![0u64; machines.len()]);
    let total_reads = Mutex::new(0u64);
    let ingest_done = AtomicBool::new(false);

    let (wal_result, retention_report): (Result<(), WalError>, Option<RetentionReport>) =
        std::thread::scope(|scope| {
            let precision = config.precision;
            let appender = wal.map(|wal| {
                let crash_after = faults.and_then(|f| f.wal_crash_after_frames);
                scope.spawn(move || -> Result<(), WalError> {
                    // Each lane operation is timed individually (when
                    // instrumented) so the appender's stall profile —
                    // cheap frame appends vs the occasional O(delta)
                    // compaction vs the one O(window) rebase — reads
                    // straight out of the histograms.
                    let mut frames = 0u64;
                    while let Ok(msg) = wal_rx.recv() {
                        if crash_after.is_some_and(|cap| frames >= cap) {
                            // Injected dead lane: what was appended so far
                            // is flushed and durable, everything after —
                            // batches and compactions alike — is silently
                            // dropped, exactly like a lane whose thread
                            // died without anyone noticing.
                            continue;
                        }
                        let started = Stopwatch::start_if(metrics.is_some());
                        match msg {
                            WalMsg::Frame(frame) => {
                                wal.append_frame(&frame)?;
                                frames += 1;
                                if crash_after.is_some_and(|cap| frames >= cap) {
                                    wal.flush()?;
                                }
                                if let (Some(m), Some(sw)) = (metrics, started) {
                                    m.wal_frames.inc();
                                    m.wal_append.record_duration(sw.elapsed());
                                }
                            }
                            WalMsg::Compact(horizon) => {
                                wal.compact_pruned(precision, horizon)?;
                                if let (Some(m), Some(sw)) = (metrics, started) {
                                    m.wal_compact.record_duration(sw.elapsed());
                                }
                            }
                            WalMsg::Rebase(horizon) => {
                                wal.compact_pruned_rebased(precision, horizon)?;
                                if let (Some(m), Some(sw)) = (metrics, started) {
                                    m.wal_rebase.record_duration(sw.elapsed());
                                }
                            }
                        }
                    }
                    if crash_after.is_some_and(|cap| frames >= cap) {
                        // The dead lane never reaches the final flush.
                        return Ok(());
                    }
                    let started = Stopwatch::start_if(metrics.is_some());
                    let flushed = wal.flush();
                    if let (Some(m), Some(sw)) = (metrics, started) {
                        m.wal_flush.record_duration(sw.elapsed());
                    }
                    flushed
                })
            });

            let sweeper = config.retention.map(|policy| {
                let wal_tx = wal_tx.clone();
                let ingest_done = &ingest_done;
                scope.spawn(move || {
                    run_retention_sweeper(
                        policy,
                        sharded,
                        guard,
                        wal_tx,
                        ingest_done,
                        metrics,
                        faults,
                    )
                })
            });

            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    let work_rx = &work_rx;
                    let per_machine = &per_machine;
                    let total_reads = &total_reads;
                    let failure = &failure;
                    let wal_tx = wal_tx.clone();
                    scope.spawn(move || {
                        let shard_count = sharded.shard_count();
                        loop {
                            let machine_idx = {
                                let queue = lock_ignore_poison(work_rx);
                                match queue.recv() {
                                    Ok(idx) => idx,
                                    Err(_) => break,
                                }
                            };
                            let Some(machine) = machines.get(machine_idx) else {
                                record_failure(
                                    failure,
                                    IngestError::InvariantViolated {
                                        message: format!(
                                            "work queue produced machine index {machine_idx}, \
                                             but the fleet has {} machines",
                                            machines.len()
                                        ),
                                    },
                                );
                                continue;
                            };
                            // One machine's span is a unit of failure: a
                            // panic inside it (injected or real) loses that
                            // machine's remaining ops and nothing else —
                            // this worker records the failure and goes back
                            // to the queue, so the rest of the fleet still
                            // ingests and the caller gets a structured
                            // error instead of a poisoned-lock cascade.
                            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                || -> Result<_, IngestError> {
                                    if faults.and_then(|f| f.kill_worker_at_machine)
                                        == Some(machine_idx)
                                    {
                                        // lint:allow(panic-in-worker-path): deliberate fault injection — the VOPR worker-kill fault is a real panic by design
                                        panic!(
                                            "fault injection: worker killed at machine index \
                                             {machine_idx}"
                                        );
                                    }
                                    let mut batches: Vec<Vec<TraceOp>> = (0..shard_count)
                                        .map(|_| Vec::with_capacity(config.batch_size))
                                        .collect();
                                    let mut mutations = 0u64;
                                    let mut reads = 0u64;
                                    for op in machine.stream() {
                                        let op = place(op, machine, config.placement);
                                        let op = quantized(op, config.precision);
                                        match &op {
                                            TraceOp::Mutation(_) => mutations += 1,
                                            TraceOp::Reads(_, count) => reads += count,
                                        }
                                        let shard = sharded.shard_of(op.key().as_str());
                                        let Some(bucket) = batches.get_mut(shard) else {
                                            return Err(IngestError::InvariantViolated {
                                                message: format!(
                                                    "shard_of returned {shard}, but the store \
                                                     has {shard_count} shards"
                                                ),
                                            });
                                        };
                                        bucket.push(op);
                                        if bucket.len() >= config.batch_size {
                                            let batch = std::mem::replace(
                                                bucket,
                                                Vec::with_capacity(config.batch_size),
                                            );
                                            // The tap fires outside the shard lock
                                            // (it can slow this worker, never a
                                            // stripe) and strictly *after* the
                                            // apply: anything a tap consumer has
                                            // observed is already readable in the
                                            // store, so a live snapshot pinned
                                            // after a lane drain always contains
                                            // the drained events (§5.8). The clone
                                            // is tap-path-only.
                                            let tapped = tap.map(|_| batch.clone());
                                            append_with_wal(
                                                sharded,
                                                shard,
                                                batch,
                                                wal_tx.as_ref(),
                                                metrics,
                                            )?;
                                            if let (Some(tap), Some(batch)) = (tap, tapped) {
                                                tap.on_batch(shard, &batch);
                                            }
                                        }
                                    }
                                    for (shard, batch) in batches.into_iter().enumerate() {
                                        if batch.is_empty() {
                                            continue;
                                        }
                                        let tapped = tap.map(|_| batch.clone());
                                        append_with_wal(
                                            sharded,
                                            shard,
                                            batch,
                                            wal_tx.as_ref(),
                                            metrics,
                                        )?;
                                        if let (Some(tap), Some(batch)) = (tap, tapped) {
                                            tap.on_batch(shard, &batch);
                                        }
                                    }
                                    Ok((mutations, reads))
                                },
                            ));
                            match outcome {
                                Ok(Ok((mutations, reads))) => {
                                    // Scope the per-machine guard so it is
                                    // released before the failure slot (or
                                    // any other lock) can be taken.
                                    let recorded = {
                                        let mut slots = lock_ignore_poison(per_machine);
                                        match slots.get_mut(machine_idx) {
                                            Some(slot) => {
                                                *slot = mutations;
                                                true
                                            }
                                            None => false,
                                        }
                                    };
                                    if !recorded {
                                        record_failure(
                                            failure,
                                            IngestError::InvariantViolated {
                                                message: format!(
                                                    "per-machine slot {machine_idx} missing \
                                                     ({} machines)",
                                                    machines.len()
                                                ),
                                            },
                                        );
                                    }
                                    *lock_ignore_poison(total_reads) += reads;
                                }
                                Ok(Err(error)) => record_failure(failure, error),
                                Err(payload) => record_failure(
                                    failure,
                                    IngestError::WorkerPanicked {
                                        machine: Some(machine.name.clone()),
                                        message: panic_message(payload),
                                    },
                                ),
                            }
                        }
                    })
                })
                .collect();
            for worker in workers {
                if let Err(payload) = worker.join() {
                    record_failure(
                        &failure,
                        IngestError::WorkerPanicked {
                            machine: None,
                            message: panic_message(payload),
                        },
                    );
                }
            }
            // Ingestion is complete (or as complete as the failures left
            // it): let the sweeper run its final sweep and exit, then
            // close our WAL sender so the appender sees EOF after the last
            // compaction instruction — the same shutdown order whether or
            // not a worker died.
            ingest_done.store(true, Ordering::Release);
            let retention_report = sweeper.and_then(|s| match s.join() {
                Ok(report) => Some(report),
                Err(payload) => {
                    record_failure(
                        &failure,
                        IngestError::WorkerPanicked {
                            machine: None,
                            message: format!("retention sweeper: {}", panic_message(payload)),
                        },
                    );
                    None
                }
            });
            drop(wal_tx);
            let wal_result = match appender {
                Some(handle) => match handle.join() {
                    Ok(result) => result,
                    Err(payload) => {
                        record_failure(
                            &failure,
                            IngestError::WorkerPanicked {
                                machine: None,
                                message: format!("wal appender: {}", panic_message(payload)),
                            },
                        );
                        Ok(())
                    }
                },
                None => Ok(()),
            };
            (wal_result, retention_report)
        });

    let ingest_elapsed = started.elapsed();
    let per_machine_counts = per_machine
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mutations: u64 = per_machine_counts.iter().sum();
    let reads = total_reads
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());

    let report = FleetReport {
        machines: machines.len(),
        mutations,
        reads,
        shards: sharded.shard_count(),
        threads,
        ingest_elapsed,
        merge_elapsed: Duration::ZERO,
        per_machine: machines
            .iter()
            .map(|m| m.name.clone())
            .zip(per_machine_counts)
            .collect(),
        retention: retention_report,
    };
    if let Some(error) = failure
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
    {
        return Err(error);
    }
    wal_result?;
    Ok(report)
}

/// Applies one batch to its shard, logging it first when a WAL lane is
/// open.
///
/// The frame is encoded here, on the ingest worker and outside any lock,
/// so stripe-lock hold time and the single appender see only a byte
/// buffer; the send itself happens under the shard lock so the log's
/// per-shard order equals apply order.
fn append_with_wal(
    sharded: &ShardedTtkv,
    shard: usize,
    batch: Vec<TraceOp>,
    wal_tx: Option<&mpsc::Sender<WalMsg>>,
    metrics: Option<&FleetMetrics>,
) -> Result<(), IngestError> {
    let frame = match wal_tx {
        Some(_) => {
            let started = Stopwatch::start_if(metrics.is_some());
            let frame = EncodedFrame::encode(&batch).map_err(IngestError::Wal)?;
            if let (Some(m), Some(sw)) = (metrics, started) {
                m.wal_encode.record_duration(sw.elapsed());
            }
            Some(frame)
        }
        None => None,
    };
    sharded.append_batch_observed(
        shard,
        batch,
        |_| {
            if let (Some(tx), Some(frame)) = (wal_tx, frame) {
                let _ = tx.send(WalMsg::Frame(frame));
            }
        },
        metrics,
    );
    Ok(())
}

/// Locks a mutex, accepting a poisoned one: the panic that poisoned it is
/// reported through the engine's failure slot, so the data (simple
/// counters and an error slot) is still sound to read.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Stores `error` into the shared failure slot unless an earlier failure
/// already claimed it — later failures are usually cascades of the first.
fn record_failure(slot: &Mutex<Option<IngestError>>, error: IngestError) {
    let mut slot = lock_ignore_poison(slot);
    if slot.is_none() {
        *slot = Some(error);
    }
}

/// The retention sweep loop: while ingestion runs, watch the ingest
/// frontier and prune shards + compact the WAL whenever the horizon has
/// advanced by at least the policy's `min_interval` — always clamped to
/// the guard's live pins. A final sweep runs once ingestion completes, so
/// the post-run store is pruned to exactly `frontier − retain` (modulo
/// pins) regardless of timing. The final sweep also collects dead
/// counter-only shells ([`ShardedTtkv::gc_dead_shells`]) — mid-run sweeps
/// deliberately leave shells in place so a straggler rewriting a pruned
/// key keeps its lifetime counters.
fn run_retention_sweeper(
    policy: RetentionPolicy,
    sharded: &ShardedTtkv,
    guard: Option<&HorizonGuard>,
    wal_tx: Option<mpsc::Sender<WalMsg>>,
    ingest_done: &AtomicBool,
    metrics: Option<&FleetMetrics>,
    faults: Option<&FaultPlan>,
) -> RetentionReport {
    let mut report = RetentionReport::default();
    let mut last_horizon = Timestamp::EPOCH;
    // Attempts (not just executed sweeps) are paced at `min_interval`: a
    // pin can hold the granted horizon still while the frontier advances,
    // and neither the clamp traffic nor the `clamped` tally should scale
    // with the poll rate.
    let mut last_attempt = Timestamp::EPOCH;
    loop {
        // Injected crash: stop before sweep N + 1 would run, skipping the
        // finishing rebase-and-collect too — the store and WAL are left
        // exactly as a sweeper that died mid-retention would leave them.
        if let Some(stop) = faults.and_then(|f| f.sweeper_stop_after) {
            if report.sweeps >= stop {
                return report;
            }
        }
        let finishing = ingest_done.load(Ordering::Acquire);
        let target = sharded
            .last_mutation_time()
            .map(|frontier| frontier.saturating_sub(policy.retain))
            .unwrap_or(Timestamp::EPOCH);
        // Mid-run sweeps respect the pacing interval. The final sweep runs
        // whenever any horizon stands — even an unchanged one: machine-
        // granular scheduling lets a lagging machine apply pre-horizon
        // events *after* a mid-run sweep, and with every worker done, one
        // re-prune at the standing horizon collapses those stragglers and
        // makes the post-run state equal prune(horizon) of the complete
        // history (the prune/absorb commutation property).
        let goal = if finishing {
            target.max(last_horizon)
        } else {
            target
        };
        let due = if finishing {
            goal > Timestamp::EPOCH
        } else {
            goal >= last_attempt + policy.min_interval && goal > Timestamp::EPOCH
        };
        let mut swept_now = false;
        if due {
            last_attempt = goal;
            let horizon = guard.map_or(goal, |g| g.clamp(goal));
            if horizon < goal {
                report.clamped += 1;
                if let Some(m) = metrics {
                    m.pin_clamps.inc();
                }
            }
            if horizon > Timestamp::EPOCH && (horizon > last_horizon || finishing) {
                let sweep_started = Stopwatch::start_if(metrics.is_some());
                let stats = sharded.prune_before_observed(horizon, metrics);
                if let (Some(m), Some(sw)) = (metrics, sweep_started) {
                    m.sweep_stall.record_duration(sw.elapsed());
                    m.sweeps.inc();
                    m.sweep_reclaimed_versions.add(stats.pruned_versions);
                    m.sweep_reclaimed_bytes.add(stats.reclaimed_bytes);
                }
                report.reclaimed.absorb(stats);
                if let Some(tx) = &wal_tx {
                    // Mid-run sweeps layer a delta (O(delta) on the
                    // appender); the final sweep folds the whole chain so
                    // a finished run leaves one pruned base on disk.
                    let _ = tx.send(if finishing {
                        WalMsg::Rebase(horizon)
                    } else {
                        WalMsg::Compact(horizon)
                    });
                    swept_now = true;
                }
                report.sweeps += 1;
                report.horizon = Some(horizon);
                last_horizon = horizon;
            }
        }
        if finishing {
            // If the final iteration did not itself compact (the horizon
            // was pinned still, or nothing was ever due), one last rebase
            // truncates the log tail accumulated since the previous sweep
            // and folds any delta chain, so the post-run disk footprint is
            // the pruned snapshot alone. Skipped when a Rebase was just
            // sent — it would fold the fresh base to no effect.
            if !swept_now {
                if let Some(tx) = &wal_tx {
                    let _ = tx.send(WalMsg::Rebase(last_horizon));
                }
            }
            // The run is over: nothing can rewrite a pruned key anymore,
            // so counter-only shells are dead weight — collect them. The
            // WAL side does the same inside its final forced rebase, which
            // keeps replay == store.
            if last_horizon > Timestamp::EPOCH {
                report.shells = sharded.gc_dead_shells();
            }
            return report;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Applies the key-placement policy to one op.
fn place(op: TraceOp, machine: &MachineSpec, placement: KeyPlacement) -> TraceOp {
    match placement {
        KeyPlacement::Merged => op,
        KeyPlacement::PerMachine => match op {
            TraceOp::Mutation(mut event) => {
                event.key = prefixed(&machine.name, &event.key);
                TraceOp::Mutation(event)
            }
            TraceOp::Reads(key, count) => TraceOp::Reads(prefixed(&machine.name, &key), count),
        },
    }
}

fn prefixed(machine: &str, key: &Key) -> Key {
    Key::new(format!("{machine}/{key}"))
}

/// Ingests sequentially on the calling thread with a single shard —
/// the reference implementation the concurrency tests compare against.
pub fn ingest_sequential(machines: &[MachineSpec], config: &FleetConfig) -> Ttkv {
    let mut store = Ttkv::new();
    for machine in machines {
        for op in machine.stream() {
            let op = place(op, machine, config.placement);
            quantized(op, config.precision).apply(&mut store, TimePrecision::Milliseconds);
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocasta_trace::{KeySpec, SettingGroup, ValueKind};

    pub(crate) fn tiny_fleet(machines: usize, days: u64) -> Vec<MachineSpec> {
        (0..machines)
            .map(|i| {
                let mut spec = WorkloadSpec::new(format!("app{}", i % 3));
                spec.sessions_per_day = 1.5;
                spec.reads_per_session = 8;
                spec.static_keys = 6;
                spec.churn_keys = 2;
                spec.churn_writes_per_day = 0.4;
                spec.groups.push(SettingGroup::new(
                    "pair",
                    vec![
                        KeySpec::new("flag", ValueKind::Toggle { initial: false }),
                        KeySpec::new("level", ValueKind::IntRange { min: 1, max: 9 }),
                    ],
                    0.3,
                ));
                MachineSpec::new(format!("m{i:02}"), days, 1_000 + i as u64, vec![spec])
            })
            .collect()
    }

    #[test]
    fn ingest_produces_a_nonempty_consistent_store() {
        let machines = tiny_fleet(6, 10);
        let config = FleetConfig {
            shards: 4,
            ingest_threads: 3,
            batch_size: 32,
            precision: TimePrecision::Milliseconds,
            placement: KeyPlacement::PerMachine,
            retention: None,
            seal_threshold: 64,
        };
        let (store, report) = ingest(&machines, &config);
        assert_eq!(report.machines, 6);
        assert!(report.mutations > 0);
        assert_eq!(
            store.stats().writes + store.stats().deletes,
            report.mutations
        );
        assert_eq!(store.stats().reads, report.reads);
        assert_eq!(report.per_machine.len(), 6);
        assert!(report.per_machine.iter().all(|(_, n)| *n > 0));
        // Per-machine placement: every machine owns a key subtree.
        for (name, _) in &report.per_machine {
            let prefix = Key::new(name.clone());
            assert!(store.keys_under(&prefix).next().is_some(), "{name}");
        }
    }

    #[test]
    fn tap_sees_every_mutation_the_store_accepts() {
        use crate::tap::WriteLanes;
        let machines = tiny_fleet(4, 8);
        let config = FleetConfig {
            shards: 4,
            ingest_threads: 2,
            batch_size: 16,
            ..FleetConfig::default()
        };
        let lanes = WriteLanes::new(config.shards);
        let (store, report) = ingest_tapped(&machines, &config, &lanes);
        let drained = lanes.drain();
        assert_eq!(drained.len() as u64, report.mutations);
        assert_eq!(
            store.stats().writes + store.stats().deletes,
            drained.len() as u64
        );
        // The tap sees quantised timestamps — what the store sees.
        assert!(drained.iter().all(|(_, t)| t.as_millis() % 1_000 == 0));
    }

    #[test]
    fn ingest_into_keeps_the_store_live_and_matches_ingest() {
        let machines = tiny_fleet(5, 12);
        let config = FleetConfig {
            shards: 4,
            ingest_threads: 2,
            batch_size: 16,
            // Disjoint key spaces keep the cross-run equality assertion
            // free of same-key timestamp-tie ordering races.
            placement: KeyPlacement::PerMachine,
            ..FleetConfig::default()
        };
        let sharded = ShardedTtkv::new(config.shards);
        // Snapshot the live store while ingestion runs on another thread.
        let (report, mid_snapshots) = std::thread::scope(|scope| {
            let handle = scope.spawn(|| ingest_into(&machines, &config, &sharded, &()));
            let mut mid = Vec::new();
            while !handle.is_finished() {
                mid.push(sharded.snapshot_store().stats().writes);
                // A snapshot per iteration is the point; spinning without
                // yielding on a small CI host is not.
                std::thread::sleep(Duration::from_millis(1));
            }
            (handle.join().expect("ingest panicked"), mid)
        });
        assert_eq!(report.merge_elapsed, Duration::ZERO);
        assert!(mid_snapshots.windows(2).all(|w| w[0] <= w[1]), "monotone");
        // The caller-owned store ends up exactly where `ingest` would.
        let live = sharded.snapshot_store();
        assert_eq!(live, sharded.into_ttkv());
        let (batch_store, batch_report) = ingest(&machines, &config);
        assert_eq!(report.mutations, batch_report.mutations);
        assert_eq!(live, batch_store);
    }

    #[test]
    fn report_renders() {
        let machines = tiny_fleet(2, 3);
        let (_, report) = ingest(&machines, &FleetConfig::default());
        let text = report.to_string();
        assert!(text.contains("2 machines"), "{text}");
        assert!(text.contains("events/s"), "{text}");
        assert!(report.retention.is_none());
    }

    #[test]
    fn retention_bounds_the_store_and_preserves_post_horizon_queries() {
        let machines = tiny_fleet(4, 30);
        let base = FleetConfig {
            shards: 4,
            ingest_threads: 2,
            batch_size: 32,
            placement: KeyPlacement::PerMachine,
            ..FleetConfig::default()
        };
        let (reference, _) = ingest(&machines, &base);

        let config = FleetConfig {
            retention: Some(RetentionPolicy {
                retain: TimeDelta::from_days(7),
                min_interval: TimeDelta::from_days(2),
            }),
            ..base
        };
        let (pruned, report) = ingest(&machines, &config);
        let retention = report.retention.expect("policy was set");
        assert!(retention.sweeps > 0, "{retention:?}");
        assert!(retention.reclaimed.pruned_versions > 0);
        // The final sweep lands exactly at frontier − retain.
        let frontier = reference.last_mutation_time().expect("events exist");
        let horizon = retention.horizon.expect("swept");
        assert_eq!(horizon, frontier.saturating_sub(TimeDelta::from_days(7)));
        assert!(pruned.approx_bytes() < reference.approx_bytes());
        // Every post-horizon query is intact. (A GC'd dead shell answers
        // None on both sides: it was dead at the horizon by definition.)
        for key in reference.keys() {
            assert_eq!(
                pruned.value_at(key.as_str(), horizon),
                reference.value_at(key.as_str(), horizon),
                "{key} at the horizon"
            );
            assert_eq!(
                pruned.current(key.as_str()),
                reference.current(key.as_str()),
                "{key} current"
            );
        }
        assert_eq!(
            pruned.snapshot_at(frontier),
            reference.snapshot_at(frontier)
        );
        // Stronger: sweeps compose (prune(h1); prune(h2) == prune(h2)) and
        // commute with late appends, so the retained store is *exactly*
        // the reference pruned at the final horizon — regardless of how
        // many sweeps ran or how they interleaved with ingestion. The
        // final sweep also collects dead counter-only shells.
        let mut expected = reference.clone();
        expected.prune_before(horizon);
        let shells = expected.gc_dead_shells();
        assert_eq!(pruned, expected);
        assert_eq!(retention.shells, shells);
        // Lifetime counters of surviving keys are intact.
        assert_eq!(pruned.stats().writes, expected.stats().writes);
        assert_eq!(pruned.stats().reads, expected.stats().reads);
        let text = report.to_string();
        assert!(text.contains("retention:"), "{text}");
    }

    #[test]
    fn retention_sweeps_clamp_to_live_pins() {
        use ocasta_ttkv::HorizonGuard;
        let machines = tiny_fleet(3, 20);
        let config = FleetConfig {
            shards: 4,
            ingest_threads: 2,
            batch_size: 32,
            // Disjoint key spaces keep the cross-run equality assertion
            // free of same-key timestamp-tie ordering races.
            placement: KeyPlacement::PerMachine,
            retention: Some(RetentionPolicy {
                retain: TimeDelta::from_days(2),
                min_interval: TimeDelta::from_days(1),
            }),
            ..FleetConfig::default()
        };
        let guard = HorizonGuard::new();
        // A reader pinned at the epoch: nothing may ever be pruned.
        let pin = guard.pin(Timestamp::EPOCH);
        let sharded = ShardedTtkv::new(config.shards);
        let options = IngestOptions {
            guard: Some(&guard),
            ..IngestOptions::default()
        };
        let report = ingest_live(&machines, &config, &sharded, options).expect("no wal, no errors");
        let retention = report.retention.expect("policy was set");
        assert_eq!(retention.sweeps, 0, "every sweep clamped to the pin");
        assert!(retention.clamped > 0, "sweeps were attempted");
        // The full history survived under the pin.
        let store = sharded.into_ttkv();
        let (unpruned, _) = ingest(
            &machines,
            &FleetConfig {
                retention: None,
                ..config
            },
        );
        assert_eq!(store, unpruned);
        drop(pin);
    }

    #[test]
    fn retention_with_wal_keeps_log_and_replay_bounded() {
        let machines = tiny_fleet(3, 24);
        let dir = std::env::temp_dir().join(format!("ocasta-retention-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = FleetConfig {
            shards: 4,
            ingest_threads: 2,
            batch_size: 32,
            placement: KeyPlacement::PerMachine,
            retention: Some(RetentionPolicy {
                retain: TimeDelta::from_days(6),
                min_interval: TimeDelta::from_days(2),
            }),
            ..FleetConfig::default()
        };
        let mut wal = Wal::open(&dir).unwrap();
        let (store, report) = ingest_with_wal(&machines, &config, &mut wal).unwrap();
        let retention = report.retention.expect("policy was set");
        assert!(retention.sweeps > 0);
        let horizon = retention.horizon.expect("swept");
        // Mid-run sweeps layer deltas; the sweeper's final rebase folds
        // the chain, so a finished run holds one pruned base + manifest.
        assert_eq!(wal.delta_layers(), 0, "final sweep rebases the chain");
        assert_eq!(wal.log_bytes(), 0, "log truncated by the final sweep");

        // Replay serves the same post-horizon state as the live store.
        let replayed = wal.replay(config.precision).unwrap();
        for key in store.keys() {
            assert_eq!(
                replayed.value_at(key.as_str(), horizon),
                store.value_at(key.as_str(), horizon),
                "{key}"
            );
        }
        assert_eq!(replayed.stats().writes, store.stats().writes);

        // The compacted snapshot is bounded: a no-retention run of the same
        // fleet snapshots strictly larger.
        let precision = config.precision;
        let nr_dir = dir.join("no-retention");
        let mut nr_wal = Wal::open(&nr_dir).unwrap();
        let nr_config = FleetConfig {
            retention: None,
            ..config
        };
        ingest_with_wal(&machines, &nr_config, &mut nr_wal).unwrap();
        nr_wal.compact(precision).unwrap();
        // The retained side needs no extra folding: the sweeper's final
        // rebase already left a single pruned base, so the comparison is
        // snapshot-to-snapshot as-is.
        let bounded = wal.snapshot_bytes() + wal.log_bytes();
        let unbounded = nr_wal.snapshot_bytes() + nr_wal.log_bytes();
        assert!(bounded < unbounded, "{bounded} vs {unbounded}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
