//! The workloads and the run loop.
//!
//! Every round drives the whole Ocasta loop through the public API, at the
//! paper's scale, as one closed loop with a single client (each call starts
//! when the previous one returns):
//!
//! 1. **record** — 29 machines × 40 days of all 11 application models
//!    stream into a WAL-backed sharded store under the production engine
//!    defaults, and the WAL directory is recovered;
//! 2. **cluster** — a second 29 × 40-day fleet's mutation feed is absorbed
//!    by the streaming clustering in machine-interleaved 512-event batches,
//!    with a clustering query after every tenth of it;
//! 3. **repair** — each of the 16 Table III errors goes through the repair
//!    service, one call per error.
//!
//! The two workloads differ only in the record stage's retention: off for
//! `ingest`, seven days for `ingest-retain`. Every round therefore yields
//! every end-to-end metric.
//!
//! The ingest and the repair calls run threads of their own and are timed
//! on the wall clock. One during which the hypervisor stole more than
//! [`CONTENDED_STEAL_SHARE`] of the machine's CPU time is contended: its
//! timing is left out of the metrics (and counted in the detail line). If
//! every one was, each counts with the steal taken off its wall.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ocasta::{
    evaluate_all, AccuracySummary, FleetMetrics, Histogram, Registry, ServiceMetrics,
    ServiceObservers, StreamMetrics,
};

use crate::host::{
    on_cpu, peak_rss_mb, reset_peak_rss, steal_s, Fingerprint, Walled, CONTENDED_STEAL_SHARE,
};
use crate::json::{self, Object};
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::stages::{
    ClusterProbes, ClusterStage, RecordProbes, RecordStage, RepairCall, RepairStage, SearchProbe,
};
use crate::stats::{mean, median, summarize, Tally};

/// Days of history the `ingest-retain` workload keeps live.
pub const RETAIN_DAYS: u64 = 7;
/// Repair fleet sets whose sessions `screens_per_fix` averages: the timed
/// pass's, and more repaired once per run, untimed.
pub const SCREENS_FLEETS: u64 = 3;
/// Absorb time each round measures at least (see [`cluster_pass`]).
pub const ABSORB_MIN: Duration = Duration::from_secs(1);
/// The most passes over the feed one round absorbs.
pub const ABSORB_MAX_PASSES: usize = 8;
/// Times set-up is repeated per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Trace days per application for Table II accuracy.
pub const ACCURACY_DAYS: u64 = 45;
/// The paper's overall clustering accuracy, and the tolerance the check
/// allows around it.
pub const PAPER_ACCURACY: (f64, f64) = (88.6, 0.1);

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The record stage keeps all history.
    Ingest,
    /// The record stage keeps [`RETAIN_DAYS`] of history.
    IngestRetain,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "ingest-retain" => Some(Workload::IngestRetain),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::IngestRetain => "ingest-retain",
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured rounds run, at least one round.
    pub seconds: u64,
    /// Attach the metric bundles and report per-layer metrics.
    pub trace: bool,
    /// The source tree the benchmark runs in; scratch files go under it.
    pub root: PathBuf,
}

/// What one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The reported metrics, in declaration order.
    pub metrics: Vec<(Metric, f64)>,
    /// Everything else a reader needs: host, seed, sample summaries,
    /// failures, registry snapshots.
    pub detail: Object,
}

/// The stages of one workload, built from its seed.
struct Stages {
    record: RecordStage,
    cluster: ClusterStage,
    repair: RepairStage,
    /// The other repair fleet sets of [`SCREENS_FLEETS`].
    screens: Vec<RepairStage>,
}

impl Stages {
    fn build(workload: Workload, seed: u64) -> Self {
        // Each stage draws from its own seed range: record machines use
        // base..base+29, the feed base+500..base+529, and repair fleet set
        // k base+1000+200k+10·error+0..8.
        let base = (seed % 1_000_000_000) * 10_000;
        let retain = (workload == Workload::IngestRetain).then_some(RETAIN_DAYS);
        let repair = |k: u64| RepairStage::new(base + 1000 + 200 * k);
        Stages {
            record: RecordStage::new(base, retain),
            cluster: ClusterStage::new(base + 500),
            repair: repair(0),
            screens: (1..SCREENS_FLEETS).map(repair).collect(),
        }
    }
}

/// The metric bundles of a traced run, one registry per stage so the
/// repair service's internal ingest never mixes with the record stage's.
struct Observers {
    record: Registry,
    fleet: FleetMetrics,
    cluster: Registry,
    stream: Arc<StreamMetrics>,
    repair: Registry,
    service: ServiceObservers,
}

impl Observers {
    fn new() -> Self {
        let record = Registry::new();
        let fleet = FleetMetrics::register(&record);
        let cluster = Registry::new();
        let stream = Arc::new(StreamMetrics::register(&cluster));
        let repair = Registry::new();
        let service = ServiceObservers {
            fleet: Some(Arc::new(FleetMetrics::register(&repair))),
            service: Some(Arc::new(ServiceMetrics::register(&repair))),
            stream: Some(Arc::new(StreamMetrics::register(&repair))),
        };
        Observers {
            record,
            fleet,
            cluster,
            stream,
            repair,
            service,
        }
    }
}

/// Samples gathered across rounds.
#[derive(Debug, Default)]
struct Samples {
    /// Mutations and time of each `ingest_live` call.
    ingests: Vec<(u64, Walled)>,
    /// Mutations ingested and WAL directory bytes after each ingest,
    /// summed.
    disk: (f64, f64),
    ingest_mut_per_s: Vec<f64>,
    recover_s: Vec<f64>,
    /// Mutations absorbed and CPU seconds inside `absorb_batch`, summed.
    absorbed: (f64, f64),
    absorb_mevents_per_s: Vec<f64>,
    query_ms: Vec<f64>,
    repair_ms: Vec<f64>,
    /// Summed time of each pass's repair calls.
    repair_passes: Vec<Walled>,
    screens: Vec<f64>,
    /// Timed wall of each round: every call the round times, summed.
    round_s: Vec<f64>,
    /// Peak resident memory of each round, MB.
    peak_rss_mb: Vec<f64>,
    record_ops: u64,
    passes: u64,
    calls: Vec<RepairCall>,
    keys: usize,
    multi_clusters: usize,
    record_probes: Option<RecordProbes>,
    /// What each record op left behind, for run-to-run comparison.
    record_outputs: Vec<String>,
    failures: Vec<String>,
}

impl Samples {
    fn fail(&mut self, tally: &mut Tally, what: String) {
        tally.record(false);
        eprintln!("perfbench: failed op: {what}");
        self.failures.push(what);
    }

    fn check(&mut self, tally: &mut Tally, failure: Option<String>) {
        match failure {
            None => tally.record(true),
            Some(what) => self.fail(tally, what),
        }
    }
}

/// Runs one round: the record op, a cluster pass, and the repair calls.
fn round(
    stages: &Stages,
    scratch: &Path,
    observers: Option<&Observers>,
    probe: bool,
    samples: &mut Samples,
    tally: &mut Tally,
) {
    let peak_resets = reset_peak_rss();
    let timed = record_op(stages, scratch, observers, probe, samples, tally)
        + cluster_pass(stages, observers, samples, tally)
        + repair_pass(stages, observers, samples, tally);
    samples.round_s.push(timed);
    if let Some(peak) = peak_resets.then(peak_rss_mb).flatten() {
        samples.peak_rss_mb.push(peak);
    }
}

/// One record op; returns its timed seconds.
fn record_op(
    stages: &Stages,
    scratch: &Path,
    observers: Option<&Observers>,
    probe: bool,
    samples: &mut Samples,
    tally: &mut Tally,
) -> f64 {
    let dir = scratch.join("wal");
    let result = stages.record.run(&dir, observers.map(|o| &o.fleet), probe);
    let _ = std::fs::remove_dir_all(&dir);
    let op = match result {
        Ok(op) => op,
        Err(e) => {
            samples.fail(tally, format!("record op: {e}"));
            return 0.0;
        }
    };
    let ingest = op.ingest.wall.as_secs_f64();
    let recover: Vec<f64> = op.recover.iter().map(Duration::as_secs_f64).collect();
    samples.ingests.push((op.mutations, op.ingest));
    samples.disk.0 += op.mutations as f64;
    samples.disk.1 += op.disk_bytes as f64;
    samples.ingest_mut_per_s.push(op.mutations as f64 / ingest);
    samples.recover_s.extend(&recover);
    samples.record_ops += 1;
    let mut output = Object::new();
    output.int("mutations", op.mutations);
    output.int("disk_bytes", op.disk_bytes);
    output.str("live", &op.live);
    output.int("dead_keys", op.dead_keys.0);
    output.int("dead_shells", op.dead_keys.1);
    samples.record_outputs.push(output.render());
    samples.check(tally, op.failure);
    if let Some(probes) = op.probes {
        samples.check(tally, probes.failure.clone());
        samples.record_probes = Some(probes);
    }
    ingest + recover.iter().sum::<f64>()
}

/// One pass over the cluster feed; returns its timed seconds.
fn cluster_pass(
    stages: &Stages,
    observers: Option<&Observers>,
    samples: &mut Samples,
    tally: &mut Tally,
) -> f64 {
    let pass = stages.cluster.run(observers.map(|o| o.stream.clone()));
    let mutations = stages.cluster.mutations as f64;
    // Absorbing the feed takes a fraction of a second; absorb-only passes
    // top the round up to ABSORB_MIN of absorb time.
    let mut absorbs = vec![pass.absorb];
    while absorbs.len() < ABSORB_MAX_PASSES && absorbs.iter().sum::<Duration>() < ABSORB_MIN {
        absorbs.push(stages.cluster.absorb_only());
    }
    for absorb in &absorbs {
        samples.absorbed.0 += mutations;
        samples.absorbed.1 += absorb.as_secs_f64();
        samples
            .absorb_mevents_per_s
            .push(mutations / absorb.as_secs_f64() / 1e6);
    }
    samples.query_ms.extend(&pass.query_ms);
    samples.keys = pass.keys;
    samples.multi_clusters = pass.multi_clusters;
    samples.passes += 1;
    samples.check(tally, pass.failure);
    absorbs.iter().sum::<Duration>().as_secs_f64() + pass.query_ms.iter().sum::<f64>() / 1e3
}

/// One repair call per error; returns the calls' summed seconds.
fn repair_pass(
    stages: &Stages,
    observers: Option<&Observers>,
    samples: &mut Samples,
    tally: &mut Tally,
) -> f64 {
    let no_observers = ServiceObservers::default();
    let service = observers.map_or(&no_observers, |o| &o.service);
    let calls = match stages.repair.run(service) {
        Ok(calls) => calls,
        Err(e) => {
            samples.fail(tally, format!("repair stage: {e}"));
            return 0.0;
        }
    };
    // Outcomes do not depend on timing, so one pass's screenshots stand
    // for the fleet set.
    let first = samples.repair_passes.is_empty();
    let mut pass = Walled::default();
    for call in calls {
        pass.wall += call.time.wall;
        pass.steal_s += call.time.steal_s;
        samples.repair_ms.push(call.time.wall.as_secs_f64() * 1e3);
        check_fixed(&call, first, samples, tally);
        samples.calls.push(call);
    }
    samples.repair_passes.push(pass);
    pass.wall.as_secs_f64()
}

/// One untimed pass over another repair fleet set, for its screenshots.
fn screens_pass(stage: &RepairStage, samples: &mut Samples, tally: &mut Tally) {
    match stage.run(&ServiceObservers::default()) {
        Ok(calls) => {
            for call in &calls {
                check_fixed(call, true, samples, tally);
            }
        }
        Err(e) => samples.fail(tally, format!("repair stage: {e}")),
    }
}

/// Counts the call as an op that must end fixed; adds its screenshots to
/// `screens_per_fix` if `screens` and it did.
fn check_fixed(call: &RepairCall, screens: bool, samples: &mut Samples, tally: &mut Tally) {
    if screens && call.fixed {
        samples.screens.push(call.screens as f64);
    }
    samples.check(
        tally,
        (!call.fixed).then(|| format!("repair of error #{} not fixed", call.scenario_id)),
    );
}

/// Runs `round` once, then again while one more round as long as the last
/// still fits in `budget`.
fn repeat_within(budget: Duration, mut round: impl FnMut()) {
    let started = Instant::now();
    loop {
        let round_started = Instant::now();
        round();
        if started.elapsed() + round_started.elapsed() > budget {
            break;
        }
    }
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// The scratch directory cannot be created.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let steal_at_start = steal_s();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut set_up = || {
        let (built, cpu) = on_cpu(|| Stages::build(config.workload, config.seed));
        setup_s.push(cpu.as_secs_f64());
        built
    };
    let mut stages = set_up();
    for _ in 1..SETUP_REPEATS {
        drop(stages);
        stages = set_up();
    }

    let scratch = config.root.join(".bench_tmp").join(format!(
        "{}-{}",
        std::process::id(),
        config.workload.name()
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let accuracy = AccuracySummary::from_apps(&evaluate_all(ACCURACY_DAYS)).overall_accuracy();
    let (paper, tolerance) = PAPER_ACCURACY;
    samples.check(
        &mut tally,
        ((accuracy - paper).abs() > tolerance)
            .then(|| format!("Table II accuracy {accuracy:.3}% is not {paper} ± {tolerance}")),
    );

    for stage in &stages.screens {
        screens_pass(stage, &mut samples, &mut tally);
    }

    // Warm-up: the record op grows the heap by hundreds of MB; pay its
    // first-touch page faults before the clock starts.
    let mut warmup = Samples::default();
    record_op(&stages, &scratch, None, false, &mut warmup, &mut tally);
    samples.failures.append(&mut warmup.failures);
    let budget = Duration::from_secs(config.seconds);
    let metrics;
    let mut detail = Object::new();
    if config.trace {
        // One untraced round first, as the yardstick for tracing overhead.
        round(&stages, &scratch, None, false, &mut samples, &mut tally);
        let untraced_s = samples.round_s[0];
        let mut traced = Samples::default();
        let observers = Observers::new();
        let mut probe = true;
        repeat_within(budget, || {
            round(
                &stages,
                &scratch,
                Some(&observers),
                probe,
                &mut traced,
                &mut tally,
            );
            probe = false;
        });
        let (gen_s, gen_ops) = drain_streams(&stages.record);
        let cluster_probes = stages.cluster.probe();
        let search_probes = stages.repair.probe();
        for probe in &search_probes {
            traced.check(&mut tally, probe.failure.clone());
        }
        samples.failures.append(&mut traced.failures);
        metrics = per_layer(&Layers {
            samples: &traced,
            observers: &observers,
            untraced_s,
            gen_s,
            gen_ops,
            cluster: &cluster_probes,
            search: &search_probes,
            pass_calls: stages.repair.calls.len(),
        });
        detail.raw("traced_contended", contended_json(&traced));
        let mut registries = Object::new();
        for (name, registry) in [
            ("record", &observers.record),
            ("cluster", &observers.cluster),
            ("repair", &observers.repair),
        ] {
            registries.raw(name, registry.snapshot_json().replace('\n', " "));
        }
        detail.obj("registry", registries);
        detail.obj("traced_samples", sample_summaries(&traced));
    } else {
        repeat_within(budget, || {
            round(&stages, &scratch, None, false, &mut samples, &mut tally)
        });
        metrics = end_to_end(&samples, &setup_s, accuracy);
        detail.raw("contended", contended_json(&samples));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(config.root.join(".bench_tmp"));

    let mut head = Object::new();
    head.str("workload", config.workload.name());
    head.int("seed", config.seed);
    head.int("seconds", config.seconds);
    head.bool("trace", config.trace);
    head.obj("host", Fingerprint::probe(&config.root).to_json());
    if let (Some(start), Some(end)) = (steal_at_start, steal_s()) {
        head.num("steal_s", end - start);
    }
    head.int("rounds", samples.round_s.len() as u64);
    head.raw("setup_s", json::array(&setup_s));
    head.num("failure_share", tally.failure_share());
    head.raw("failures", json::strings(&samples.failures));
    head.obj("samples", sample_summaries(&samples));
    head.num("contended_steal_share", CONTENDED_STEAL_SHARE);
    head.int("screens_sessions", samples.screens.len() as u64);
    head.raw("repair_redrawn", redrawn_json(&stages));
    let trials: usize = samples.calls.iter().map(|c| c.trials).sum();
    let repair_s: f64 = samples
        .calls
        .iter()
        .map(|c| c.time.wall.as_secs_f64())
        .sum();
    head.num("repair_trials_per_s", trials as f64 / repair_s);
    head.num(
        "absorb_mevents_per_s",
        samples.absorbed.0 / samples.absorbed.1 / 1e6,
    );
    head.raw(
        "record_ops",
        format!("[{}]", samples.record_outputs.join(", ")),
    );
    head.raw(
        "repair_pass",
        calls_json(&samples.calls[..samples.calls.len().min(stages.repair.calls.len())]),
    );
    head.extend(detail);
    Ok(Outcome {
        tally,
        metrics,
        detail: head,
    })
}

/// Per repair fleet set, the errors whose fleet was redrawn and the draws
/// each took.
fn redrawn_json(stages: &Stages) -> String {
    let sets: Vec<String> = std::iter::once(&stages.repair)
        .chain(&stages.screens)
        .map(|stage| {
            let errors: Vec<String> = stage
                .redrawn
                .iter()
                .map(|(id, draws)| format!("[{id}, {draws}]"))
                .collect();
            format!("[{}]", errors.join(", "))
        })
        .collect();
    format!("[{}]", sets.join(", "))
}

/// Drains every record-stage machine's event stream once.
fn drain_streams(record: &RecordStage) -> (f64, u64) {
    let started = Instant::now();
    let ops: u64 = record
        .machines
        .iter()
        .map(|machine| machine.stream().count() as u64)
        .sum();
    (started.elapsed().as_secs_f64(), ops)
}

fn end_to_end(samples: &Samples, setup_s: &[f64], accuracy: f64) -> Vec<(Metric, f64)> {
    // Ingest throughput is total work over total time, and recovery time
    // a mean, so every op of the run weighs in by its length. On a host
    // whose speed shifts for seconds at a time, a median follows whichever
    // speed the middle op met; over ten runs of each, the time-weighted
    // figures spread less.
    let ingest_times: Vec<Walled> = samples.ingests.iter().map(|(_, time)| *time).collect();
    let (mut ingested, mut ingest_s) = (0u64, 0.0);
    for (i, seconds) in reported_walls(&ingest_times) {
        ingested += samples.ingests[i].0;
        ingest_s += seconds;
    }
    let repair_s: Vec<f64> = reported_walls(&samples.repair_passes)
        .into_iter()
        .map(|(_, seconds)| seconds)
        .collect();
    let (mutations, disk_bytes) = samples.disk;
    let values = [
        median(setup_s).unwrap_or(f64::NAN),
        ingested as f64 / ingest_s,
        mean(&samples.recover_s).unwrap_or(f64::NAN),
        disk_bytes / mutations,
        median(&samples.peak_rss_mb)
            .or_else(peak_rss_mb)
            .unwrap_or(f64::NAN),
        accuracy,
        median(&repair_s).unwrap_or(f64::NAN),
        mean(&samples.screens).unwrap_or(f64::NAN),
    ];
    END_TO_END.iter().copied().zip(values).collect()
}

/// The seconds to report for wall-timed calls, each with its index: the
/// walls of the uncontended calls, or, if every call was contended, each
/// wall less the steal during it.
fn reported_walls(times: &[Walled]) -> Vec<(usize, f64)> {
    let clean: Vec<(usize, f64)> = times
        .iter()
        .enumerate()
        .filter(|(_, time)| !time.contended())
        .map(|(i, time)| (i, time.wall.as_secs_f64()))
        .collect();
    if clean.is_empty() {
        times
            .iter()
            .enumerate()
            .map(|(i, time)| (i, time.less_steal_s()))
            .collect()
    } else {
        clean
    }
}

/// How many wall-timed samples were contended, of how many, with the
/// steal each saw.
fn contended_json(samples: &Samples) -> String {
    let mut out = Object::new();
    for (name, times) in [
        (
            "ingest",
            samples.ingests.iter().map(|(_, t)| *t).collect::<Vec<_>>(),
        ),
        ("repair_pass", samples.repair_passes.clone()),
    ] {
        let mut entry = Object::new();
        entry.int("samples", times.len() as u64);
        entry.int(
            "contended",
            times.iter().filter(|t| t.contended()).count() as u64,
        );
        let steal: Vec<f64> = times.iter().map(|t| t.steal_s).collect();
        entry.raw("steal_s", json::array(&steal));
        out.obj(name, entry);
    }
    out.render()
}

/// Inputs to the per-layer metrics of a traced run.
struct Layers<'a> {
    samples: &'a Samples,
    observers: &'a Observers,
    untraced_s: f64,
    gen_s: f64,
    gen_ops: u64,
    cluster: &'a ClusterProbes,
    search: &'a [SearchProbe],
    pass_calls: usize,
}

fn per_layer(layers: &Layers<'_>) -> Vec<(Metric, f64)> {
    let samples = layers.samples;
    let fleet = &layers.observers.fleet;
    let ops = samples.record_ops.max(1) as f64;
    // Histograms contribute count and sum only: their quantiles are bucket
    // bounds, not measurements.
    let per_op_s = |h: &Histogram| h.sum_us() as f64 / 1e6 / ops;
    let per_op = |n: u64| n as f64 / ops;
    let record = samples.record_probes.clone().unwrap_or_default();
    let service = layers
        .observers
        .service
        .service
        .as_ref()
        .expect("Observers::new attaches a service bundle");
    let sessions = service.sessions.get().max(1) as f64;
    // One pass's worth of calls: the first traced round.
    let pass = &samples.calls[..samples.calls.len().min(layers.pass_calls)];
    let trials: usize = pass.iter().map(|c| c.trials).sum();
    let trials_to_fix: usize = pass.iter().map(|c| c.trials_to_fix).sum();
    let session_ms: Vec<f64> = samples
        .calls
        .iter()
        .map(|c| c.session.as_secs_f64() * 1e3)
        .collect();
    let ingest_ms: Vec<f64> = samples
        .calls
        .iter()
        .map(|c| c.ingest.as_secs_f64() * 1e3)
        .collect();
    let traced_s = median(&samples.round_s).unwrap_or(f64::NAN);
    let values = [
        layers.gen_s,
        layers.gen_ops as f64,
        per_op_s(&fleet.batch_apply),
        per_op_s(&fleet.lock_wait),
        per_op_s(&fleet.seal_stall),
        per_op(fleet.seals.get()),
        per_op(fleet.ingest_batches.get()),
        per_op_s(&fleet.wal_append),
        per_op(fleet.wal_frames.get()),
        record.wal_log_bytes as f64,
        per_op(fleet.wal_flush.count()),
        record.wal_log_decode_s,
        per_op_s(&fleet.sweep_stall),
        per_op(fleet.sweeps.get()),
        per_op(fleet.sweep_reclaimed_versions.get()),
        per_op(fleet.cow_segments.get()),
        per_op_s(&fleet.wal_compact),
        per_op_s(&fleet.wal_rebase),
        record.pin_epoch_us,
        record.materialize_ms,
        record.persist_encode_s,
        record.persist_decode_s,
        record.v2_bytes as f64,
        record.store_bytes as f64,
        layers.cluster.snapshot_ms,
        layers.cluster.hac_ms,
        layers.cluster.unsealed_events,
        samples.keys as f64,
        layers.cluster.pairs as f64,
        samples.multi_clusters as f64,
        layers.observers.stream.absorb.sum_us() as f64 / 1e6 / samples.passes.max(1) as f64,
        samples.absorbed.0 / samples.absorbed.1 / 1e6,
        median(&samples.query_ms).unwrap_or(f64::NAN),
        layers.search.iter().map(|p| p.sequential_ms).sum(),
        layers.search.iter().map(|p| p.parallel_ms).sum(),
        trials as f64,
        trials_to_fix as f64,
        trials_to_fix as f64 / trials.max(1) as f64,
        median(&session_ms).unwrap_or(f64::NAN),
        median(&ingest_ms).unwrap_or(f64::NAN),
        service.session_open.sum_us() as f64 / 1e6 / sessions,
        service.session_step.sum_us() as f64 / 1e6 / sessions,
        service.pin_advances.get() as f64 / sessions,
        traced_s - layers.untraced_s,
        100.0 * (traced_s / layers.untraced_s - 1.0),
        samples.round_s.len() as f64,
    ];
    PER_LAYER.iter().copied().zip(values).collect()
}

/// One pass of repair calls: error, wall, screenshots and trials each.
fn calls_json(calls: &[RepairCall]) -> String {
    let items: Vec<String> = calls
        .iter()
        .map(|call| {
            let mut item = Object::new();
            item.int("error", call.scenario_id as u64);
            item.num("ms", call.time.wall.as_secs_f64() * 1e3);
            item.bool("fixed", call.fixed);
            item.int("screens", call.screens as u64);
            item.int("trials", call.trials as u64);
            item.int("trials_to_fix", call.trials_to_fix as u64);
            item.render()
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// Count, median and tail of every timing sample set.
fn sample_summaries(samples: &Samples) -> Object {
    let mut out = Object::new();
    let repair_pass_s: Vec<f64> = samples
        .repair_passes
        .iter()
        .map(|pass| pass.wall.as_secs_f64())
        .collect();
    for (name, values) in [
        ("ingest_mut_per_s", &samples.ingest_mut_per_s),
        ("recover_s", &samples.recover_s),
        ("absorb_mevents_per_s", &samples.absorb_mevents_per_s),
        ("cluster_query_ms", &samples.query_ms),
        ("repair_ms", &samples.repair_ms),
        ("repair_pass_s", &repair_pass_s),
        ("round_s", &samples.round_s),
    ] {
        let mut entry = Object::new();
        if let Some(summary) = summarize(values) {
            entry.int("count", summary.count as u64);
            entry.num("p50", summary.p50);
            if let Some((pct, value)) = summary.tail {
                entry.num("tail_pct", pct);
                entry.num("tail", value);
            }
        } else {
            entry.int("count", 0);
        }
        entry.raw("values", json::array(values));
        out.obj(name, entry);
    }
    out
}
