//! The three stages of the Ocasta loop, driven through the public API only.
//!
//! * **record** — a fleet streams into a WAL-backed [`ShardedTtkv`] through
//!   [`fleet_ingest_live`], then the WAL directory is recovered
//!   ([`Wal::open`] + [`Wal::replay`]) and checked equal to the live store;
//! * **cluster** — a fleet's mutation feed is absorbed by an
//!   [`OcastaStream`] in machine-interleaved batches with clustering
//!   queries along the way, and the final partition is checked against the
//!   batch [`cluster_events`] partition of the same events;
//! * **repair** — one [`run_repair_service`] call per Table III error, each
//!   checked to end fixed.
//!
//! Each stage times only the calls into the library; building inputs and
//! checking outputs stay outside the timers. Calls that run on the calling
//! thread alone are timed on its CPU clock ([`on_cpu`]); calls that run
//! threads of their own are timed on the wall clock with the host's steal
//! beside them ([`on_wall`]).

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ocasta::fleet::{fleet_machines, FleetRunConfig};
use ocasta::{
    check_parallel_equals_sequential, cluster_correlations, cluster_events, fleet_ingest_live,
    mutation_feed, parallel_search, prepare_store, run_repair_service_observed, scenarios, search,
    ClusterParams, ErrorScenario, FleetConfig, FleetMetrics, IncrementalCorrelations,
    IngestOptions, Key, MachineSpec, Ocasta, OcastaStream, RepairServiceConfig, RetentionPolicy,
    ScenarioConfig, SearchConfig, ServiceObservers, ShardedTtkv, StreamMetrics, TimeDelta,
    Timestamp, Ttkv, Wal, WalReader, WriteEvent,
};
use ocasta_fleet::ingest_sequential;

use crate::host::{on_cpu, on_wall, Walled};
use crate::stats::median;

/// Machines × days of the record and cluster fleets (the paper's
/// 29-machine study).
pub const FLEET: (usize, u64) = (29, 40);

/// Mutation events per batch the cluster feed delivers (the fleet
/// engine's default batch size).
pub const FEED_BATCH: usize = 512;

/// Clustering queries per pass over the cluster feed, one after every
/// tenth of it.
pub const QUERIES: usize = 10;

/// Fleets drawn per error until one whose final configuration does not
/// already show the error's symptom (see [`RepairStage::new`]); the last
/// draw is kept either way.
pub const REPAIR_DRAWS: u64 = 4;

/// Epoch pins timed per probe.
const PIN_SAMPLES: usize = 64;

/// A record op repeats recovery until this much recovery time is measured
/// (or [`RECOVER_MAX_REPEATS`] is reached), so a recovery of milliseconds
/// is timed as often as one of seconds is timed once.
pub const RECOVER_MIN: Duration = Duration::from_secs(1);
/// The most recoveries one record op times.
pub const RECOVER_MAX_REPEATS: usize = 64;

/// Machine specs for [`FLEET`] of every application, seeded from `seed`
/// (machine `i` uses `seed + i`).
pub fn fleet(seed: u64) -> Vec<MachineSpec> {
    let (machines, days) = FLEET;
    fleet_machines(&FleetRunConfig {
        machines,
        days,
        seed,
        ..FleetRunConfig::default()
    })
    .expect("the full application catalog resolves")
}

// ---------------------------------------------------------------- record

/// The record stage: one fleet, one engine configuration.
#[derive(Debug, Clone)]
pub struct RecordStage {
    /// The machines ingested on every op.
    pub machines: Vec<MachineSpec>,
    /// Engine knobs (the production defaults, retention aside).
    pub engine: FleetConfig,
}

/// One record op: an ingest into a fresh WAL directory, then recovery.
#[derive(Debug)]
pub struct RecordOp {
    /// Mutations the ingest applied.
    pub mutations: u64,
    /// The `ingest_live` call (sweeps and final rebase included).
    pub ingest: Walled,
    /// CPU time of each `Wal::open` + `replay` over the op's directory.
    pub recover: Vec<Duration>,
    /// Bytes in the WAL directory after the ingest.
    pub disk_bytes: u64,
    /// Keys, writes and deletes of the final live store.
    pub live: String,
    /// Keys whose whole history retention reclaimed, and dead key shells
    /// the final sweep collected (zero without retention).
    pub dead_keys: (u64, u64),
    /// `Some(reason)` if the replayed store differs from the live one.
    pub failure: Option<String>,
    /// Layer probes, when requested.
    pub probes: Option<RecordProbes>,
}

/// Single-layer measurements taken on one record op's outputs.
#[derive(Debug, Clone, Default)]
pub struct RecordProbes {
    /// Median `pin_epoch` over the final live shards, µs.
    pub pin_epoch_us: f64,
    /// One `EpochSnapshot::materialize` of that pin, ms.
    pub materialize_ms: f64,
    /// Bytes in the WAL's framed log after the ingest.
    pub wal_log_bytes: u64,
    /// `WalReader::read_all` over that log, s.
    pub wal_log_decode_s: f64,
    /// `Ttkv::save` of the final live store, s.
    pub persist_encode_s: f64,
    /// `Ttkv::load` of those bytes, s.
    pub persist_decode_s: f64,
    /// Size of the binary v2 encoding.
    pub v2_bytes: u64,
    /// `Ttkv::approx_bytes` of the final live store.
    pub store_bytes: u64,
    /// `Some(reason)` if the decoded store differs from the saved one.
    pub failure: Option<String>,
}

impl RecordStage {
    /// [`FLEET`] of every application under the production engine
    /// defaults, optionally with time-based retention.
    pub fn new(seed: u64, retain_days: Option<u64>) -> Self {
        RecordStage {
            machines: fleet(seed),
            engine: FleetConfig {
                retention: retain_days.map(RetentionPolicy::keep_days),
                ..FleetConfig::default()
            },
        }
    }

    /// Ingests the fleet into `dir` (created fresh) and recovers it.
    ///
    /// # Errors
    ///
    /// WAL or ingest failures, which the caller counts as a failed op.
    pub fn run(
        &self,
        dir: &Path,
        metrics: Option<&FleetMetrics>,
        probe: bool,
    ) -> Result<RecordOp, String> {
        let _ = std::fs::remove_dir_all(dir);
        let sharded =
            ShardedTtkv::with_seal_threshold(self.engine.shards, self.engine.seal_threshold);
        let mut wal = Wal::open(dir).map_err(|e| e.to_string())?;
        let options = IngestOptions {
            wal: Some(&mut wal),
            metrics,
            ..IngestOptions::default()
        };
        let (report, ingest) =
            on_wall(|| fleet_ingest_live(&self.machines, &self.engine, &sharded, options));
        let report = report.map_err(|e| e.to_string())?;
        wal.flush().map_err(|e| e.to_string())?;
        drop(wal);
        let disk_bytes = dir_bytes(dir);

        let mut probes = if probe {
            Some(probe_live(&sharded, dir)?)
        } else {
            None
        };

        // The live store is checked through a digest of its canonical v2
        // encoding, so it is gone before recovery starts: recovery's memory
        // is its own, as after a crash.
        let live = sharded.into_ttkv();
        if let Some(probes) = probes.as_mut() {
            probe_persist(&live, probes)?;
        }
        let live_digest = digest(&live)?;
        let live_summary = summary(&live);
        drop(live);

        let mut recover = Vec::new();
        let mut failure = None;
        while recover.len() < RECOVER_MAX_REPEATS && recover.iter().sum::<Duration>() < RECOVER_MIN
        {
            let (replayed, cpu) =
                on_cpu(|| Wal::open(dir).and_then(|mut wal| wal.replay(self.engine.precision)));
            let replayed = replayed.map_err(|e| e.to_string())?;
            recover.push(cpu);
            if recover.len() == 1 && digest(&replayed)? != live_digest {
                failure = Some(format!(
                    "replayed store ({}) != live store ({live_summary})",
                    summary(&replayed)
                ));
            }
        }
        let dead_keys = report
            .retention
            .map_or((0, 0), |r| (r.reclaimed.dead_keys, r.shells));
        Ok(RecordOp {
            mutations: report.mutations,
            ingest,
            recover,
            disk_bytes,
            live: live_summary,
            dead_keys,
            failure,
            probes,
        })
    }
}

fn probe_live(sharded: &ShardedTtkv, dir: &Path) -> Result<RecordProbes, String> {
    let pins: Vec<f64> = (0..PIN_SAMPLES)
        .map(|_| {
            let started = Instant::now();
            let pin = sharded.pin_epoch();
            let us = started.elapsed().as_secs_f64() * 1e6;
            drop(pin);
            us
        })
        .collect();
    let pin = sharded.pin_epoch();
    let started = Instant::now();
    let materialized = pin.materialize();
    let materialize_ms = started.elapsed().as_secs_f64() * 1e3;
    drop((pin, materialized));

    let log = Wal::open(dir).map_err(|e| e.to_string())?.log_path();
    let wal_log_bytes = std::fs::metadata(&log).map_or(0, |m| m.len());
    let started = Instant::now();
    let decoded = match File::open(&log) {
        Ok(file) => WalReader::new(BufReader::new(file))
            .and_then(|mut reader| reader.read_all())
            .map_err(|e| e.to_string())?
            .len(),
        Err(_) => 0,
    };
    let wal_log_decode_s = started.elapsed().as_secs_f64();
    std::hint::black_box(decoded);
    Ok(RecordProbes {
        pin_epoch_us: median(&pins).unwrap_or(0.0),
        materialize_ms,
        wal_log_bytes,
        wal_log_decode_s,
        ..RecordProbes::default()
    })
}

fn probe_persist(live: &Ttkv, probes: &mut RecordProbes) -> Result<(), String> {
    let started = Instant::now();
    let bytes = image(live)?;
    probes.persist_encode_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let loaded = Ttkv::load(bytes.as_slice()).map_err(|e| e.to_string())?;
    probes.persist_decode_s = started.elapsed().as_secs_f64();
    probes.v2_bytes = bytes.len() as u64;
    probes.store_bytes = live.approx_bytes();
    if &loaded != live {
        probes.failure = Some("v2 save/load round trip changed the store".into());
    }
    Ok(())
}

/// The store's binary v2 encoding: equal stores, and only equal stores,
/// encode to equal bytes.
fn image(store: &Ttkv) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    store.save(&mut bytes).map_err(|e| e.to_string())?;
    Ok(bytes)
}

/// FNV-1a (64-bit) of the store's v2 encoding, hashed as it is written so
/// the encoding is never held in memory.
fn digest(store: &Ttkv) -> Result<u64, String> {
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    store.save(&mut hash).map_err(|e| e.to_string())?;
    Ok(hash.0)
}

/// FNV-1a (64-bit) state over everything written to it.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn summary(store: &Ttkv) -> String {
    let stats = store.stats();
    format!(
        "{} keys, {} writes, {} deletes",
        store.len(),
        stats.writes,
        stats.deletes
    )
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|entry| entry.metadata().ok())
                .filter(|meta| meta.is_file())
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0)
}

// --------------------------------------------------------------- cluster

/// The cluster stage: a fleet's mutation feed, pre-cut into the batches a
/// live fleet's analytics lanes deliver.
#[derive(Debug, Clone)]
pub struct ClusterStage {
    /// Machine-interleaved batches of `(key, time)` mutations: up to
    /// [`FEED_BATCH`] events of machine 0, then of machine 1, and so on,
    /// round-robin until every machine is drained.
    pub batches: Vec<Vec<(Key, Timestamp)>>,
    /// Mutations in the feed.
    pub mutations: u64,
    /// The batch pipeline's partition of the feed, computed on first use:
    /// the reference every pass's final partition is checked against.
    batch_partition: OnceCell<Vec<Vec<Key>>>,
}

/// One pass of the cluster stage.
#[derive(Debug, Clone)]
pub struct ClusterPass {
    /// Total CPU time inside `absorb_batch`.
    pub absorb: Duration,
    /// CPU time of each `clustering()` query, ms, in feed order.
    pub query_ms: Vec<f64>,
    /// Keys in the final clustering.
    pub keys: usize,
    /// Multi-setting clusters in the final clustering.
    pub multi_clusters: usize,
    /// `Some(reason)` if the sealed streaming partition differs from the
    /// batch partition of the same events.
    pub failure: Option<String>,
}

/// What a twin [`IncrementalCorrelations`] fed the same events costs at
/// each query point.
#[derive(Debug, Clone, Default)]
pub struct ClusterProbes {
    /// Median `snapshot()` wall, ms.
    pub snapshot_ms: f64,
    /// Median `cluster_correlations` (HAC) wall, ms.
    pub hac_ms: f64,
    /// Median unsealed backlog (events not yet under the watermark).
    pub unsealed_events: f64,
    /// Correlated key pairs at the last query point.
    pub pairs: u64,
}

impl ClusterStage {
    /// The feed of [`FLEET`] of every application.
    pub fn new(seed: u64) -> Self {
        let mut feeds: Vec<std::vec::IntoIter<(Key, Timestamp)>> = fleet(seed)
            .iter()
            .map(|machine| {
                mutation_feed(machine.stream())
                    .collect::<Vec<_>>()
                    .into_iter()
            })
            .collect();
        let mut batches = Vec::new();
        let mut mutations = 0u64;
        loop {
            let mut any = false;
            for feed in &mut feeds {
                let batch: Vec<_> = feed.by_ref().take(FEED_BATCH).collect();
                if !batch.is_empty() {
                    any = true;
                    mutations += batch.len() as u64;
                    batches.push(batch);
                }
            }
            if !any {
                break;
            }
        }
        ClusterStage {
            batches,
            mutations,
            batch_partition: OnceCell::new(),
        }
    }

    /// The feed cut into [`QUERIES`] runs of batches; a query follows
    /// each.
    fn segments(&self) -> impl Iterator<Item = &[Vec<(Key, Timestamp)>]> {
        let n = self.batches.len();
        (1..=QUERIES)
            .map(move |k| &self.batches[((k - 1) * n).div_ceil(QUERIES)..(k * n).div_ceil(QUERIES)])
    }

    /// Absorbs the whole feed into a fresh stream with no queries; returns
    /// the CPU time inside `absorb_batch`.
    pub fn absorb_only(&self) -> Duration {
        let mut stream = OcastaStream::new(&Ocasta::default());
        let ((), absorb) = on_cpu(|| {
            for batch in &self.batches {
                stream.absorb_batch(batch.iter().cloned());
            }
        });
        std::hint::black_box(stream.horizon());
        absorb
    }

    /// Absorbs the whole feed into a fresh stream, querying along the way,
    /// then seals and checks the final partition.
    pub fn run(&self, metrics: Option<Arc<StreamMetrics>>) -> ClusterPass {
        let engine = Ocasta::default();
        let mut stream = OcastaStream::new(&engine);
        if let Some(metrics) = metrics {
            stream.set_metrics(metrics);
        }
        let mut absorb = Duration::ZERO;
        let mut query_ms = Vec::with_capacity(QUERIES);
        for segment in self.segments() {
            let ((), cpu) = on_cpu(|| {
                for batch in segment {
                    stream.absorb_batch(batch.iter().cloned());
                }
            });
            absorb += cpu;
            let (live, cpu) = on_cpu(|| stream.clustering());
            query_ms.push(cpu.as_secs_f64() * 1e3);
            std::hint::black_box(live);
        }
        stream.seal();
        let sealed = stream.clustering().clustering;
        let batch = self
            .batch_partition
            .get_or_init(|| self.batch_partition(&engine));
        let failure = (sealed.clusters() != batch.as_slice()).then(|| {
            format!(
                "stream partition ({} clusters) != batch partition ({} clusters)",
                sealed.len(),
                batch.len()
            )
        });
        ClusterPass {
            absorb,
            query_ms,
            keys: stream.key_count(),
            multi_clusters: sealed.multi_clusters().count(),
            failure,
        }
    }

    /// The batch pipeline's partition of the feed's events, over keys in
    /// sorted order (the streaming pipeline's relabelled index space).
    fn batch_partition(&self, engine: &Ocasta) -> Vec<Vec<Key>> {
        let mut index: BTreeMap<&Key, usize> = BTreeMap::new();
        for (key, _) in self.batches.iter().flatten() {
            index.insert(key, 0);
        }
        let keys: Vec<Key> = index.keys().map(|&k| k.clone()).collect();
        for (rank, slot) in index.values_mut().enumerate() {
            *slot = rank;
        }
        let events: Vec<WriteEvent> = self
            .batches
            .iter()
            .flatten()
            .map(|(key, t)| WriteEvent::new(index[key], engine.precision().apply(*t).as_millis()))
            .collect();
        cluster_events(keys.len(), &events, engine.params())
            .into_iter()
            .map(|cluster| cluster.into_iter().map(|i| keys[i].clone()).collect())
            .collect()
    }

    /// Replays the feed into a bare [`IncrementalCorrelations`] and times
    /// its snapshot and HAC at the same query points a pass uses.
    pub fn probe(&self) -> ClusterProbes {
        let engine = Ocasta::default();
        let params: &ClusterParams = engine.params();
        let mut twin = IncrementalCorrelations::new(params.window_ms);
        let mut items: BTreeMap<&Key, usize> = BTreeMap::new();
        let (mut snapshot_ms, mut hac_ms, mut unsealed) = (Vec::new(), Vec::new(), Vec::new());
        let mut pairs = 0;
        for segment in self.segments() {
            for (key, t) in segment.iter().flatten() {
                let next = items.len();
                let item = *items.entry(key).or_insert(next);
                twin.observe(WriteEvent::new(
                    item,
                    engine.precision().apply(*t).as_millis(),
                ));
            }
            unsealed.push(twin.pending_len() as f64);
            let started = Instant::now();
            let correlations = twin.snapshot();
            snapshot_ms.push(started.elapsed().as_secs_f64() * 1e3);
            let started = Instant::now();
            let partition = cluster_correlations(&correlations, params);
            hac_ms.push(started.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(partition);
            pairs = correlations.correlated_pairs().count() as u64;
        }
        ClusterProbes {
            snapshot_ms: median(&snapshot_ms).unwrap_or(0.0),
            hac_ms: median(&hac_ms).unwrap_or(0.0),
            unsealed_events: median(&unsealed).unwrap_or(0.0),
            pairs,
        }
    }
}

// ---------------------------------------------------------------- repair

/// The repair stage: one repair-service configuration per Table III error.
#[derive(Debug, Clone)]
pub struct RepairStage {
    /// One call per entry, in order.
    pub calls: Vec<RepairServiceConfig>,
    /// Seed for the probe's `prepare_store` traces.
    pub seed: u64,
    /// Errors whose first fleet draw already showed the symptom, with the
    /// draws it took to find one that did not.
    pub redrawn: Vec<(usize, u64)>,
}

/// One `run_repair_service` call.
#[derive(Debug, Clone)]
pub struct RepairCall {
    /// The Table III error repaired.
    pub scenario_id: usize,
    /// The call's wall time and the host's steal meanwhile.
    pub time: Walled,
    /// `true` if the session fixed its error.
    pub fixed: bool,
    /// Unique screenshots examined up to the fix.
    pub screens: usize,
    /// Trials of the exhaustive search.
    pub trials: usize,
    /// Trials up to and including the fixing one.
    pub trials_to_fix: usize,
    /// The session's search wall, as the service reports it.
    pub session: Duration,
    /// The service's fleet-ingest wall, as it reports it.
    pub ingest: Duration,
}

/// Sequential versus 2-thread search over one error's prepared store.
#[derive(Debug, Clone)]
pub struct SearchProbe {
    /// `search` wall, ms.
    pub sequential_ms: f64,
    /// `parallel_search(…, 2)` wall, ms.
    pub parallel_ms: f64,
    /// `Some(reason)` if the two outcomes differ.
    pub failure: Option<String>,
}

impl RepairStage {
    /// One call per Table III error, in id order: one user, the
    /// service's default two search threads, an 8-machine × 14-day fleet
    /// of the error's application, the catalog pinned only after
    /// ingestion ends (so the outcome does not depend on timing), the
    /// service's 7-day start bound, and the paper's tuned parameters where
    /// it tunes them.
    ///
    /// The error must be what breaks the user's configuration. The fleet
    /// of error `id` is drawn from `seed + 10·id + 0..8`; if its final
    /// configuration already shows the symptom (a machine made the
    /// offending change itself, before the search window), the next draw
    /// adds 2000 to the seed, up to [`REPAIR_DRAWS`] draws.
    pub fn new(seed: u64) -> Self {
        let mut redrawn = Vec::new();
        let calls = scenarios()
            .iter()
            .map(|scenario| {
                let first = seed + 10 * scenario.id as u64;
                let mut draw = 0;
                let fleet = loop {
                    let fleet = FleetRunConfig {
                        machines: 8,
                        days: 14,
                        seed: first + 2000 * draw,
                        apps: vec![scenario.app.to_owned()],
                        ..FleetRunConfig::default()
                    };
                    draw += 1;
                    if draw == REPAIR_DRAWS || healthy_before_injection(&fleet, scenario) {
                        break fleet;
                    }
                };
                if draw > 1 {
                    redrawn.push((scenario.id, draw));
                }
                RepairServiceConfig {
                    fleet,
                    users: 1,
                    params: ScenarioConfig::tuned_for(scenario),
                    scenario_ids: vec![scenario.id],
                    min_catalog_events: u64::MAX,
                    start_bound_days: Some(7),
                    ..RepairServiceConfig::default()
                }
            })
            .collect();
        RepairStage {
            calls,
            seed,
            redrawn,
        }
    }

    /// Runs every call once.
    ///
    /// # Errors
    ///
    /// A configuration the service rejects.
    pub fn run(&self, observers: &ServiceObservers) -> Result<Vec<RepairCall>, String> {
        self.calls
            .iter()
            .map(|config| {
                let (run, time) = on_wall(|| run_repair_service_observed(config, observers));
                let run = run?;
                let session = &run.sessions[0];
                let outcome = &session.report.outcome;
                Ok(RepairCall {
                    scenario_id: session.scenario_id,
                    time,
                    fixed: run.fixed_sessions() == run.sessions.len(),
                    screens: outcome.screenshots_to_fix,
                    trials: outcome.total_trials,
                    trials_to_fix: outcome.trials_to_fix.unwrap_or(0),
                    session: session.report.wall,
                    ingest: run.ingest.ingest_elapsed,
                })
            })
            .collect()
    }

    /// Times `search` against `parallel_search(…, 2)` on each error's
    /// prepared store and checks the outcomes agree.
    pub fn probe(&self) -> Vec<SearchProbe> {
        let all = scenarios();
        self.calls
            .iter()
            .map(|call| {
                let id = call.scenario_ids[0];
                let scenario = all.iter().find(|s| s.id == id).expect("resolved in new");
                let config = ScenarioConfig {
                    params: call.params,
                    seed: self.seed,
                    ..ScenarioConfig::default()
                };
                let (store, _inject_at) = prepare_store(scenario, &config);
                let clustering = Ocasta::new(config.params).cluster_store(&store);
                let end = store.last_mutation_time().unwrap_or(Timestamp::EPOCH);
                let search_config = SearchConfig {
                    strategy: config.strategy,
                    window: TimeDelta::from_millis(config.params.window_ms),
                    start_time: config
                        .start_bound_days
                        .map(|days| end.saturating_sub(TimeDelta::from_days(days))),
                    end_time: None,
                    trial_cost: scenario.trial_cost,
                };
                let (trial, oracle) = (scenario.trial(), scenario.oracle());
                let clusters = clustering.clusters();
                let started = Instant::now();
                let sequential = search(&store, clusters, &trial, &oracle, &search_config);
                let sequential_ms = started.elapsed().as_secs_f64() * 1e3;
                let started = Instant::now();
                let parallel =
                    parallel_search(&store, clusters, &trial, &oracle, &search_config, 2);
                let parallel_ms = started.elapsed().as_secs_f64() * 1e3;
                let check = check_parallel_equals_sequential(&sequential, &parallel);
                SearchProbe {
                    sequential_ms,
                    parallel_ms,
                    failure: (!check.passed).then(|| format!("error #{id}: {}", check.detail)),
                }
            })
            .collect()
    }
}

/// `true` if the fleet's final configuration passes the error's fix
/// oracle, so injecting the error is what breaks it. The store is the
/// reference single-threaded ingest of the fleet the service ingests.
fn healthy_before_injection(fleet: &FleetRunConfig, scenario: &ErrorScenario) -> bool {
    let machines = fleet_machines(fleet).expect("the scenario's application resolves");
    let store = ingest_sequential(&machines, &fleet.engine);
    let shot = scenario.trial().run(&store.snapshot_latest());
    scenario.oracle().is_fixed(&shot)
}
