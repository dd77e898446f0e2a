//! The repair service: concurrent repair sessions over a live fleet store.
//!
//! This closes the paper's loop at fleet scale. Ingestion is concurrent
//! ([`ocasta_fleet::ingest_live`]) and the clustering continuously
//! available ([`crate::OcastaStream`]); this tier makes the
//! *repair* — the point of the whole system (§III-B, §IV-C) — run against
//! both, while they keep moving:
//!
//! 1. a fleet of machines streams into one caller-owned [`ShardedTtkv`];
//! 2. the streaming clustering absorbs the tapped event flow and serves a
//!    cluster catalog at any moment;
//! 3. each simulated user pins a session: the catalog (stamped with its
//!    stream horizon) plus a per-shard-atomic **epoch pin** of the history
//!    ([`ShardedTtkv::pin_epoch`]) taken *at or after* that horizon — an
//!    O(shards) grab of shared sealed segments, not a store copy;
//! 4. an error scenario is injected into the user's pinned snapshot and
//!    the parallel rollback search runs to exhaustion — N sessions
//!    concurrently, each with its own trial-executor pool — while
//!    ingestion continues underneath;
//! 5. with a retention policy on the fleet engine, a sweeper prunes the
//!    live shards to a rolling horizon the whole time — clamped through a
//!    shared [`HorizonGuard`] to the sessions' pin, which is registered
//!    *before* the snapshot is taken, so pinned searches stay valid by
//!    construction.
//!
//! The session lifecycle, snapshot-consistency argument and the
//! parallel-search equivalence proof live in `DESIGN.md §5.8`; the
//! retention ordering argument is `DESIGN.md §5.9`.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ocasta_apps::{scenarios, ErrorScenario};
use ocasta_cluster::ClusterParams;
use ocasta_fleet::{
    ingest_live, EpochSnapshot, FleetMetrics, FleetReport, IngestOptions, ShardedTtkv, WriteLanes,
};
use ocasta_obs::Stopwatch;
use ocasta_repair::{
    CatalogHorizon, ClusterCatalog, HorizonGuard, HorizonPin, RepairSession, SearchConfig,
    SearchStrategy, SessionReport,
};
use ocasta_ttkv::{TimeDelta, Timestamp, TtkvStats};

use crate::fleet::{fleet_machines, FleetRunConfig};
use crate::metrics::{ServiceMetrics, StreamMetrics};
use crate::pipeline::Ocasta;
use crate::stream::OcastaStream;

/// Configuration of one repair-service run: the fleet it ingests, the
/// users it repairs for, and the search it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairServiceConfig {
    /// The fleet to ingest (machines, days, seed, apps, engine knobs). An
    /// empty `apps` list is replaced by the applications of the chosen
    /// scenarios, so every session's error has history to roll back to.
    pub fleet: FleetRunConfig,
    /// Concurrent repair sessions (the paper's user study had 19 humans;
    /// the service runs them at production concurrency).
    pub users: usize,
    /// Concurrent trial executors per session ([`ocasta_repair::parallel_search`]).
    pub search_threads: usize,
    /// Rollback search order.
    pub strategy: SearchStrategy,
    /// Clustering parameters for the live catalog (window also bounds the
    /// search's transaction grouping).
    pub params: ClusterParams,
    /// Which Table III errors the users hit, assigned round-robin.
    pub scenario_ids: Vec<usize>,
    /// How many mutation events the live clustering must have absorbed
    /// before the catalog is pinned (`u64::MAX` waits for ingestion to
    /// finish — useful when the outcome must not depend on timing).
    pub min_catalog_events: u64,
    /// The user's "error appeared after" search bound, as days before the
    /// end of the pinned snapshot (`None` searches the whole history).
    pub start_bound_days: Option<u64>,
}

impl Default for RepairServiceConfig {
    fn default() -> Self {
        RepairServiceConfig {
            fleet: FleetRunConfig {
                machines: 8,
                days: 14,
                apps: Vec::new(),
                ..FleetRunConfig::default()
            },
            users: 4,
            search_threads: 2,
            strategy: SearchStrategy::Dfs,
            params: ClusterParams::default(),
            // Single-setting errors whose applications render their healthy
            // default when the setting is absent — fixable against any
            // snapshot prefix, which is what a mid-ingest pin serves.
            scenario_ids: vec![13, 15, 11, 12],
            min_catalog_events: 2_000,
            start_bound_days: Some(7),
        }
    }
}

/// One user's repaired (or not) error.
#[derive(Debug, Clone, PartialEq)]
pub struct UserRepair {
    /// Which Table III error the user hit.
    pub scenario_id: usize,
    /// The error's Table III description.
    pub description: String,
    /// Size of the cluster whose rollback fixed it, if fixed.
    pub fixed_cluster_size: Option<usize>,
    /// The session's full report (search outcome, pinned horizon, timing).
    pub report: SessionReport,
}

/// What one repair-service run did.
#[derive(Debug, Clone)]
pub struct RepairServiceRun {
    /// The fleet ingestion report (the whole fleet, not just the pinned
    /// prefix).
    pub ingest: FleetReport,
    /// The stream horizon the shared catalog was pinned from.
    pub horizon: CatalogHorizon,
    /// Clusters in the pinned catalog (after singleton fallbacks).
    pub catalog_clusters: usize,
    /// Multi-setting clusters in the pinned catalog.
    pub catalog_multi: usize,
    /// `true` if the catalog and snapshot were pinned while ingestion was
    /// still running (the fleet kept growing under the sessions).
    pub pinned_mid_ingest: bool,
    /// Access statistics of the pinned history snapshot.
    pub snapshot_stats: TtkvStats,
    /// The retention pin the sessions held: the oldest timestamp their
    /// searches could touch, registered with the [`HorizonGuard`] *before*
    /// the snapshot was taken so no concurrent retention sweep could prune
    /// past it (`DESIGN.md §5.9`). Epoch when the search is unbounded.
    pub session_pin: Timestamp,
    /// Where the sessions' shared pin stood when it was released: as each
    /// session's remaining search plan shrank, its progress reports
    /// advanced the pin ([`ocasta_ttkv::HorizonPin::advance`]) to the
    /// minimum bound any still-running session needed, so long sessions
    /// stop starving fleet-wide retention. Always `>= session_pin`.
    pub final_pin: Timestamp,
    /// Every user's session, in user order.
    pub sessions: Vec<UserRepair>,
}

impl RepairServiceRun {
    /// Number of sessions that repaired their error.
    pub fn fixed_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| s.report.is_fixed()).count()
    }
}

/// The observer bundles a repair-service run can carry, one per tier.
///
/// All `None` (the [`Default`]) observes nothing. Everything here is
/// purely observational: handles record wall-clock readings and counts,
/// nothing reads them back, and a run's outcome is identical with any
/// combination attached (`DESIGN.md §5.11`).
#[derive(Debug, Clone, Default)]
pub struct ServiceObservers {
    /// Ingestion-tier metrics (batches, WAL timings, sweep stalls).
    pub fleet: Option<Arc<FleetMetrics>>,
    /// Session-tier metrics (open/step/commit latencies, pin clamps).
    pub service: Option<Arc<ServiceMetrics>>,
    /// Streaming-clustering metrics (absorb/query latencies, epoch).
    pub stream: Option<Arc<StreamMetrics>>,
}

/// Runs the repair service: ingest the fleet, pin a catalog + snapshot from
/// the live tiers, and drive every user's repair session concurrently,
/// recording into whichever per-tier bundles `observers` carries
/// ([`ServiceObservers::default`] records nothing).
///
/// # Errors
///
/// Unknown scenario ids or application names, or `users == 0`.
pub fn run_repair_service_observed(
    config: &RepairServiceConfig,
    observers: &ServiceObservers,
) -> Result<RepairServiceRun, String> {
    if config.users == 0 {
        return Err("repair needs --users >= 1".into());
    }
    let chosen = resolve_scenarios(&config.scenario_ids)?;
    let mut fleet_cfg = config.fleet.clone();
    if fleet_cfg.apps.is_empty() {
        fleet_cfg.apps = scenario_apps(&chosen);
    }
    let machines = fleet_machines(&fleet_cfg)?;
    let engine = Ocasta::new(config.params);
    let sharded =
        ShardedTtkv::with_seal_threshold(fleet_cfg.engine.shards, fleet_cfg.engine.seal_threshold);
    let lanes = WriteLanes::new(fleet_cfg.engine.shards);
    let guard = HorizonGuard::new();
    let mut stream = OcastaStream::new(&engine);
    if let Some(stream_metrics) = &observers.stream {
        stream.set_metrics(stream_metrics.clone());
    }
    let service_metrics = observers.service.as_deref();

    // The pin-advance coordinator, shared by every session thread. Each
    // session reports, after every trial wave, the oldest history its
    // *remaining* plan still needs (`RepairSession::run`); its
    // slot records that bound, and the shared pin advances to the minimum
    // over all slots — never past what any live session might still roll
    // back to. Both live outside the thread scope so session threads can
    // borrow them; the pin itself is parked here once registered.
    let needs: Mutex<Vec<Timestamp>> = Mutex::new(Vec::new());
    let shared_pin: Mutex<Option<HorizonPin<'_>>> = Mutex::new(None);

    let run = std::thread::scope(|scope| {
        let ingest_handle = scope.spawn(|| {
            let options = IngestOptions {
                tap: Some(&lanes),
                guard: Some(&guard),
                metrics: observers.fleet.as_deref(),
                ..IngestOptions::default()
            };
            ingest_live(&machines, &fleet_cfg.engine, &sharded, options)
                .expect("no wal lane, no wal errors")
        });

        // Feed the live clustering until enough of the fleet has streamed
        // past to pin a catalog from.
        loop {
            stream.drain_lanes(&lanes);
            let finished = ingest_handle.is_finished();
            if stream.horizon().events >= config.min_catalog_events || finished {
                if finished {
                    stream.drain_lanes(&lanes); // absorb the tail
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        // Pin, in order: retention pin first, catalog second, epoch pin
        // third. The retention pin covers the oldest history any session's
        // bounded search can touch, so a concurrent retention sweep can
        // never prune a version out from under the epoch about to be
        // pinned; catalog-before-epoch-pin keeps the pinned history at or
        // beyond the catalog's horizon (DESIGN.md §5.8, §5.9, §5.13).
        // The sessions' bound will be `inject_at − days`, and injections
        // happen after the snapshot's end, so a bound computed from the
        // current frontier is a safe (earlier) stand-in. The slack below
        // it is owned by `SearchConfig::oldest_history_needed`.
        let oldest_needed = match config.start_bound_days {
            None => Timestamp::EPOCH,
            Some(days) => {
                let frontier = sharded.last_mutation_time().unwrap_or(Timestamp::EPOCH);
                SearchConfig {
                    start_time: Some(frontier.saturating_sub(TimeDelta::from_days(days))),
                    window: TimeDelta::from_millis(config.params.window_ms),
                    ..SearchConfig::default()
                }
                .oldest_history_needed()
            }
        };
        let pin = guard.pin(oldest_needed);
        let session_pin = pin.timestamp();
        // Arm the coordinator: slots start at the registration-time pin so
        // an unreported session holds the line. Lock order everywhere is
        // slots, then pin (slots guard dropped first).
        *needs
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = vec![session_pin; config.users];
        *shared_pin
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(pin);
        let live = stream.clustering();
        // The epoch pin is O(shards + tails) under the stripe locks:
        // sealed segments are shared by reference with every session, and
        // later sweeps replace — never mutate — pinned segments, so the
        // pin cannot observe them. One materialization here feeds the run
        // report; each session folds its own copy of the pin in its own
        // thread.
        let pinned = sharded.pin_epoch();
        let snapshot = pinned.materialize();
        // Sampled *after* the snapshot, so "mid-ingest" is conservative:
        // if ingestion is still running now, the pinned history was
        // certainly a prefix of a still-growing fleet.
        let pinned_mid_ingest = !ingest_handle.is_finished();
        let mut catalog = live.catalog();
        for scenario in &chosen {
            for key in scenario.offending_keys() {
                catalog.ensure_singleton(&key);
            }
        }
        let catalog_clusters = catalog.len();
        let catalog_multi = catalog.clusters().iter().filter(|c| c.len() > 1).count();

        // Every user's session runs concurrently — against pinned state,
        // while ingestion (if unfinished) keeps appending underneath.
        let session_handles: Vec<_> = (0..config.users)
            .map(|user| {
                let scenario = chosen[user % chosen.len()].clone();
                let catalog = catalog.clone();
                // Each session holds its own clone of the epoch pin — an
                // O(shards) Arc grab, not a store copy — and materializes
                // its private sandbox (the store it injects the error
                // into and searches) inside its own thread.
                let pin = pinned.clone();
                let needs = &needs;
                let shared_pin = &shared_pin;
                scope.spawn(move || {
                    run_user_session(
                        config,
                        user,
                        scenario,
                        pin,
                        catalog,
                        session_pin,
                        needs,
                        shared_pin,
                        service_metrics,
                    )
                })
            })
            .collect();
        let sessions: Vec<UserRepair> = session_handles
            .into_iter()
            .map(|h| h.join().expect("repair session panicked"))
            .collect();
        // Sessions own their snapshots; the (possibly advanced) pin is
        // released only now, so the retained window never moves out from
        // under a live search.
        let final_pin = {
            let pin = shared_pin
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .take()
                .expect("the pin is taken exactly once, after all sessions joined");
            pin.timestamp()
            // `pin` drops here: protection released.
        };
        let ingest = ingest_handle.join().expect("ingest thread panicked");

        RepairServiceRun {
            ingest,
            horizon: catalog.horizon(),
            catalog_clusters,
            catalog_multi,
            pinned_mid_ingest,
            snapshot_stats: snapshot.stats(),
            session_pin,
            final_pin,
            sessions,
        }
    });
    Ok(run)
}

/// One user: materialize the epoch pin, inject the scenario into the
/// private store, search, report.
#[allow(clippy::too_many_arguments)]
fn run_user_session(
    config: &RepairServiceConfig,
    user: usize,
    scenario: ErrorScenario,
    pin: EpochSnapshot,
    catalog: ClusterCatalog,
    session_pin: Timestamp,
    needs: &Mutex<Vec<Timestamp>>,
    shared_pin: &Mutex<Option<HorizonPin<'_>>>,
    metrics: Option<&ServiceMetrics>,
) -> UserRepair {
    let open_started = Stopwatch::start_if(metrics.is_some());
    let mut store = pin.materialize();
    // The sandbox is owned now; releasing the pin lets a later sweep's
    // replaced segments free as soon as every other holder drops too.
    drop(pin);
    let end = store.last_mutation_time().unwrap_or(Timestamp::EPOCH);
    // Stagger injections so concurrent users' errors are distinct events.
    let inject_at = end + TimeDelta::from_mins(5 * (user as u64 + 1));
    scenario.inject(&mut store, inject_at);
    let mut search_config = SearchConfig {
        strategy: config.strategy,
        window: TimeDelta::from_millis(config.params.window_ms),
        start_time: config
            .start_bound_days
            .map(|days| inject_at.saturating_sub(TimeDelta::from_days(days))),
        end_time: None,
        trial_cost: scenario.trial_cost,
    };
    // If the guard clamped our pin up (a sweep had already pruned deeper
    // before this run registered), history below the pin is gone
    // fleet-wide: bound the search to what provably exists.
    let clamped = search_config.start_time.map(|wanted| {
        let safe = wanted.max(search_config.earliest_safe_start(session_pin));
        let clamped = safe > wanted;
        (safe, clamped)
    });
    if let Some((safe, was_clamped)) = clamped {
        search_config.start_time = Some(safe);
        if was_clamped {
            if let Some(m) = metrics {
                m.pin_clamps.inc();
            }
        }
    }
    let session = RepairSession::new(format!("user{user:02}"), store, catalog, search_config)
        .with_threads(config.search_threads);
    if let (Some(m), Some(sw)) = (metrics, open_started) {
        m.session_open.record_duration(sw.elapsed());
    }
    let step_started = Stopwatch::start_if(metrics.is_some());
    let report = session.run(&scenario.trial(), &scenario.oracle(), |needed| {
        // Record this session's shrinking need, then advance the shared
        // pin to the minimum over everyone — the oldest history any live
        // session might still roll back to. Slots guard dropped before
        // taking the pin lock (fixed lock order, no deadlock).
        let target = {
            let mut slots = needs
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            // Reports are monotone per session, but max() keeps the slot
            // monotone even under a buggy or reordered observer.
            slots[user] = slots[user].max(needed);
            slots.iter().copied().min().expect("users >= 1")
        };
        if let Some(pin) = shared_pin
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .as_mut()
        {
            pin.advance(target);
        }
        if let Some(m) = metrics {
            m.pin_advances.inc();
        }
    });
    if let (Some(m), Some(sw)) = (metrics, step_started) {
        m.session_step.record_duration(sw.elapsed());
    }
    let commit_started = Stopwatch::start_if(metrics.is_some());
    let repair = UserRepair {
        scenario_id: scenario.id,
        description: scenario.description.to_owned(),
        fixed_cluster_size: report.outcome.fix.as_ref().map(|f| f.keys.len()),
        report,
    };
    if let (Some(m), Some(sw)) = (metrics, commit_started) {
        m.session_commit.record_duration(sw.elapsed());
        m.sessions.inc();
    }
    repair
}

/// Resolves scenario ids against the Table III catalog, in the given order.
fn resolve_scenarios(ids: &[usize]) -> Result<Vec<ErrorScenario>, String> {
    if ids.is_empty() {
        return Err("repair needs at least one scenario".into());
    }
    let all = scenarios();
    ids.iter()
        .map(|id| {
            all.iter()
                .find(|s| s.id == *id)
                .cloned()
                .ok_or_else(|| format!("unknown scenario id {id} (Table III has 1-16)"))
        })
        .collect()
}

/// The distinct applications the chosen scenarios run on, in first-use
/// order — the default fleet workload for a service run.
fn scenario_apps(chosen: &[ErrorScenario]) -> Vec<String> {
    let mut apps: Vec<String> = Vec::new();
    for scenario in chosen {
        if !apps.iter().any(|a| a == scenario.app) {
            apps.push(scenario.app.to_owned());
        }
    }
    apps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> RepairServiceConfig {
        RepairServiceConfig {
            fleet: FleetRunConfig {
                machines: 4,
                days: 8,
                seed: 11,
                engine: ocasta_fleet::FleetConfig {
                    shards: 4,
                    ingest_threads: 2,
                    batch_size: 64,
                    ..ocasta_fleet::FleetConfig::default()
                },
                ..FleetRunConfig::default()
            },
            users: 3,
            search_threads: 2,
            scenario_ids: vec![13, 15],
            // Deterministic content: pin only after ingestion finished.
            min_catalog_events: u64::MAX,
            // Unbounded search: the earliest version of the offending
            // cluster is always reachable, so a rollback that predates the
            // key entirely (healthy default render) is always tried.
            start_bound_days: None,
            ..RepairServiceConfig::default()
        }
    }

    #[test]
    fn concurrent_sessions_fix_their_errors() {
        let run = run_repair_service_observed(&small_config(), &ServiceObservers::default())
            .expect("service runs");
        assert_eq!(run.sessions.len(), 3);
        assert_eq!(run.fixed_sessions(), 3, "{:?}", run.sessions);
        // Round-robin assignment over the two scenarios.
        let ids: Vec<usize> = run.sessions.iter().map(|s| s.scenario_id).collect();
        assert_eq!(ids, vec![13, 15, 13]);
        // The catalog was pinned from a real stream horizon.
        assert!(run.horizon.events > 0);
        assert!(run.catalog_clusters > 0);
        assert!(run.snapshot_stats.writes > 0);
        // Users 0 and 2 hit the same scenario against the same pinned
        // state (injection times differ, so only fixability must agree).
        assert_eq!(
            run.sessions[0].report.is_fixed(),
            run.sessions[2].report.is_fixed()
        );
    }

    #[test]
    fn mid_ingest_pin_is_reported_and_sessions_still_run() {
        let config = RepairServiceConfig {
            min_catalog_events: 200,
            users: 2,
            ..small_config()
        };
        let run = run_repair_service_observed(&config, &ServiceObservers::default())
            .expect("service runs");
        assert_eq!(run.sessions.len(), 2);
        // Whether the pin landed mid-ingest depends on scheduling; either
        // way every session must complete with a usable report, and the
        // offending keys are searchable thanks to the singleton fallback.
        for session in &run.sessions {
            assert!(session.report.outcome.total_trials > 0);
            assert!(session.report.is_fixed(), "{session:?}");
        }
    }

    #[test]
    fn retention_keeps_sessions_correct_while_bounding_the_snapshot() {
        use ocasta_fleet::RetentionPolicy;
        use ocasta_ttkv::TimeDelta;

        // Reference: the same service run with retention off.
        let mut base = small_config();
        base.fleet.days = 16;
        base.start_bound_days = Some(3);
        let reference =
            run_repair_service_observed(&base, &ServiceObservers::default()).expect("service runs");

        // Retention on: keep 5 days behind the frontier — deeper than any
        // session's 3-day search bound, which the pin enforces regardless.
        let mut config = base.clone();
        config.fleet.engine.retention = Some(RetentionPolicy {
            retain: TimeDelta::from_days(5),
            min_interval: TimeDelta::from_days(1),
        });
        let run = run_repair_service_observed(&config, &ServiceObservers::default())
            .expect("service runs");

        let retention = run.ingest.retention.expect("policy was set");
        assert!(retention.sweeps > 0, "{retention:?}");
        assert!(retention.reclaimed.pruned_versions > 0);
        let horizon = retention.horizon.expect("swept");
        assert!(
            horizon <= run.session_pin,
            "sweeps never pass the session pin: {horizon} vs {}",
            run.session_pin,
        );
        assert!(
            run.session_pin > Timestamp::EPOCH,
            "bounded search pins late"
        );
        assert!(
            run.final_pin >= run.session_pin,
            "the shared pin only advances: {} vs {}",
            run.final_pin,
            run.session_pin,
        );

        // The pruned snapshot is strictly smaller in memory...
        assert!(
            run.snapshot_stats.approx_bytes < reference.snapshot_stats.approx_bytes,
            "{} vs {}",
            run.snapshot_stats.approx_bytes,
            reference.snapshot_stats.approx_bytes,
        );
        // ...while every session repairs identically to the no-retention
        // run: same fix, same trial and screenshot counts.
        assert_eq!(run.sessions.len(), reference.sessions.len());
        for (with, without) in run.sessions.iter().zip(&reference.sessions) {
            assert_eq!(with.scenario_id, without.scenario_id);
            assert_eq!(with.report.is_fixed(), without.report.is_fixed());
            assert!(with.report.is_fixed(), "{with:?}");
            let (a, b) = (&with.report.outcome, &without.report.outcome);
            assert_eq!(
                a.fix.as_ref().map(|f| f.version),
                b.fix.as_ref().map(|f| f.version)
            );
            assert_eq!(
                a.fix.as_ref().map(|f| &f.keys),
                b.fix.as_ref().map(|f| &f.keys)
            );
            assert_eq!(a.trials_to_fix, b.trials_to_fix);
            assert_eq!(a.total_trials, b.total_trials);
            assert_eq!(a.screenshots_to_fix, b.screenshots_to_fix);
            assert_eq!(a.total_screenshots, b.total_screenshots);
        }
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let mut config = small_config();
        config.users = 0;
        assert!(run_repair_service_observed(&config, &ServiceObservers::default()).is_err());

        let mut config = small_config();
        config.scenario_ids = vec![99];
        assert!(
            run_repair_service_observed(&config, &ServiceObservers::default())
                .unwrap_err()
                .contains("scenario id 99")
        );

        let mut config = small_config();
        config.scenario_ids = Vec::new();
        assert!(run_repair_service_observed(&config, &ServiceObservers::default()).is_err());
    }

    #[test]
    fn scenario_apps_deduplicate_in_order() {
        let chosen = resolve_scenarios(&[15, 16, 13]).unwrap();
        assert_eq!(scenario_apps(&chosen), vec!["acrobat", "chrome"]);
    }
}
