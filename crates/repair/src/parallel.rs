//! The parallel rollback search: the sequential search's trials, executed
//! concurrently, with the sequential search's answers — exactly.
//!
//! A repair trial is the expensive step of the loop (§III-B: sandbox reset,
//! application launch, UI replay, screenshot — modeled here as rollback
//! materialisation plus a render). Trials at nearby positions in the visit
//! plan are independent: each one rolls back a candidate version onto the
//! *same* erroneous base state and renders. [`parallel_search`] exploits
//! that by cutting the sequential plan into waves of `threads` candidates,
//! running each wave's trials on scoped threads, and then folding the
//! wave's results back **in plan order** into the shared thread-safe
//! gallery ([`SyncGallery`]). Because every counter the search reports —
//! first fix, trials-to-fix, unique screenshots at the fix — is updated
//! during the in-order fold, the outcome equals [`search`]'s field for
//! field, which the property suite asserts on random histories
//! (`tests/prop.rs`) and `DESIGN.md §5.8` argues structurally.
//!
//! [`search`]: crate::search::search

use ocasta_ttkv::{ConfigState, Key, Timestamp, Ttkv};

use crate::history::{sorted_cluster_infos, ClusterInfo};
use crate::screenshot::{Screenshot, SyncGallery};
use crate::search::{plan, FixInfo, SearchConfig, SearchOutcome};
use crate::trial::{FixOracle, Trial};

/// Runs the repair search with up to `threads` concurrent trial executors.
///
/// Semantics are identical to [`search`](crate::search::search) — same
/// visit order, same fix, same trial and screenshot counts — only the
/// wall-clock of executing the trials changes. `threads == 1` degenerates
/// to the sequential loop with no thread spawns at all.
///
/// # Examples
///
/// ```
/// use ocasta_repair::{parallel_search, search, singleton_clusters};
/// use ocasta_repair::{FixOracle, Screenshot, SearchConfig, Trial};
/// use ocasta_ttkv::{Timestamp, Ttkv, Value};
///
/// let mut ttkv = Ttkv::new();
/// ttkv.write(Timestamp::from_secs(1), "app/toolbar", Value::from(true));
/// ttkv.write(Timestamp::from_secs(90), "app/toolbar", Value::from(false));
/// let trial = Trial::new("launch", |config| {
///     let mut shot = Screenshot::new();
///     shot.add_if(config.get_bool("app/toolbar").unwrap_or(false), "toolbar");
///     shot
/// });
/// let clusters = singleton_clusters(&ttkv);
/// let oracle = FixOracle::element_visible("toolbar");
/// let config = SearchConfig::default();
/// let parallel = parallel_search(&ttkv, &clusters, &trial, &oracle, &config, 4);
/// assert_eq!(parallel, search(&ttkv, &clusters, &trial, &oracle, &config));
/// ```
pub fn parallel_search(
    ttkv: &Ttkv,
    clusters: &[Vec<Key>],
    trial: &Trial,
    oracle: &FixOracle,
    config: &SearchConfig,
    threads: usize,
) -> SearchOutcome {
    parallel_search_observed(ttkv, clusters, trial, oracle, config, threads, |_| {})
}

/// [`parallel_search`] with a progress observer: after each wave of trials
/// completes, `on_progress` receives the oldest history timestamp the
/// **remaining** plan can still touch (via
/// [`SearchConfig::oldest_history_needed`] applied to the oldest surviving
/// candidate version — the single owner of the window-plus-millisecond
/// slack).
///
/// The reported bound is monotone non-decreasing across waves: the plan
/// only shrinks, so its oldest remaining candidate only moves forward. A
/// repair driver holding an [`ocasta_ttkv::HorizonPin`] can therefore feed
/// each report straight into [`ocasta_ttkv::HorizonPin::advance`], letting
/// retention follow the search instead of stalling at the session's
/// starting window for its whole life (the pin-starvation fix,
/// `DESIGN.md §5.9`). The observer runs on the coordinating thread, between
/// waves; it does not perturb the search — outcomes equal
/// [`parallel_search`]'s (and therefore the sequential search's) field for
/// field.
///
/// When the final wave completes, the observer is *not* called with an
/// "everything prunable" bound: releasing the last of the protection is the
/// pin drop's job, and the driver may still read the pinned snapshot while
/// assembling its report.
pub(crate) fn parallel_search_observed(
    ttkv: &Ttkv,
    clusters: &[Vec<Key>],
    trial: &Trial,
    oracle: &FixOracle,
    config: &SearchConfig,
    threads: usize,
    mut on_progress: impl FnMut(Timestamp),
) -> SearchOutcome {
    let threads = threads.max(1);
    let infos = sorted_cluster_infos(
        ttkv,
        clusters,
        config.window,
        config.start_time,
        config.end_time,
    );
    let base = ttkv.snapshot_latest();
    let baseline_shot = trial.run(&base);
    let gallery = SyncGallery::with_baseline(baseline_shot);

    let visits = plan(&infos, config.strategy);
    // Suffix minima over candidate version timestamps: `oldest_after[i]` is
    // the oldest version any trial from position `i` onward can roll back
    // to — what the remaining plan still needs from history.
    let mut oldest_after: Vec<Option<Timestamp>> = vec![None; visits.len() + 1];
    for i in (0..visits.len()).rev() {
        let version = visits[i].1;
        oldest_after[i] = Some(oldest_after[i + 1].map_or(version, |m| version.min(m)));
    }
    let mut fix: Option<FixInfo> = None;
    let mut trials_to_fix = None;
    let mut screenshots_to_fix = 0;
    let mut trials = 0usize;

    for wave in visits.chunks(threads) {
        // Execute the wave's trials concurrently: the coordinator takes the
        // first candidate itself, scoped threads take the rest (so a wave
        // of one — and therefore threads == 1 — spawns nothing).
        let results: Vec<(Screenshot, bool)> = if wave.len() == 1 {
            let (rank, version) = wave[0];
            vec![run_trial(ttkv, &infos[rank], version, &base, trial, oracle)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = wave[1..]
                    .iter()
                    .map(|&(rank, version)| {
                        let info = &infos[rank];
                        let base = &base;
                        scope.spawn(move || run_trial(ttkv, info, version, base, trial, oracle))
                    })
                    .collect();
                let first = run_trial(ttkv, &infos[wave[0].0], wave[0].1, &base, trial, oracle);
                std::iter::once(first)
                    .chain(
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("trial executor panicked")),
                    )
                    .collect()
            })
        };
        // Fold the wave back in plan order: this is what keeps the fix
        // choice and every counter bit-identical to the sequential search.
        for (offset, (shot, fixed_now)) in results.into_iter().enumerate() {
            trials += 1;
            gallery.record(shot);
            if fixed_now && fix.is_none() {
                let (rank, version) = wave[offset];
                fix = Some(FixInfo {
                    cluster_rank: rank,
                    keys: infos[rank].keys.clone(),
                    version,
                });
                trials_to_fix = Some(trials);
                screenshots_to_fix = gallery.len();
            }
        }
        // The wave's trials are folded: everything the *remaining* plan
        // can touch starts at the suffix minimum past this wave.
        if let Some(oldest) = oldest_after[trials] {
            let remaining = SearchConfig {
                start_time: Some(oldest),
                ..config.clone()
            };
            on_progress(remaining.oldest_history_needed());
        }
    }

    SearchOutcome {
        trials_to_fix,
        total_trials: trials,
        screenshots_to_fix,
        total_screenshots: gallery.len(),
        time_to_fix: trials_to_fix.map(|n| config.trial_cost.scale(n as u64)),
        total_time: config.trial_cost.scale(trials as u64),
        clusters_searched: infos.iter().filter(|i| !i.versions.is_empty()).count(),
        fix,
    }
}

/// One trial: materialise the rollback sandbox, render, judge.
fn run_trial(
    ttkv: &Ttkv,
    info: &ClusterInfo,
    version: Timestamp,
    base: &ConfigState,
    trial: &Trial,
    oracle: &FixOracle,
) -> (Screenshot, bool) {
    let sandbox = info.apply_rollback(ttkv, version, base);
    let shot = trial.run(&sandbox);
    let fixed = oracle.is_fixed(&shot);
    (shot, fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::singleton_clusters;
    use crate::search::{search, SearchStrategy};
    use ocasta_ttkv::Value;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// The two-key dependent store from the sequential search's tests.
    fn dependent_store() -> Ttkv {
        let mut ttkv = Ttkv::new();
        ttkv.write(ts(10), "app/enabled", Value::from(true));
        ttkv.write(ts(10), "app/mode", Value::from("full"));
        ttkv.write(ts(1000), "app/enabled", Value::from(true));
        ttkv.write(ts(1000), "app/mode", Value::from("full"));
        ttkv.write(ts(2000), "app/enabled", Value::from(false));
        ttkv.write(ts(2000), "app/mode", Value::from("compact"));
        for i in 0..10 {
            ttkv.write(ts(3000 + i), "app/geometry", Value::from(i as i64));
        }
        ttkv
    }

    fn panel_trial() -> Trial {
        Trial::new("open app", |config| {
            let mut shot = Screenshot::new();
            let on = config.get_bool("app/enabled").unwrap_or(false)
                && config.get_str("app/mode") == Some("full");
            shot.add_if(on, "panel");
            shot.add("window");
            shot
        })
    }

    #[test]
    fn every_thread_count_matches_sequential() {
        let ttkv = dependent_store();
        let clusters = vec![
            vec![Key::new("app/enabled"), Key::new("app/mode")],
            vec![Key::new("app/geometry")],
        ];
        let oracle = FixOracle::element_visible("panel");
        for strategy in [SearchStrategy::Dfs, SearchStrategy::Bfs] {
            let config = SearchConfig {
                strategy,
                ..SearchConfig::default()
            };
            let sequential = search(&ttkv, &clusters, &panel_trial(), &oracle, &config);
            for threads in [1, 2, 3, 8, 64] {
                let parallel =
                    parallel_search(&ttkv, &clusters, &panel_trial(), &oracle, &config, threads);
                assert_eq!(parallel, sequential, "threads={threads} {strategy:?}");
            }
            assert!(sequential.is_fixed());
        }
    }

    #[test]
    fn progress_observer_reports_monotone_bounds_without_perturbing_outcome() {
        let ttkv = dependent_store();
        let clusters = vec![
            vec![Key::new("app/enabled"), Key::new("app/mode")],
            vec![Key::new("app/geometry")],
        ];
        let oracle = FixOracle::element_visible("panel");
        let config = SearchConfig::default();
        for threads in [1, 2, 4] {
            let mut reports: Vec<Timestamp> = Vec::new();
            let observed = parallel_search_observed(
                &ttkv,
                &clusters,
                &panel_trial(),
                &oracle,
                &config,
                threads,
                |t| reports.push(t),
            );
            let plain =
                parallel_search(&ttkv, &clusters, &panel_trial(), &oracle, &config, threads);
            assert_eq!(observed, plain, "threads={threads}");
            if threads < observed.total_trials {
                assert!(!reports.is_empty(), "waves reported progress");
            } else {
                // The whole plan fit in one wave, and the final wave never
                // reports: releasing protection is the pin drop's job.
                assert!(reports.is_empty(), "threads={threads}: {reports:?}");
            }
            assert!(
                reports.windows(2).all(|w| w[0] <= w[1]),
                "bounds are monotone: {reports:?}"
            );
            // Every report is a bound the remaining plan honours: it never
            // exceeds what the whole search needed at the start plus the
            // full span of candidate versions.
            let initial = config.oldest_history_needed();
            assert!(reports.iter().all(|&t| t >= initial));
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let ttkv = dependent_store();
        let clusters = singleton_clusters(&ttkv);
        let oracle = FixOracle::element_visible("panel");
        let config = SearchConfig::default();
        let outcome = parallel_search(&ttkv, &clusters, &panel_trial(), &oracle, &config, 0);
        assert_eq!(
            outcome,
            search(&ttkv, &clusters, &panel_trial(), &oracle, &config)
        );
    }

    #[test]
    fn empty_history_yields_empty_outcome() {
        let ttkv = Ttkv::new();
        let outcome = parallel_search(
            &ttkv,
            &[],
            &panel_trial(),
            &FixOracle::element_visible("panel"),
            &SearchConfig::default(),
            4,
        );
        assert!(!outcome.is_fixed());
        assert_eq!(outcome.total_trials, 0);
        assert_eq!(outcome.clusters_searched, 0);
    }
}
