//! Fleet ingestion throughput: events/sec versus ingest threads and shard
//! count, on one fixed synthetic fleet.
//!
//! This is the benchmark behind the fleet subsystem's existence claim: the
//! sharded, batched, multi-producer pipeline must beat single-threaded
//! ingestion on the same workload, and the table makes the scaling visible
//! (`cargo run -p ocasta-bench --bin fleet --release`).

use ocasta::fleet::{fleet_machines, FleetRunConfig};
use ocasta::{
    fleet_ingest_live, FleetConfig, IngestOptions, KeyPlacement, MachineSpec, ShardedTtkv,
    TimePrecision,
};

use crate::render_table;

/// Machines in the benchmark fleet (the paper's deployment size).
pub const MACHINES: usize = 29;
/// Days of simulated usage per machine.
pub const DAYS: u64 = 40;

/// The fixed fleet every configuration ingests.
pub fn machines() -> Vec<MachineSpec> {
    fleet_machines(&FleetRunConfig {
        machines: MACHINES,
        days: DAYS,
        seed: 77,
        // A few real application models keeps the event mix representative
        // without making the benchmark minutes long.
        apps: vec!["gedit".into(), "evolution".into(), "chrome".into()],
        ..FleetRunConfig::default()
    })
    .expect("catalog names are valid")
}

/// The pre-fleet status quo: materialise every machine's whole trace
/// in memory, replay it into a private store, merge stores one by one.
/// Returns (mutations, seconds).
pub fn baseline(machines: &[MachineSpec]) -> (u64, f64) {
    use ocasta::{generate, GeneratorConfig, Ttkv};
    let started = std::time::Instant::now();
    let mut merged = Ttkv::new();
    for machine in machines {
        let config = GeneratorConfig::new(machine.name.clone(), machine.days, machine.seed);
        let trace = generate(&config, &machine.specs);
        merged.absorb(trace.replay(TimePrecision::Seconds));
    }
    let stats = merged.stats();
    (
        stats.writes + stats.deletes,
        started.elapsed().as_secs_f64(),
    )
}

/// One measured configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Ingest worker threads.
    pub threads: usize,
    /// TTKV stripe locks.
    pub shards: usize,
    /// Mutations ingested.
    pub mutations: u64,
    /// Ingestion throughput, events/second.
    pub events_per_sec: f64,
    /// Total wall-clock including the shard merge, seconds.
    pub total_secs: f64,
}

/// Ingests the fixed fleet once per (threads, shards) configuration.
pub fn sweep(thread_counts: &[usize], shard_counts: &[usize]) -> Vec<Sample> {
    let machines = machines();
    let mut samples = Vec::new();
    for &shards in shard_counts {
        for &threads in thread_counts {
            let config = FleetConfig {
                shards,
                ingest_threads: threads,
                batch_size: 512,
                precision: TimePrecision::Seconds,
                placement: KeyPlacement::Merged,
                retention: None,
                ..FleetConfig::default()
            };
            let sharded = ShardedTtkv::with_seal_threshold(config.shards, config.seal_threshold);
            let report = fleet_ingest_live(&machines, &config, &sharded, IngestOptions::default())
                .expect("no WAL lane, no fault plan");
            // The merge is part of the total, as it is for any caller that
            // wants one store; dropping the store is not.
            let merge_started = std::time::Instant::now();
            let _store = sharded.into_ttkv();
            let merged_in = merge_started.elapsed();
            samples.push(Sample {
                threads,
                shards,
                mutations: report.mutations,
                events_per_sec: report.events_per_sec(),
                total_secs: (report.ingest_elapsed + merged_in).as_secs_f64(),
            });
        }
    }
    samples
}

/// Serialises the sweep as machine-readable JSON (`BENCH_fleet.json`),
/// flat top-level numbers for `bench-compare` to gate on.
pub fn to_json(samples: &[Sample], baseline_rate: f64, baseline_secs: f64) -> String {
    let best_total = samples
        .iter()
        .map(|s| s.total_secs)
        .fold(f64::INFINITY, f64::min);
    format!(
        "{{\n  \"bench\": \"fleet\",\n  \"machines\": {MACHINES},\n  \"days\": {DAYS},\n  \
         \"mutations\": {},\n  \"baseline_events_per_sec\": {:.1},\n  \
         \"best_events_per_sec\": {:.1},\n  \"single_thread_events_per_sec\": {:.1},\n  \
         \"best_total_ms\": {:.3},\n  \"baseline_total_ms\": {:.3}\n}}\n",
        samples.first().map_or(0, |s| s.mutations),
        baseline_rate,
        best_rate(samples, |_| true),
        best_rate(samples, |s| s.threads == 1),
        best_total * 1e3,
        baseline_secs * 1e3,
    )
}

/// Renders the baseline measurement and the sweep, plus a verdict.
/// Returns `(human table, machine JSON)`.
pub fn run() -> (String, String) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let machines = machines();
    let (baseline_mutations, baseline_secs) = baseline(&machines);
    let baseline_rate = baseline_mutations as f64 / baseline_secs.max(f64::MIN_POSITIVE);

    let thread_counts = [1usize, 2, 4, 8, 16];
    let shard_counts = [1usize, 4, 16];
    let samples = sweep(&thread_counts, &shard_counts);

    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.shards.to_string(),
                s.threads.to_string(),
                s.mutations.to_string(),
                format!("{:.0}", s.events_per_sec),
                format!("{:.1}", s.total_secs * 1e3),
            ]
        })
        .collect();
    let mut out = format!(
        "Fleet ingestion throughput ({MACHINES} machines x {DAYS} days, {cores} core(s))\n\n\
         baseline (materialise whole traces, replay, merge): \
         {baseline_mutations} mutations in {:.1} ms = {baseline_rate:.0} events/s\n\n",
        baseline_secs * 1e3,
    );
    out.push_str(&render_table(
        &["Shards", "Threads", "Mutations", "Events/s", "Total ms"],
        &rows,
    ));

    let best_total = samples
        .iter()
        .map(|s| s.total_secs)
        .fold(f64::INFINITY, f64::min);
    let single = best_rate(&samples, |s| s.threads == 1);
    let multi = best_rate(&samples, |s| s.threads > 1);
    out.push_str(&format!(
        "\nstreaming sharded pipeline vs materialise-and-replay baseline: {:.2}x \
         (best pipeline total {:.1} ms vs baseline {:.1} ms)\n",
        baseline_secs / best_total.max(f64::MIN_POSITIVE),
        best_total * 1e3,
        baseline_secs * 1e3,
    ));
    out.push_str(&format!(
        "best single-threaded: {single:.0} events/s; best multi-threaded: {multi:.0} events/s \
         ({:.2}x; thread scaling needs >1 core — this host has {cores})\n",
        multi / single.max(f64::MIN_POSITIVE),
    ));
    let json = to_json(&samples, baseline_rate, baseline_secs);
    (out, json)
}

fn best_rate(samples: &[Sample], pick: impl Fn(&Sample) -> bool) -> f64 {
    samples
        .iter()
        .filter(|s| pick(s))
        .map(|s| s.events_per_sec)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_consistent_across_configurations() {
        let samples = sweep(&[1, 2], &[1, 8]);
        assert_eq!(samples.len(), 4);
        let mutations = samples[0].mutations;
        assert!(mutations > 0);
        assert!(
            samples.iter().all(|s| s.mutations == mutations),
            "same fleet ⇒ same mutation count: {samples:?}"
        );

        let json = to_json(&samples, 1000.0, 0.5);
        assert!(json.contains("\"bench\": \"fleet\""), "{json}");
        assert!(json.contains("\"best_events_per_sec\""), "{json}");
        assert!(json.contains("\"single_thread_events_per_sec\""), "{json}");
    }
}
