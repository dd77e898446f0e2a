//! Fleet ingestion end to end: simulate a small machine fleet, ingest its
//! traces concurrently through the sharded TTKV with a write-ahead log,
//! merge, cluster, and report — the paper's 29-machine deployment in
//! miniature.
//!
//! Run with: `cargo run --example fleet_ingest --release`

use ocasta::fleet::{run_fleet, FleetRunConfig};
use ocasta::{FleetConfig, KeyPlacement, TimePrecision, Wal};

fn main() {
    // 1. Describe the fleet: 8 machines, 20 days, three desktop apps each.
    let wal_dir = std::env::temp_dir().join(format!("ocasta-fleet-example-{}", std::process::id()));
    let config = FleetRunConfig {
        machines: 8,
        days: 20,
        seed: 42,
        apps: vec!["gedit".into(), "evolution".into(), "chrome".into()],
        engine: FleetConfig {
            shards: 8,
            ingest_threads: 4,
            batch_size: 256,
            precision: TimePrecision::Seconds,
            placement: KeyPlacement::Merged,
            retention: None,
            ..FleetConfig::default()
        },
        wal_dir: Some(wal_dir.clone()),
    };

    // 2. Ingest concurrently: lazy per-machine event streams feed
    //    hash-striped TTKV shards, every batch is WAL-logged first.
    let run = run_fleet(&config, None).expect("catalog apps resolve");
    println!("ingested: {}", run.report);
    println!("store:    {}", run.store.stats());

    // 3. The WAL is replayable: the reconstructed store matches exactly.
    let mut wal = Wal::open(&wal_dir).expect("wal dir");
    let replayed = wal.replay(TimePrecision::Milliseconds).expect("replay");
    assert_eq!(replayed, run.store, "WAL replay reproduces the store");
    println!(
        "wal:      {} bytes replayed into an identical store",
        wal.log_bytes()
    );

    // 4. Snapshot compaction bounds the log without losing state.
    let compacted = wal.compact(TimePrecision::Milliseconds).expect("compact");
    assert_eq!(compacted, run.store);
    println!("wal:      compacted, log now {} bytes", wal.log_bytes());

    // 5. Hand the merged store to the paper's pipeline: cluster the
    //    co-modified settings across the whole fleet.
    let clustering = run.cluster();
    let stats = clustering.stats();
    println!(
        "clusters: {} total, {} multi-setting, mean multi size {:.2}",
        stats.clusters,
        stats.multi_clusters,
        stats.mean_multi_cluster_size(),
    );
    for cluster in clustering.multi_clusters().take(5) {
        let names: Vec<&str> = cluster.iter().map(|k| k.as_str()).collect();
        println!("  e.g. {}", names.join(" + "));
    }

    std::fs::remove_dir_all(&wal_dir).ok();
}
