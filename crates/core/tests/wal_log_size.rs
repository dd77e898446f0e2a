//! Tier-1 size gate on the fleet WAL log: bytes per logged op on a small
//! seeded fleet running every application model.
//!
//! The log's bytes are a deterministic function of the fleet (each frame
//! encodes one worker batch, and a frame's bytes depend only on that
//! batch), so the measured ratio repeats exactly on every host and thread
//! count. The ceiling sits at 1.15× the `OCWAL2` value measured when the
//! format landed: a regression back toward fixed-width frames (about 3.7×
//! the bytes) fails `cargo test`, not just the benchmark.

use ocasta::{run_fleet, FleetConfig, FleetRunConfig, Wal, WalReader};

/// `OCWAL2` bytes per logged op on this fleet, as measured.
const MEASURED_BYTES_PER_OP: f64 = 8.92;

#[test]
fn wal_log_bytes_per_op_stay_under_the_ocwal2_ceiling() {
    let dir = std::env::temp_dir().join(format!("ocasta-wal-size-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = run_fleet(&FleetRunConfig {
        machines: 4,
        days: 14,
        seed: 11,
        apps: Vec::new(),
        engine: FleetConfig::default(),
        wal_dir: Some(dir.clone()),
    })
    .unwrap();

    let log = Wal::open(&dir).unwrap().log_path();
    let log_bytes = std::fs::metadata(&log).unwrap().len();
    let file = std::fs::File::open(&log).unwrap();
    let mut reader = WalReader::new(std::io::BufReader::new(file)).unwrap();
    let ops = reader.read_all().unwrap().len() as u64;
    std::fs::remove_dir_all(&dir).ok();

    assert!(!reader.is_legacy(), "fresh logs are OCWAL2");
    assert!(run.report.mutations > 0 && ops >= run.report.mutations);
    let per_op = log_bytes as f64 / ops as f64;
    let ceiling = MEASURED_BYTES_PER_OP * 1.15;
    assert!(
        per_op <= ceiling,
        "wal log: {log_bytes} B for {ops} ops = {per_op:.2} B/op, over the \
         {ceiling:.2} B/op ceiling (1.15 × {MEASURED_BYTES_PER_OP} measured)"
    );
}
