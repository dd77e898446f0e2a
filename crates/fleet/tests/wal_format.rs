//! Fixtures pinning the WAL log's byte layout, and the legacy `OCWAL1`
//! read path.
//!
//! The expected bytes are written out from the documented grammar
//! (`crates/fleet/src/codec.rs`) as explicit literals — magic, header
//! fields, op tags, keyrefs, varint timestamp deltas, value tags; only the
//! FNV-1a checksums are computed, via [`fnv1a_32`], which is pinned to the
//! reference vectors. A change to the `OCWAL2` layout fails here instead of
//! silently orphaning every deployed log, and the hand-written `OCWAL1` log
//! keeps the decode-only legacy path from rotting now that nothing writes
//! that format.

use std::path::PathBuf;

use ocasta_fleet::hash::fnv1a_32;
use ocasta_fleet::{
    diagnose, Severity, Wal, WalError, WalReader, WalWriter, WAL_MAGIC, WAL_MAGIC_V1,
};
use ocasta_trace::{AccessEvent, TraceOp};
use ocasta_ttkv::{Key, TimePrecision, Timestamp, Ttkv, Value};

/// The two batches every fixture below encodes.
fn batches() -> Vec<Vec<TraceOp>> {
    vec![
        vec![
            TraceOp::Mutation(AccessEvent::write(
                Timestamp::from_millis(1_000),
                "app/a",
                Value::from(42),
            )),
            TraceOp::Reads(Key::new("app/a"), 17),
        ],
        vec![
            TraceOp::Mutation(AccessEvent::write(
                Timestamp::from_millis(3_000),
                "app/b",
                Value::from("x"),
            )),
            // Earlier than the write before it: a negative delta.
            TraceOp::Mutation(AccessEvent::delete(Timestamp::from_millis(2_500), "app/a")),
        ],
    ]
}

/// Frames one `OCWAL2` payload: length, payload checksum, header check.
fn v2_frame(payload: &[u8]) -> Vec<u8> {
    let mut header = u32::try_from(payload.len()).unwrap().to_le_bytes().to_vec();
    header.extend_from_slice(&fnv1a_32(payload).to_le_bytes());
    let check = fnv1a_32(&header);
    header.extend_from_slice(&check.to_le_bytes());
    header.extend_from_slice(payload);
    header
}

/// Frames one legacy `OCWAL1` payload: length, payload checksum.
fn v1_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = u32::try_from(payload.len()).unwrap().to_le_bytes().to_vec();
    frame.extend_from_slice(&fnv1a_32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// The `OCWAL2` log of [`batches`], byte by byte.
fn v2_log() -> Vec<u8> {
    let mut log = b"OCWAL2\n".to_vec();
    let mut p = vec![0x02]; // op count
    p.push(0x01); // write
    p.push(0x0B); // keyref: first use, len 5 → (5 << 1) | 1
    p.extend_from_slice(b"app/a");
    p.extend_from_slice(&[0xD0, 0x0F]); // dt +1000 → zigzag 2000
    p.extend_from_slice(&[0x03, 0x54]); // value: int 42 → zigzag 84
    p.push(0x03); // reads
    p.push(0x00); // keyref: id 0
    p.push(0x11); // count 17
    log.extend_from_slice(&v2_frame(&p));

    let mut p = vec![0x02]; // op count
    p.push(0x01); // write
    p.push(0x0B); // keyref: first use *in this frame*
    p.extend_from_slice(b"app/b");
    p.extend_from_slice(&[0xF0, 0x2E]); // dt +3000 → zigzag 6000
    p.extend_from_slice(&[0x05, 0x01, b'x']); // value: string "x"
    p.push(0x02); // delete
    p.push(0x0B); // keyref: first use of app/a in this frame
    p.extend_from_slice(b"app/a");
    p.extend_from_slice(&[0xE7, 0x07]); // dt -500 → zigzag 999
    log.extend_from_slice(&v2_frame(&p));
    log
}

/// The legacy `OCWAL1` log of [`batches`], byte by byte.
fn v1_log() -> Vec<u8> {
    let mut log = b"OCWAL1\n".to_vec();
    let mut p = 2u32.to_le_bytes().to_vec(); // op count
    p.push(0x01); // write
    p.extend_from_slice(&1_000u64.to_le_bytes());
    p.extend_from_slice(&5u32.to_le_bytes());
    p.extend_from_slice(b"app/a");
    p.push(0x03); // int
    p.extend_from_slice(&42i64.to_le_bytes());
    p.push(0x03); // reads
    p.extend_from_slice(&5u32.to_le_bytes());
    p.extend_from_slice(b"app/a");
    p.extend_from_slice(&17u64.to_le_bytes());
    log.extend_from_slice(&v1_frame(&p));

    let mut p = 2u32.to_le_bytes().to_vec();
    p.push(0x01); // write
    p.extend_from_slice(&3_000u64.to_le_bytes());
    p.extend_from_slice(&5u32.to_le_bytes());
    p.extend_from_slice(b"app/b");
    p.push(0x05); // string
    p.extend_from_slice(&1u32.to_le_bytes());
    p.push(b'x');
    p.push(0x02); // delete
    p.extend_from_slice(&2_500u64.to_le_bytes());
    p.extend_from_slice(&5u32.to_le_bytes());
    p.extend_from_slice(b"app/a");
    log.extend_from_slice(&v1_frame(&p));
    log
}

/// What a fresh log of [`batches`] holds after the first `n` batches.
fn direct_store(n: usize) -> Ttkv {
    let mut store = Ttkv::new();
    for op in batches().into_iter().take(n).flatten() {
        op.apply(&mut store, TimePrecision::Milliseconds);
    }
    store
}

fn v2_bytes(store: &Ttkv) -> Vec<u8> {
    let mut bytes = Vec::new();
    store.save(&mut bytes).unwrap();
    bytes
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ocasta-wal-format-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn exported_magics_are_pinned() {
    assert_eq!(WAL_MAGIC, b"OCWAL2\n");
    assert_eq!(WAL_MAGIC_V1, b"OCWAL1\n");
}

#[test]
fn ocwal2_layout_is_pinned() {
    let mut bytes = Vec::new();
    let mut writer = WalWriter::new(&mut bytes).unwrap();
    for batch in batches() {
        writer.append(&batch).unwrap();
    }
    drop(writer);
    assert_eq!(bytes, v2_log());

    let mut reader = WalReader::new(bytes.as_slice()).unwrap();
    assert!(!reader.is_legacy());
    let mut decoded = Vec::new();
    while let Some(batch) = reader.next_batch().unwrap() {
        decoded.push(batch);
    }
    assert_eq!(decoded, batches());
}

#[test]
fn hand_written_ocwal1_log_decodes() {
    let log = v1_log();
    let mut reader = WalReader::new(log.as_slice()).unwrap();
    assert!(reader.is_legacy());
    let mut decoded = Vec::new();
    while let Some(batch) = reader.next_batch().unwrap() {
        decoded.push(batch);
    }
    assert_eq!(decoded, batches());
    assert_eq!(reader.clean_bytes() as usize, log.len());
}

#[test]
fn ocwal1_truncations_recover_the_longest_valid_prefix() {
    // The legacy reader keeps the OCWAL1 contract: any cut is a torn tail
    // that ends the log after the last complete frame.
    let log = v1_log();
    let first_end = {
        let mut reader = WalReader::new(log.as_slice()).unwrap();
        reader.next_batch().unwrap();
        reader.clean_bytes() as usize
    };
    for cut in WAL_MAGIC_V1.len()..=log.len() {
        let mut reader = WalReader::new(&log[..cut]).unwrap();
        let ops = reader.read_all().unwrap();
        let whole = [WAL_MAGIC_V1.len(), first_end, log.len()];
        let expect = whole.iter().filter(|&&end| end <= cut).count() - 1;
        assert_eq!(ops, batches()[..expect].concat(), "cut {cut}");
        assert_eq!(reader.torn_tail(), !whole.contains(&cut), "cut {cut}");
    }
}

#[test]
fn replay_is_byte_identical_from_either_format() {
    let from_v1 = WalReader::new(v1_log().as_slice())
        .unwrap()
        .replay(TimePrecision::Milliseconds)
        .unwrap();
    let from_v2 = WalReader::new(v2_log().as_slice())
        .unwrap()
        .replay(TimePrecision::Milliseconds)
        .unwrap();
    assert_eq!(v2_bytes(&from_v1), v2_bytes(&from_v2));
    assert_eq!(from_v1, direct_store(2));
}

#[test]
fn legacy_log_replays_then_is_rewritten_before_the_first_append() {
    let dir = scratch("upgrade");
    std::fs::write(dir.join("wal.log"), v1_log()).unwrap();

    // Opening and replaying is read-only: the legacy log stays as written.
    let replayed = Wal::open(&dir)
        .unwrap()
        .replay(TimePrecision::Milliseconds)
        .unwrap();
    assert_eq!(replayed, direct_store(2));
    assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), v1_log());

    // The first append rewrites the log as OCWAL2 — the same frames, byte
    // for byte what a fresh writer emits — then appends behind them.
    let extra = vec![TraceOp::Mutation(AccessEvent::write(
        Timestamp::from_millis(9_000),
        "app/c",
        Value::from(true),
    ))];
    let mut wal = Wal::open(&dir).unwrap();
    wal.append(&extra).unwrap();
    wal.flush().unwrap();
    drop(wal);

    let log = std::fs::read(dir.join("wal.log")).unwrap();
    let mut expected = Vec::new();
    let mut writer = WalWriter::new(&mut expected).unwrap();
    for batch in batches().iter().chain([&extra]) {
        writer.append(batch).unwrap();
    }
    drop(writer);
    assert_eq!(log, expected, "one format per file");
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names, vec!["wal.log"], "no temp file left behind");

    let mut reopened = Wal::open(&dir).unwrap();
    let mut expected = direct_store(2);
    extra[0]
        .clone()
        .apply(&mut expected, TimePrecision::Milliseconds);
    assert_eq!(
        reopened.replay(TimePrecision::Milliseconds).unwrap(),
        expected
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn legacy_upgrade_drops_a_torn_tail_and_keeps_a_corrupt_log() {
    // Torn: the cut frame goes, exactly as truncation would drop it.
    let dir = scratch("upgrade-torn");
    let log = v1_log();
    std::fs::write(dir.join("wal.log"), &log[..log.len() - 3]).unwrap();
    let mut wal = Wal::open(&dir).unwrap();
    wal.append(&batches()[1]).unwrap();
    assert_eq!(
        wal.replay(TimePrecision::Milliseconds).unwrap(),
        direct_store(2)
    );
    assert!(std::fs::read(dir.join("wal.log"))
        .unwrap()
        .starts_with(WAL_MAGIC));

    // Corrupt: the append fails and the legacy log is left untouched.
    let mut corrupt = v1_log();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x20;
    std::fs::write(dir.join("wal.log"), &corrupt).unwrap();
    let mut wal = Wal::open(&dir).unwrap();
    assert!(matches!(
        wal.append(&batches()[0]),
        Err(WalError::Corrupt { frame: 1 })
    ));
    drop(wal);
    Wal::open(&dir).unwrap(); // sweeps the abandoned temp file
    assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), corrupt);
    assert!(!dir.join("wal.log.tmp").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn doctor_reports_a_legacy_log_as_format_info() {
    let dir = scratch("doctor-v1");
    std::fs::write(dir.join("wal.log"), v1_log()).unwrap();
    let report = diagnose(&dir);
    assert!(report.is_healthy(), "{report}");
    let mut info: Vec<_> = report
        .with_severity(Severity::Info)
        .map(|f| f.check)
        .collect();
    info.sort_unstable();
    assert_eq!(info, vec!["legacy-layout", "log-format"], "{report}");
    assert_eq!(report.frames_verified, 2);

    // A fresh OCWAL2 log carries no format finding.
    std::fs::write(dir.join("wal.log"), v2_log()).unwrap();
    let report = diagnose(&dir);
    assert_eq!(report.with_check("log-format").count(), 0, "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn doctor_bad_magic_names_both_formats() {
    let dir = scratch("doctor-magic");
    std::fs::write(dir.join("wal.log"), b"OCWAL9\nxxxxxxxx").unwrap();
    let report = diagnose(&dir);
    let finding = report
        .with_check("log-magic")
        .next()
        .expect("log-magic finding");
    assert_eq!(finding.severity, Severity::Error);
    assert!(
        finding.detail.contains("OCWAL2") && finding.detail.contains("OCWAL1"),
        "{}",
        finding.detail
    );
    std::fs::remove_dir_all(&dir).ok();
}
