//! Exhaustive torn-write injection: a WAL truncated at *every* byte offset
//! of its tail must recover the exact longest valid prefix — never panic,
//! never surface phantom ops, and replay to precisely the prefix store.
//!
//! The sampled truncation property test (`tests/prop.rs`) cuts at random
//! fractions; this suite walks every single offset, so every position
//! inside the tail frame's length field, checksum field and payload is
//! covered, including the boundaries between them.

use std::io::BufReader;

use ocasta_fleet::{Wal, WalError, WalReader, WalWriter, WAL_MAGIC};
use ocasta_trace::{AccessEvent, TraceOp};
use ocasta_ttkv::{TimePrecision, Timestamp, Ttkv, Value};

/// Three batches with every op kind: writes, a delete, aggregated reads,
/// string/list values — so every codec branch crosses the torn boundary at
/// some offset.
fn batches() -> Vec<Vec<TraceOp>> {
    vec![
        vec![
            TraceOp::Mutation(AccessEvent::write(
                Timestamp::from_millis(1_000),
                "app/alpha",
                Value::from(42),
            )),
            TraceOp::Reads(ocasta_ttkv::Key::new("app/alpha"), 17),
        ],
        vec![
            TraceOp::Mutation(AccessEvent::write(
                Timestamp::from_millis(2_500),
                "app/beta",
                Value::from("torn tail torture"),
            )),
            TraceOp::Mutation(AccessEvent::delete(
                Timestamp::from_millis(3_000),
                "app/alpha",
            )),
        ],
        vec![TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_millis(4_000),
            "app/gamma",
            Value::List(vec![Value::from(true), Value::from(2.5)]),
        ))],
    ]
}

/// The complete, healthy log.
fn encoded() -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = WalWriter::new(&mut bytes).unwrap();
    for batch in batches() {
        writer.append(&batch).unwrap();
    }
    writer.flush().unwrap();
    drop(writer);
    bytes
}

/// Frame end offsets, from scanning the complete log.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut reader = WalReader::new(bytes).unwrap();
    let mut ends = Vec::new();
    while reader.next_batch().unwrap().is_some() {
        ends.push(reader.clean_bytes() as usize);
    }
    ends
}

fn direct_store(ops: &[TraceOp]) -> Ttkv {
    let mut store = Ttkv::new();
    for op in ops {
        op.clone().apply(&mut store, TimePrecision::Milliseconds);
    }
    store
}

/// The ops expected to survive a truncation at `cut`: every batch whose
/// frame ends at or before the cut.
fn surviving_ops(boundaries: &[usize], cut: usize) -> Vec<TraceOp> {
    batches()
        .iter()
        .zip(boundaries)
        .filter(|(_, &end)| end <= cut)
        .flat_map(|(batch, _)| batch.clone())
        .collect()
}

#[test]
fn every_truncation_offset_recovers_the_longest_valid_prefix() {
    let bytes = encoded();
    let boundaries = frame_boundaries(&bytes);
    assert_eq!(boundaries.len(), 3, "three frames written");
    assert_eq!(*boundaries.last().unwrap(), bytes.len());

    for cut in 0..=bytes.len() {
        let truncated = &bytes[..cut];
        if cut < WAL_MAGIC.len() {
            // Torn inside the magic: not a WAL stream at all.
            assert!(
                matches!(WalReader::new(truncated), Err(WalError::BadMagic)),
                "cut {cut}: expected BadMagic"
            );
            continue;
        }
        let mut reader = WalReader::new(truncated).unwrap();
        let recovered = reader
            .read_all()
            .unwrap_or_else(|e| panic!("cut {cut}: torn tail must never error, got {e}"));
        let expected = surviving_ops(&boundaries, cut);
        assert_eq!(recovered, expected, "cut {cut}: exact longest prefix");
        // The clean prefix is the last surviving frame boundary (or just
        // the magic), never past the cut.
        let clean_end = boundaries
            .iter()
            .copied()
            .rfind(|&end| end <= cut)
            .unwrap_or(WAL_MAGIC.len());
        assert_eq!(reader.clean_bytes() as usize, clean_end, "cut {cut}");
        // A mid-frame cut is reported as torn; a frame-boundary cut is not.
        assert_eq!(reader.torn_tail(), cut != clean_end, "cut {cut}");

        // Replay over the truncated stream equals the direct build over the
        // surviving ops.
        let replayed = WalReader::new(truncated)
            .unwrap()
            .replay(TimePrecision::Milliseconds)
            .unwrap();
        assert_eq!(replayed, direct_store(&expected), "cut {cut}");
    }
}

#[test]
fn every_tail_frame_truncation_reopens_appends_and_replays() {
    let bytes = encoded();
    let boundaries = frame_boundaries(&bytes);
    let tail_start = boundaries[boundaries.len() - 2];
    let dir = std::env::temp_dir().join(format!("ocasta-wal-exhaustive-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Every offset strictly inside the tail frame (a cut at the frame's own
    // end is a clean log, covered by the resume tests).
    for cut in tail_start..bytes.len() {
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("wal.log");
        std::fs::write(&log, &bytes[..cut]).unwrap();

        // Reopening must truncate the torn tail, then append reachably.
        let mut wal = Wal::open(&dir).unwrap();
        let extra = TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_millis(9_999),
            "app/recovered",
            Value::from(cut as i64),
        ));
        wal.append(std::slice::from_ref(&extra)).unwrap();
        wal.flush().unwrap();

        let file = std::fs::File::open(&log).unwrap();
        let mut reader = WalReader::new(BufReader::new(file)).unwrap();
        let recovered = reader.read_all().unwrap();
        assert!(!reader.torn_tail(), "cut {cut}: torn bytes must be gone");
        let mut expected = surviving_ops(&boundaries, cut);
        expected.push(extra);
        assert_eq!(recovered, expected, "cut {cut}");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Copies every regular file of `src` into a freshly re-created `dst`.
fn copy_dir(src: &std::path::Path, dst: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Crash injection during *layered compaction*: a pruned compaction writes
/// a delta snapshot and commits it with a manifest rename. Interrupting it
/// at every byte offset of the mid-write delta (and of the manifest temp
/// file, and between the commit and the old log's deletion) must reopen to
/// exactly the pre-compaction or the post-compaction state — never a torn
/// hybrid, never an error.
#[test]
fn every_truncation_of_a_mid_write_delta_recovers_pre_or_post_state() {
    let scratch =
        std::env::temp_dir().join(format!("ocasta-wal-torn-layer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let pre = scratch.join("pre");
    let post = scratch.join("post");
    let trial = scratch.join("trial");

    // A directory that is already layered (one pruned compaction behind
    // it) with fresh frames in the current epoch log.
    std::fs::create_dir_all(&pre).unwrap();
    {
        let mut wal = Wal::open(&pre).unwrap();
        wal.append(&batches()[0]).unwrap();
        wal.compact_pruned(TimePrecision::Milliseconds, Timestamp::from_millis(1_500))
            .unwrap();
        wal.append(&batches()[1]).unwrap();
        wal.append(&batches()[2]).unwrap();
        wal.flush().unwrap();
    }
    let pre_state = Wal::open(&pre)
        .unwrap()
        .replay(TimePrecision::Milliseconds)
        .unwrap();

    // Run the next compaction on a copy to learn the exact bytes it
    // writes: the new delta layer and the new manifest.
    copy_dir(&pre, &post);
    let (delta_name, post_state, post_manifest) = {
        let mut wal = Wal::open(&post).unwrap();
        wal.compact_pruned(TimePrecision::Milliseconds, Timestamp::from_millis(3_200))
            .unwrap();
        let delta = std::fs::read_dir(&post)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .find(|n| n.starts_with("delta-") && !pre.join(n).exists())
            .expect("the compaction wrote a new delta layer");
        let state = wal.replay(TimePrecision::Milliseconds).unwrap();
        (
            delta,
            state,
            std::fs::read(post.join("wal.manifest")).unwrap(),
        )
    };
    let delta_bytes = std::fs::read(post.join(&delta_name)).unwrap();
    assert_ne!(pre_state, post_state, "the compaction must change state");
    // Layers are `ocasta-ttkv binary v2` segments, so the byte-offset
    // injection below is the tentpole crash-safety proof for that format.
    assert!(
        delta_bytes.starts_with(ocasta_ttkv::BINARY_MAGIC),
        "delta layers must be binary v2 segments"
    );

    let reopen = |dir: &std::path::Path| {
        Wal::open(dir)
            .unwrap()
            .replay(TimePrecision::Milliseconds)
            .unwrap()
    };

    // Crash while the delta layer itself is mid-write: at every prefix the
    // manifest still names the old chain, so the torn delta is an orphan
    // and the state is exactly pre-compaction.
    for cut in 0..=delta_bytes.len() {
        copy_dir(&pre, &trial);
        std::fs::write(trial.join(&delta_name), &delta_bytes[..cut]).unwrap();
        assert_eq!(reopen(&trial), pre_state, "delta cut {cut}");
        assert!(
            !trial.join(&delta_name).exists(),
            "delta cut {cut}: the orphan must be swept on open"
        );
    }

    // Crash while the manifest temp file is mid-write: the rename never
    // happened, so every prefix still reopens to the pre state.
    for cut in [0, 1, post_manifest.len() / 2, post_manifest.len()] {
        copy_dir(&pre, &trial);
        std::fs::write(trial.join(&delta_name), &delta_bytes).unwrap();
        std::fs::write(trial.join("wal.manifest.tmp"), &post_manifest[..cut]).unwrap();
        assert_eq!(reopen(&trial), pre_state, "manifest tmp cut {cut}");
    }

    // Crash after the manifest rename but before the superseded log was
    // deleted: the commit point has passed, so the stale log must be
    // ignored (and swept) and the state is exactly post-compaction.
    {
        copy_dir(&pre, &trial);
        std::fs::write(trial.join(&delta_name), &delta_bytes).unwrap();
        std::fs::write(trial.join("wal.manifest"), &post_manifest).unwrap();
        assert_eq!(reopen(&trial), post_state, "post-commit, stale log kept");
    }

    // And appending after any recovery keeps working (the recovered
    // directory is a fully functional WAL).
    {
        copy_dir(&pre, &trial);
        std::fs::write(
            trial.join(&delta_name),
            &delta_bytes[..delta_bytes.len() / 2],
        )
        .unwrap();
        let mut wal = Wal::open(&trial).unwrap();
        let extra = TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_millis(9_999),
            "app/recovered",
            Value::from(true),
        ));
        wal.append(std::slice::from_ref(&extra)).unwrap();
        wal.flush().unwrap();
        let store = wal.replay(TimePrecision::Milliseconds).unwrap();
        assert_eq!(store.current("app/recovered"), Some(&Value::from(true)));
    }
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn truncation_inside_the_magic_resets_the_file_on_reopen() {
    let bytes = encoded();
    let dir = std::env::temp_dir().join(format!("ocasta-wal-magic-torn-{}", std::process::id()));
    for cut in 1..WAL_MAGIC.len() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), &bytes[..cut]).unwrap();
        let mut wal = Wal::open(&dir).unwrap();
        let op = TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_millis(1),
            "app/fresh",
            Value::from(true),
        ));
        wal.append(std::slice::from_ref(&op)).unwrap();
        wal.flush().unwrap();
        let store = wal.replay(TimePrecision::Milliseconds).unwrap();
        assert_eq!(store.stats().writes, 1, "cut {cut}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Byte offsets `[start, end)` of every frame in a complete log.
fn frame_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let ends = frame_boundaries(bytes);
    let starts = std::iter::once(WAL_MAGIC.len()).chain(ends.iter().copied());
    starts.zip(ends.iter().copied()).collect()
}

/// A complete frame is never a torn tail: every single-byte change to any
/// byte of any frame — header or payload, first frame or last — must be
/// reported as corruption. Never `Ok` with fewer ops, never a panic.
#[test]
fn every_single_byte_flip_inside_a_complete_frame_is_corrupt() {
    let bytes = encoded();
    for (start, end) in frame_spans(&bytes) {
        for at in start..end {
            for mask in 1..=u8::MAX {
                let mut flipped = bytes.clone();
                flipped[at] ^= mask;
                let mut reader = WalReader::new(flipped.as_slice()).unwrap();
                match reader.read_all() {
                    Err(WalError::Corrupt { .. }) => {}
                    other => panic!("byte {at} ^ {mask:#04x}: expected Corrupt, got {other:?}"),
                }
                assert!(!reader.torn_tail(), "byte {at} ^ {mask:#04x} read as torn");
            }
        }
    }
}

/// Regression for `failing_seeds/006`: one flipped bit in a middle frame's
/// length used to read as a short payload — a "torn tail" — so replay
/// silently dropped that frame and every acknowledged frame behind it, and
/// the next open truncated them away for good. The header check turns it
/// into corruption: replay fails, and the writer refuses to truncate.
#[test]
fn length_bit_flip_in_a_middle_frame_is_corrupt_not_torn() {
    let bytes = encoded();
    let (frame1, _) = frame_spans(&bytes)[1];
    let dir = std::env::temp_dir().join(format!("ocasta-wal-len-flip-{}", std::process::id()));
    for bit in 0..32 {
        let mut flipped = bytes.clone();
        flipped[frame1 + bit / 8] ^= 1 << (bit % 8);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), &flipped).unwrap();

        let replayed = Wal::open(&dir).unwrap().replay(TimePrecision::Milliseconds);
        assert!(
            matches!(replayed, Err(WalError::Corrupt { frame: 1 })),
            "bit {bit}: {replayed:?}"
        );
        let mut wal = Wal::open(&dir).unwrap();
        assert!(
            wal.append(&batches()[0]).is_err(),
            "bit {bit}: an append must not truncate acknowledged frames"
        );
        drop(wal);
        assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), flipped);
    }
    std::fs::remove_dir_all(&dir).ok();
}
