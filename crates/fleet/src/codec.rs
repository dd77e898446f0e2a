//! Byte format of write-ahead-log frames: `OCWAL2`, plus a decode-only
//! reader for legacy `OCWAL1` frames.
//!
//! The WAL is written on the ingest hot path — about 500 ops per frame,
//! millions of ops per run — so frames reuse the `ocasta-ttkv binary v2`
//! primitives ([`ocasta_ttkv::binary`]): LEB128 varints, zigzag timestamp
//! deltas, per-frame key interning, and the same tagged value encoding the
//! snapshot layers carry. One value encoder serves both formats.
//!
//! ```text
//! frame   := len:u32le crc:u32le hcrc:u32le payload[len]
//!            crc  = fnv1a_32(payload)
//!            hcrc = fnv1a_32(len ‖ crc)        -- the 8 header bytes before it
//! payload := op_count:uv op*
//! op      := 0x01 keyref dt:iv value            -- write
//!          | 0x02 keyref dt:iv                  -- delete (tombstone)
//!          | 0x03 keyref count:uv               -- aggregated reads
//! keyref  := uv: (len << 1) | 1, then len UTF-8 bytes   -- first use in frame
//!          | uv: id << 1                        -- id = first-use ordinal
//! dt      := this mutation's ms timestamp minus the previous mutation's
//!            in the frame (the first is relative to 0), wrapping
//! value   := see ocasta_ttkv::binary
//! ```
//!
//! **Torn versus corrupt.** The header check makes every header byte
//! self-verifying, so the reader can tell a crash from damage: a short
//! header, or a short payload behind a valid header, is a torn tail; a
//! header whose check fails, or a complete payload whose checksum fails,
//! is corruption, so a flipped bit in a length cannot read as a torn tail
//! and silently drop the acknowledged frames behind it.
//!
//! **Deterministic bytes.** Key ids are assigned in first-use order of the
//! key *contents*. The encoder looks keys up by their shared string pointer
//! first (Arc clones of one key cost no string hashing) and falls back to
//! the contents on a miss, so the bytes depend only on the batch, never on
//! which `Arc` a key happens to live in.
//!
//! Legacy `OCWAL1` frames (`len:u32le crc:u32le payload`, with fixed-width
//! ops — see `decode_v1_payload`) are still read so directories written
//! before `OCWAL2` replay unchanged; nothing writes them any more.

use std::collections::HashMap;

use ocasta_trace::{AccessEvent, Mutation, TraceOp};
use ocasta_ttkv::binary::{put_iv, put_uv, put_value, Reader};
use ocasta_ttkv::hash::fnv1a_32;
use ocasta_ttkv::{Key, Timestamp, TtkvError, Value};

/// Op tag: write.
const OP_WRITE: u8 = 0x01;
/// Op tag: delete.
const OP_DELETE: u8 = 0x02;
/// Op tag: aggregated reads.
const OP_READS: u8 = 0x03;

/// Bytes in an `OCWAL2` frame header: length, payload checksum, header
/// check.
pub(crate) const FRAME_HEADER_LEN: usize = 12;

/// Bytes in a legacy `OCWAL1` frame header: length, payload checksum.
pub(crate) const V1_FRAME_HEADER_LEN: usize = 8;

/// A malformed byte sequence, with a human-readable cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wal codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<TtkvError> for CodecError {
    fn from(e: TtkvError) -> Self {
        match e {
            TtkvError::Corrupt { offset, message } => {
                CodecError(format!("byte {offset}: {message}"))
            }
            other => CodecError(other.to_string()),
        }
    }
}

/// A verified `OCWAL2` frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    /// Payload length in bytes.
    pub(crate) len: u32,
    /// FNV-1a checksum of the payload.
    pub(crate) crc: u32,
}

impl FrameHeader {
    /// Parses a complete header, verifying its check.
    ///
    /// Returns `None` when the check fails: the length and checksum cannot
    /// be trusted, which is corruption whatever follows.
    pub(crate) fn parse(bytes: &[u8; FRAME_HEADER_LEN]) -> Option<FrameHeader> {
        let [l0, l1, l2, l3, c0, c1, c2, c3, h0, h1, h2, h3] = *bytes;
        let check = u32::from_le_bytes([h0, h1, h2, h3]);
        (fnv1a_32(&[l0, l1, l2, l3, c0, c1, c2, c3]) == check).then(|| FrameHeader {
            len: u32::from_le_bytes([l0, l1, l2, l3]),
            crc: u32::from_le_bytes([c0, c1, c2, c3]),
        })
    }
}

/// Appends one batch to `out` as a complete `OCWAL2` frame, header
/// included.
///
/// # Errors
///
/// [`CodecError`] if the payload exceeds the 4 GiB the `u32` length field
/// can state; `out` is left as it was.
pub(crate) fn encode_frame(batch: &[TraceOp], out: &mut Vec<u8>) -> Result<(), CodecError> {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    encode_payload(batch, out);
    let payload = out.get(start + FRAME_HEADER_LEN..).unwrap_or(&[]);
    let Ok(len) = u32::try_from(payload.len()) else {
        let len = payload.len();
        out.truncate(start);
        return Err(CodecError(format!(
            "frame payload of {len} bytes exceeds 4 GiB"
        )));
    };
    let mut header = [0u8; FRAME_HEADER_LEN];
    let (fields, check) = header.split_at_mut(8);
    let (len_field, crc_field) = fields.split_at_mut(4);
    len_field.copy_from_slice(&len.to_le_bytes());
    crc_field.copy_from_slice(&fnv1a_32(payload).to_le_bytes());
    check.copy_from_slice(&fnv1a_32(fields).to_le_bytes());
    if let Some(slot) = out.get_mut(start..start + FRAME_HEADER_LEN) {
        slot.copy_from_slice(&header);
    }
    Ok(())
}

/// Appends the `OCWAL2` payload of `batch` (no header) to `out`.
fn encode_payload(batch: &[TraceOp], out: &mut Vec<u8>) {
    put_uv(out, batch.len() as u64);
    let mut keys = Interner::new();
    let mut prev_ms = 0u64;
    for op in batch {
        match op {
            TraceOp::Mutation(event) => {
                let tag = match event.mutation {
                    Mutation::Write(_) => OP_WRITE,
                    Mutation::Delete => OP_DELETE,
                };
                out.push(tag);
                keys.put(&event.key, out);
                let ms = event.timestamp.as_millis();
                put_iv(out, ms.wrapping_sub(prev_ms) as i64);
                prev_ms = ms;
                if let Mutation::Write(value) = &event.mutation {
                    put_value(out, value);
                }
            }
            TraceOp::Reads(key, count) => {
                out.push(OP_READS);
                keys.put(key, out);
                put_uv(out, *count);
            }
        }
    }
}

/// Slots in the interner's pointer cache (a power of two, comfortably
/// above the ~110 distinct keys a 512-op frame carries).
const PTR_SLOTS: usize = 256;

/// One frame's key table on the encode side.
///
/// Ids are first-use ordinals of key *contents*. The pointer cache is a
/// direct-mapped shortcut for the common case — the trace generator hands
/// out `Arc` clones of one key — and every miss resolves through the
/// content map, so two `Arc`s with the same name always share an id. Every
/// key the cache points at is borrowed from the batch for the whole
/// encode, so a cached pointer cannot be reused by another allocation.
struct Interner<'b> {
    by_ptr: [(usize, u64); PTR_SLOTS],
    by_name: HashMap<&'b str, u64>,
}

impl<'b> Interner<'b> {
    fn new() -> Self {
        Interner {
            by_ptr: [(0, 0); PTR_SLOTS],
            by_name: HashMap::new(),
        }
    }

    /// Writes `key`'s keyref, interning it on first use.
    fn put(&mut self, key: &'b Key, out: &mut Vec<u8>) {
        let name = key.as_str();
        let ptr = name.as_ptr() as usize;
        // Fibonacci hashing: the top bits of the product spread aligned
        // heap addresses evenly over the slots.
        let slot = ((ptr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> (64 - PTR_SLOTS.trailing_zeros())) as usize;
        if let Some(&(cached, id)) = self.by_ptr.get(slot) {
            if cached == ptr {
                put_uv(out, id << 1);
                return;
            }
        }
        let next = self.by_name.len() as u64;
        let id = *self.by_name.entry(name).or_insert(next);
        if id == next {
            put_uv(out, ((name.len() as u64) << 1) | 1);
            out.extend_from_slice(name.as_bytes());
        } else {
            put_uv(out, id << 1);
        }
        if let Some(entry) = self.by_ptr.get_mut(slot) {
            *entry = (ptr, id);
        }
    }
}

/// Decodes one `OCWAL2` payload, appending its ops to `out`.
///
/// `base` is the payload's absolute offset in the log, so errors name the
/// byte a reader can seek to. Each distinct key is allocated once per
/// frame; every later use is an `Arc` clone.
///
/// # Errors
///
/// [`CodecError`] on truncated or malformed input, an undefined key id, or
/// trailing bytes.
pub(crate) fn decode_payload(
    payload: &[u8],
    base: usize,
    out: &mut Vec<TraceOp>,
) -> Result<(), CodecError> {
    let mut r = Reader::new(payload, base);
    let count = r.count("op count")?;
    out.reserve(count);
    let mut keys: Vec<Key> = Vec::new();
    let mut prev_ms = 0u64;
    for _ in 0..count {
        let at = r.offset();
        let tag = r.u8("op tag")?;
        let keyref = r.uv("key reference")?;
        let key = if keyref & 1 == 1 {
            let len = usize::try_from(keyref >> 1)
                .map_err(|_| CodecError(format!("byte {at}: key length overflows")))?;
            let key = Key::new(r.str(len, "key")?);
            keys.push(key.clone());
            key
        } else {
            let id = keyref >> 1;
            usize::try_from(id)
                .ok()
                .and_then(|id| keys.get(id))
                .cloned()
                .ok_or_else(|| {
                    CodecError(format!(
                        "byte {at}: key id {id} not defined ({} so far)",
                        keys.len()
                    ))
                })?
        };
        let op = match tag {
            OP_WRITE | OP_DELETE => {
                let ms = prev_ms.wrapping_add(r.iv("timestamp delta")? as u64);
                prev_ms = ms;
                let t = Timestamp::from_millis(ms);
                if tag == OP_WRITE {
                    TraceOp::Mutation(AccessEvent::write(t, key, r.value()?))
                } else {
                    TraceOp::Mutation(AccessEvent::delete(t, key))
                }
            }
            OP_READS => TraceOp::Reads(key, r.uv("read count")?),
            other => {
                return Err(CodecError(format!(
                    "byte {at}: unknown op tag {other:#04x}"
                )))
            }
        };
        out.push(op);
    }
    if !r.is_empty() {
        return Err(CodecError(format!(
            "byte {}: trailing bytes in frame",
            r.offset()
        )));
    }
    Ok(())
}

/// Decodes one legacy `OCWAL1` payload, appending its ops to `out`.
///
/// ```text
/// payload := u32:op_count op*
/// op      := 0x01 u64:timestamp_ms key value  | 0x02 u64:timestamp_ms key
///          | 0x03 key u64:count
/// key     := u32:len bytes
/// value   := 0x00 | 0x01 | 0x02 | 0x03 i64 | 0x04 u64:bits
///          | 0x05 u32:len bytes | 0x06 u32:count value*
/// ```
///
/// All integers little-endian. Decode-only: nothing writes `OCWAL1`.
///
/// # Errors
///
/// [`CodecError`] on truncated or malformed input or trailing bytes.
pub(crate) fn decode_v1_payload(
    payload: &[u8],
    base: usize,
    out: &mut Vec<TraceOp>,
) -> Result<(), CodecError> {
    let mut r = Reader::new(payload, base);
    let count = r.u32_le("op count")? as usize;
    out.reserve(count.min(r.remaining()));
    for _ in 0..count {
        let at = r.offset();
        let op = match r.u8("op tag")? {
            OP_WRITE => {
                let t = Timestamp::from_millis(r.u64_le("timestamp")?);
                let key = v1_key(&mut r)?;
                TraceOp::Mutation(AccessEvent::write(t, key, v1_value(&mut r, 0)?))
            }
            OP_DELETE => {
                let t = Timestamp::from_millis(r.u64_le("timestamp")?);
                TraceOp::Mutation(AccessEvent::delete(t, v1_key(&mut r)?))
            }
            OP_READS => {
                let key = v1_key(&mut r)?;
                TraceOp::Reads(key, r.u64_le("read count")?)
            }
            other => {
                return Err(CodecError(format!(
                    "byte {at}: unknown op tag {other:#04x}"
                )))
            }
        };
        out.push(op);
    }
    if !r.is_empty() {
        return Err(CodecError(format!(
            "byte {}: trailing bytes in frame",
            r.offset()
        )));
    }
    Ok(())
}

fn v1_key(r: &mut Reader<'_>) -> Result<Key, CodecError> {
    let len = r.u32_le("key length")? as usize;
    Ok(Key::new(r.str(len, "key")?))
}

fn v1_value(r: &mut Reader<'_>, depth: u32) -> Result<Value, CodecError> {
    let at = r.offset();
    if depth > ocasta_ttkv::binary::MAX_VALUE_DEPTH {
        return Err(CodecError(format!("byte {at}: value nesting too deep")));
    }
    Ok(match r.u8("value tag")? {
        0x00 => Value::Null,
        0x01 => Value::Bool(false),
        0x02 => Value::Bool(true),
        0x03 => Value::Int(r.u64_le("int value")? as i64),
        0x04 => Value::Float(f64::from_bits(r.u64_le("float value")?)),
        0x05 => {
            let len = r.u32_le("string length")? as usize;
            Value::Str(r.str(len, "string value")?.to_owned())
        }
        0x06 => {
            let count = r.u32_le("list length")? as usize;
            let mut items = Vec::with_capacity(count.min(r.remaining()));
            for _ in 0..count {
                items.push(v1_value(r, depth + 1)?);
            }
            Value::List(items)
        }
        other => {
            return Err(CodecError(format!(
                "byte {at}: unknown value tag {other:#04x}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(batch: &[TraceOp]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_payload(batch, &mut out);
        out
    }

    fn roundtrip(batch: Vec<TraceOp>) {
        let bytes = payload(&batch);
        let mut decoded = Vec::new();
        decode_payload(&bytes, 0, &mut decoded).unwrap();
        assert_eq!(decoded, batch);
    }

    #[test]
    fn ops_roundtrip() {
        roundtrip(vec![
            TraceOp::Mutation(AccessEvent::write(
                Timestamp::from_millis(123_456),
                "word/mru/item1",
                Value::from("c:\\docs\\report.doc"),
            )),
            TraceOp::Mutation(AccessEvent::delete(
                Timestamp::from_secs(99),
                "word/mru/item9",
            )),
            TraceOp::Reads(Key::new("gedit/view/wrap"), u64::MAX),
            TraceOp::Mutation(AccessEvent::write(
                Timestamp::EPOCH,
                "word/mru/item1",
                Value::List(vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::Float(f64::NAN),
                    Value::List(vec![Value::Int(i64::MIN)]),
                ]),
            )),
            TraceOp::Mutation(AccessEvent::write(
                Timestamp::from_millis(u64::MAX),
                "k",
                Value::from(-1),
            )),
        ]);
        roundtrip(Vec::new());
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for f in [f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE, 1.5e300] {
            let op = TraceOp::Mutation(AccessEvent::write(Timestamp::EPOCH, "k", Value::Float(f)));
            let mut decoded = Vec::new();
            decode_payload(&payload(&[op]), 0, &mut decoded).unwrap();
            match &decoded[..] {
                [TraceOp::Mutation(AccessEvent {
                    mutation: Mutation::Write(Value::Float(g)),
                    ..
                })] => assert_eq!(f.to_bits(), g.to_bits()),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn keys_are_interned_by_contents_not_by_arc() {
        // Two distinct Arcs with one name, and an Arc clone: one definition,
        // then references — and the same bytes as a batch of clones.
        let shared = Key::new("app/k");
        let fresh = Key::new("app/k");
        let reads = |key: &Key| TraceOp::Reads(key.clone(), 1);
        let mixed = payload(&[reads(&shared), reads(&fresh), reads(&shared)]);
        let cloned = payload(&[reads(&shared), reads(&shared), reads(&shared)]);
        assert_eq!(mixed, cloned);
        let mut expected = vec![0x03]; // three ops
        expected.extend_from_slice(&[OP_READS, 0x0B]); // (5 << 1) | 1
        expected.extend_from_slice(b"app/k");
        expected.push(0x01); // count
        expected.extend_from_slice(&[OP_READS, 0x00, 0x01]); // id 0
        expected.extend_from_slice(&[OP_READS, 0x00, 0x01]);
        assert_eq!(mixed, expected);
    }

    #[test]
    fn decoder_rejects_garbage() {
        let mut sink = Vec::new();
        for bad in [
            &[][..],                                   // no op count
            &[0x01, 0xFF, 0x01, b'k', 0x00],           // unknown op tag
            &[0x01, OP_WRITE, 0x01, b'k'],             // truncated timestamp delta
            &[0x01, OP_READS, 0x09, b'a'],             // truncated key
            &[0x01, OP_READS, 0x02, 0x00],             // key id 1 never defined
            &[0x01, OP_READS, 0x01, 0x00, 0x01, 0x00], // trailing byte
            &[0x01, OP_READS, 0x05, 0xC0, 0xC1, 0x00], // key not UTF-8
        ] {
            assert!(decode_payload(bad, 0, &mut sink).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn every_truncation_of_a_valid_op_errors_without_panicking() {
        // Any prefix of a valid payload must come back as a structured
        // CodecError — never a panic — since the WAL reader runs these
        // bytes on the appender and recovery paths.
        let bytes = payload(&[TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_millis(42),
            "app/key",
            Value::List(vec![Value::from(7), Value::from("seven")]),
        ))]);
        for cut in 0..bytes.len() {
            let mut sink = Vec::new();
            assert!(
                decode_payload(&bytes[..cut], 0, &mut sink).is_err(),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut bytes = vec![0x01, OP_WRITE, 0x03, b'k', 0x00];
        for _ in 0..(ocasta_ttkv::binary::MAX_VALUE_DEPTH + 2) {
            bytes.extend_from_slice(&[0x06, 0x01]);
        }
        bytes.push(0x00);
        assert!(decode_payload(&bytes, 0, &mut Vec::new()).is_err());
        // The legacy decoder keeps the same bound.
        let mut v1 = 1u32.to_le_bytes().to_vec();
        v1.push(OP_WRITE);
        v1.extend_from_slice(&0u64.to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.push(b'k');
        for _ in 0..(ocasta_ttkv::binary::MAX_VALUE_DEPTH + 2) {
            v1.push(0x06);
            v1.extend_from_slice(&1u32.to_le_bytes());
        }
        v1.push(0x00);
        assert!(decode_v1_payload(&v1, 0, &mut Vec::new()).is_err());
    }
}
