//! The binary primitives every Ocasta on-disk format shares: LEB128
//! varints, zigzag signed varints, the tagged [`Value`] encoding, and a
//! bounds-checked byte reader that reports absolute offsets.
//!
//! Two codecs are built from these pieces and nothing else: the
//! `ocasta-ttkv binary v2` segment (`persist_v2.rs`, snapshots and WAL
//! layers) and the fleet WAL's `OCWAL2` log frames
//! (`ocasta_fleet::codec`). Keeping one value encoder for both means a
//! value written to the log and the same value folded into a layer are the
//! same bytes.
//!
//! ```text
//! uv     := LEB128 unsigned varint, ≤ 10 bytes
//! iv     := uv of the zigzag mapping (v << 1) ^ (v >> 63)
//! value  := 0x00 | 0x01 | 0x02                    null / false / true
//!         | 0x03 iv                               int
//!         | 0x04 bits:u64le                       float (bit-exact)
//!         | 0x05 len:uv utf8-bytes                string
//!         | 0x06 count:uv value*                  list (depth ≤ 32)
//! ```
//!
//! Every decode failure is a structured [`TtkvError::Corrupt`] naming the
//! absolute byte offset — never a panic — because both formats are read on
//! the fleet's worker and recovery paths.

use crate::error::TtkvError;
use crate::value::Value;

/// Value tag: null.
const VAL_NULL: u8 = 0x00;
/// Value tag: `false`.
const VAL_FALSE: u8 = 0x01;
/// Value tag: `true`.
const VAL_TRUE: u8 = 0x02;
/// Value tag: zigzag-varint integer.
const VAL_INT: u8 = 0x03;
/// Value tag: float as little-endian IEEE-754 bits.
const VAL_FLOAT: u8 = 0x04;
/// Value tag: length-prefixed UTF-8 string.
const VAL_STR: u8 = 0x05;
/// Value tag: count-prefixed list of values.
const VAL_LIST: u8 = 0x06;

/// Maximum list nesting the decoder accepts: the trace vocabulary uses
/// shallow lists, and a bound keeps corrupt input from recursing
/// unboundedly.
pub const MAX_VALUE_DEPTH: u32 = 32;

/// Appends an LEB128 unsigned varint.
pub fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a zigzag-encoded signed varint.
pub fn put_iv(out: &mut Vec<u8>, v: i64) {
    put_uv(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends one encoded value.
pub fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(VAL_NULL),
        Value::Bool(false) => out.push(VAL_FALSE),
        Value::Bool(true) => out.push(VAL_TRUE),
        Value::Int(i) => {
            out.push(VAL_INT);
            put_iv(out, *i);
        }
        Value::Float(f) => {
            out.push(VAL_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            put_uv(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::List(items) => {
            out.push(VAL_LIST);
            put_uv(out, items.len() as u64);
            for item in items {
                put_value(out, item);
            }
        }
    }
}

/// Byte-slice reader that tracks its absolute offset for error reporting.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    /// Absolute offset of `buf[0]` within the enclosing file.
    base: usize,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, whose first byte sits at absolute offset
    /// `base` of the file it came from.
    pub fn new(buf: &'a [u8], base: usize) -> Self {
        Reader { buf, base, pos: 0 }
    }

    /// Absolute offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// `true` once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`TtkvError::Corrupt`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TtkvError> {
        let rest = self.buf.get(self.pos..).unwrap_or(&[]);
        if rest.len() < n {
            return Err(TtkvError::corrupt(
                self.offset(),
                format!("truncated {what}: need {n} bytes, have {}", rest.len()),
            ));
        }
        let (taken, _) = rest.split_at(n);
        self.pos += n;
        Ok(taken)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// [`TtkvError::Corrupt`] at end of input.
    pub fn u8(&mut self, what: &str) -> Result<u8, TtkvError> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(TtkvError::corrupt(
                self.offset(),
                format!("truncated {what}: need 1 byte, have 0"),
            )),
        }
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`TtkvError::Corrupt`] if fewer than 4 bytes remain.
    pub fn u32_le(&mut self, what: &str) -> Result<u32, TtkvError> {
        let bytes = self.take(4, what)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(bytes);
        Ok(u32::from_le_bytes(arr))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`TtkvError::Corrupt`] if fewer than 8 bytes remain.
    pub fn u64_le(&mut self, what: &str) -> Result<u64, TtkvError> {
        let bytes = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    /// Consumes an LEB128 unsigned varint (≤ 10 bytes).
    ///
    /// # Errors
    ///
    /// [`TtkvError::Corrupt`] on truncation or a value past `u64::MAX`.
    pub fn uv(&mut self, what: &str) -> Result<u64, TtkvError> {
        let start = self.offset();
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(what)?;
            let payload = u64::from(byte & 0x7F);
            if shift >= 64 || (shift == 63 && payload > 1) {
                return Err(TtkvError::corrupt(
                    start,
                    format!("varint {what} overflows u64"),
                ));
            }
            value |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Consumes a zigzag-encoded signed varint.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Reader::uv`].
    pub fn iv(&mut self, what: &str) -> Result<i64, TtkvError> {
        let raw = self.uv(what)?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Consumes a varint and narrows it to a count bounded by the bytes
    /// that could possibly back it, rejecting absurd values before anything
    /// is allocated for them.
    ///
    /// # Errors
    ///
    /// [`TtkvError::Corrupt`] if the count exceeds the remaining input.
    pub fn count(&mut self, what: &str) -> Result<usize, TtkvError> {
        let start = self.offset();
        let raw = self.uv(what)?;
        let remaining = self.remaining() as u64;
        if raw > remaining {
            return Err(TtkvError::corrupt(
                start,
                format!("{what} {raw} exceeds remaining payload ({remaining} bytes)"),
            ));
        }
        usize::try_from(raw)
            .map_err(|_| TtkvError::corrupt(start, format!("{what} {raw} does not fit usize")))
    }

    /// Consumes `len` bytes that must be UTF-8.
    ///
    /// # Errors
    ///
    /// [`TtkvError::Corrupt`] on truncation or invalid UTF-8.
    pub fn str(&mut self, len: usize, what: &str) -> Result<&'a str, TtkvError> {
        let start = self.offset();
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes)
            .map_err(|e| TtkvError::corrupt(start, format!("{what} not UTF-8: {e}")))
    }

    /// Consumes one encoded value.
    ///
    /// # Errors
    ///
    /// [`TtkvError::Corrupt`] on truncation, an unknown tag, invalid UTF-8,
    /// or nesting deeper than [`MAX_VALUE_DEPTH`].
    pub fn value(&mut self) -> Result<Value, TtkvError> {
        self.value_at_depth(0)
    }

    fn value_at_depth(&mut self, depth: u32) -> Result<Value, TtkvError> {
        if depth > MAX_VALUE_DEPTH {
            return Err(TtkvError::corrupt(
                self.offset(),
                format!("value nesting exceeds depth {MAX_VALUE_DEPTH}"),
            ));
        }
        let start = self.offset();
        match self.u8("value tag")? {
            VAL_NULL => Ok(Value::Null),
            VAL_FALSE => Ok(Value::Bool(false)),
            VAL_TRUE => Ok(Value::Bool(true)),
            VAL_INT => Ok(Value::Int(self.iv("int value")?)),
            VAL_FLOAT => Ok(Value::Float(f64::from_bits(self.u64_le("float value")?))),
            VAL_STR => {
                let len = self.count("string length")?;
                Ok(Value::Str(self.str(len, "string value")?.to_owned()))
            }
            VAL_LIST => {
                let count = self.count("list length")?;
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    items.push(self.value_at_depth(depth + 1)?);
                }
                Ok(Value::List(items))
            }
            other => Err(TtkvError::corrupt(
                start,
                format!("unknown value tag 0x{other:02x}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_carry_the_absolute_offset() {
        // A string claiming 5 bytes with 1 behind it, read at base 100.
        let err = Reader::new(&[VAL_STR, 0x05, b'a'], 100)
            .value()
            .unwrap_err();
        match err {
            TtkvError::Corrupt { offset, .. } => assert_eq!(offset, 101),
            other => panic!("{other:?}"),
        }
    }
}
