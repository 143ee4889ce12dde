//! A tiny hand-rolled binary codec.
//!
//! The serving API persists trained classifiers to disk (train once, classify
//! from many processes). The build environment has no serialization crates,
//! so the workspace uses this little-endian, length-prefixed format instead:
//! fixed-width integers, IEEE-754 bit-pattern floats, and UTF-8 strings with
//! a `u32` byte-length prefix. Readers validate every length against the
//! remaining input, so truncated or corrupt artifacts fail with a clean
//! [`CodecError`] rather than a panic.

use std::fmt;

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What went wrong, with an offset where applicable.
    pub message: String,
}

impl CodecError {
    /// Construct an error from anything displayable.
    pub fn new(message: impl fmt::Display) -> Self {
        Self {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

/// Append-only binary writer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Write a UTF-8 string with a `u32` byte-length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string longer than u32::MAX bytes"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write raw bytes with a `u32` length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(u32::try_from(bytes.len()).expect("blob longer than u32::MAX bytes"));
        self.buf.extend_from_slice(bytes);
    }

    /// Write a `u64` as a LEB128 variable-length integer (1–10 bytes; small
    /// values take one byte).
    pub fn put_uvarint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Write a **sorted (non-decreasing)** `u64` sequence as a `u32` count
    /// prefix followed by varint-encoded deltas between consecutive values
    /// (the first delta is taken from zero). Sorted window-key sets compress
    /// to roughly the entropy of their gaps instead of 8 bytes per key.
    ///
    /// Panics if `values` is not sorted — the delta encoding is only defined
    /// for non-decreasing input ([`ByteReader::get_u64_delta_seq`] restores
    /// exactly such sequences).
    pub fn put_u64_delta_seq(&mut self, values: &[u64]) {
        self.put_u32(u32::try_from(values.len()).expect("sequence longer than u32::MAX items"));
        let mut prev = 0u64;
        for &v in values {
            let delta = v
                .checked_sub(prev)
                .expect("delta sequence requires sorted (non-decreasing) input");
            self.put_uvarint(delta);
            prev = v;
        }
    }
}

/// Sequential binary reader over a borrowed buffer.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset (for error reporting).
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::new(format!(
                "need {n} bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(
            bytes.try_into().expect("length checked"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(
            bytes.try_into().expect("length checked"),
        ))
    }

    /// Read a `usize` written with [`ByteWriter::put_usize`].
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| CodecError::new(format!("usize value {v} overflows this platform")))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool byte (must be 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::new(format!("invalid bool byte {other:#04x}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::new(format!("invalid UTF-8 string: {e}")))
    }

    /// Read a length-prefixed byte blob.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a LEB128 variable-length `u64` written with
    /// [`ByteWriter::put_uvarint`].
    pub fn get_uvarint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            let bits = u64::from(byte & 0x7F);
            if shift == 63 && bits > 1 {
                return Err(CodecError::new(format!(
                    "varint overflows u64 at offset {}",
                    self.pos
                )));
            }
            if shift > 63 {
                return Err(CodecError::new(format!(
                    "varint longer than 10 bytes at offset {}",
                    self.pos
                )));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Read a sorted `u64` sequence written with
    /// [`ByteWriter::put_u64_delta_seq`]. The result is non-decreasing by
    /// construction; a delta that would overflow `u64` is rejected cleanly.
    pub fn get_u64_delta_seq(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.get_u32()? as usize;
        // Every encoded value costs at least one byte, so the count can be
        // validated against the remaining input before any allocation.
        if self.remaining() < n {
            return Err(CodecError::new(format!(
                "delta sequence of {n} items needs at least {n} bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let mut values = Vec::with_capacity(n);
        let mut prev = 0u64;
        for _ in 0..n {
            let delta = self.get_uvarint()?;
            prev = prev.checked_add(delta).ok_or_else(|| {
                CodecError::new(format!(
                    "delta sequence overflows u64 at offset {}",
                    self.pos
                ))
            })?;
            values.push(prev);
        }
        Ok(values)
    }

    /// Assert the input is fully consumed.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::new(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )))
        }
    }
}

/// FNV-1a 64-bit checksum, used to detect artifact corruption.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(0xCBF2_9CE4_8422_2325, bytes)
}

/// Continue an FNV-1a 64-bit checksum from a previous state, so
/// non-contiguous buffers can be checksummed without concatenating them:
/// `fnv1a64_continue(fnv1a64(a), b)` equals `fnv1a64` of `a` followed by
/// `b`.
pub fn fnv1a64_continue(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(123_456);
        w.put_u64(u64::MAX - 7);
        w.put_usize(987_654);
        w.put_f64(-0.125);
        w.put_f64(f64::INFINITY);
        w.put_bool(true);
        w.put_bool(false);
        w.put_str("hello µ world");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 123_456);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.get_usize().unwrap(), 987_654);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "hello µ world");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_str("a long enough string");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(r.get_str().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn nan_bit_pattern_roundtrips() {
        let mut w = ByteWriter::new();
        w.put_f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_f64().unwrap().is_nan());
    }

    #[test]
    fn invalid_bool_and_utf8_rejected() {
        let mut r = ByteReader::new(&[7]);
        assert!(r.get_bool().is_err());
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        let _ = r.get_u8();
        assert!(r.expect_end().is_err());
        let _ = r.get_u8();
        let _ = r.get_u8();
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn uvarint_roundtrips_edge_values() {
        let values = [
            0u64,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            123_456_789,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut w = ByteWriter::new();
        for &v in &values {
            w.put_uvarint(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_uvarint().unwrap(), v);
        }
        assert!(r.expect_end().is_ok());

        // Small values take one byte; u64::MAX takes the maximal 10.
        let mut w = ByteWriter::new();
        w.put_uvarint(0x7F);
        assert_eq!(w.len(), 1);
        let mut w = ByteWriter::new();
        w.put_uvarint(u64::MAX);
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn uvarint_rejects_overflow_and_truncation() {
        // 10 continuation bytes followed by a large final byte overflows.
        let mut r = ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
        assert!(r.get_uvarint().is_err());
        // An 11-byte varint is malformed regardless of value.
        let mut r = ByteReader::new(&[
            0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
        ]);
        assert!(r.get_uvarint().is_err());
        // Truncated mid-varint.
        let mut r = ByteReader::new(&[0x80]);
        assert!(r.get_uvarint().is_err());
    }

    #[test]
    fn delta_seq_roundtrips_and_is_compact() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![0, 0, 0],
            vec![7, 7, 9, 1000, 1001, u64::MAX],
            (0..500u64).map(|i| i * 3).collect(),
        ];
        for values in &cases {
            let mut w = ByteWriter::new();
            w.put_u64_delta_seq(values);
            let plain_len = 4 + 8 * values.len();
            assert!(w.len() <= plain_len, "delta encoding must never be larger");
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(&r.get_u64_delta_seq().unwrap(), values);
            assert!(r.expect_end().is_ok());
        }
        // Small sorted gaps compress far below 8 bytes per key.
        let keys: Vec<u64> = (0..100u64).map(|i| i * 17).collect();
        let mut w = ByteWriter::new();
        w.put_u64_delta_seq(&keys);
        assert!(w.len() < 4 + 2 * keys.len() + 8);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn delta_seq_rejects_unsorted_input() {
        let mut w = ByteWriter::new();
        w.put_u64_delta_seq(&[5, 3]);
    }

    #[test]
    fn delta_seq_rejects_bad_counts_and_overflow() {
        // A count prefix claiming more items than bytes remain fails before
        // allocating.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_u64_delta_seq().is_err());

        // Accumulated deltas that overflow u64 are rejected.
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_uvarint(u64::MAX);
        w.put_uvarint(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_u64_delta_seq().is_err());
    }

    #[test]
    fn fnv_checksum_is_stable_and_sensitive() {
        let a = fnv1a64(b"hello");
        assert_eq!(a, fnv1a64(b"hello"));
        assert_ne!(a, fnv1a64(b"hellp"));
        assert_ne!(fnv1a64(b""), 0);
    }
}
