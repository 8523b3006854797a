//! A minimal little-endian byte codec for journal payloads and
//! snapshots.
//!
//! Deliberately tiny and schema-free: callers write a fixed field order
//! and read it back in the same order. Strings and byte blobs are
//! `u32`-length-prefixed. Every decode is bounds-checked and returns
//! [`CodecError`] instead of panicking — a corrupted record must surface
//! as an error the recovery path can classify, never as a crash.

use std::fmt;

/// A malformed buffer was decoded (truncated field, bad UTF-8, oversized
/// length prefix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What was being decoded.
    pub what: &'static str,
    /// Byte offset at which decoding failed.
    pub offset: usize,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed {} at byte {}", self.what, self.offset)
    }
}

impl std::error::Error for CodecError {}

/// Append-only encoder.
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the encoder, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
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

    /// Write a length-prefixed byte blob.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(u32::try_from(v.len()).expect("blob fits in u32"));
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True iff every byte was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError {
                what,
                offset: self.pos,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// Read a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len, "bytes")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let offset = self.pos;
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|_| CodecError {
            what: "utf-8 string",
            offset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_kinds() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 3);
        e.put_str("héllo, wörld");
        e.put_bytes(&[0, 1, 2, 255]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.str().unwrap(), "héllo, wörld");
        assert_eq!(d.bytes().unwrap(), &[0, 1, 2, 255]);
        assert!(d.is_empty());
    }

    #[test]
    fn truncated_buffers_error_instead_of_panicking() {
        let mut e = Encoder::new();
        e.put_str("a long enough string");
        let buf = e.finish();
        for cut in 0..buf.len() {
            let mut d = Decoder::new(&buf[..cut]);
            assert!(d.str().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        // A length prefix claiming more bytes than the buffer holds.
        let mut e = Encoder::new();
        e.put_u32(1_000_000);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let err = d.bytes().unwrap_err();
        assert_eq!(err.what, "bytes");
    }

    #[test]
    fn bad_utf8_is_a_codec_error() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xFF, 0xFE]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.str().unwrap_err().what, "utf-8 string");
    }
}
