//! Bounded little-endian byte encoding shared by checkpoint files and
//! unit payloads.
//!
//! [`PayloadCodec`](crate::supervisor::PayloadCodec) implementors are
//! expected to build on these types: the writer encodes floats by bit
//! pattern (resume stays byte-identical), and the reader never trusts
//! a length field — every read is checked against the bytes actually
//! remaining and fails with a named [`GuardError::Corrupted`] instead
//! of allocating or panicking.

use crate::GuardError;

/// Append-only byte writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` in little-endian order.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` in little-endian order.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Encodes an `f64` by its exact bit pattern — checkpointed floats
    /// round-trip bit-identically, which the byte-identical-resume
    /// guarantee depends on.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `u64` length prefix followed by the bytes.
    pub(crate) fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a string as length-prefixed utf-8 bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends bytes verbatim, with no length prefix.
    pub(crate) fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// The bytes written so far.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

fn corrupted(what: &str) -> GuardError {
    GuardError::Corrupted {
        detail: format!("truncated while reading {what}"),
    }
}

/// Checked reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], GuardError> {
        if self.buf.len() < n {
            return Err(corrupted(what));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, what: &str) -> Result<u8, GuardError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, what: &str) -> Result<u32, GuardError> {
        let bytes = self.take(4, what)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(bytes);
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, what: &str) -> Result<u64, GuardError> {
        let bytes = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads an `f64` by exact bit pattern.
    pub fn get_f64(&mut self, what: &str) -> Result<f64, GuardError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Reads a length-prefixed byte string; the length is bounded by
    /// the remaining input before anything is copied.
    pub(crate) fn get_bytes(&mut self, what: &str) -> Result<&'a [u8], GuardError> {
        let len = self.get_u64(what)?;
        if len > self.buf.len() as u64 {
            return Err(GuardError::Corrupted {
                detail: format!(
                    "{what} claims {len} bytes but only {} remain",
                    self.buf.len()
                ),
            });
        }
        self.take(len as usize, what)
    }

    /// Reads a length-prefixed utf-8 string.
    pub fn get_str(&mut self, what: &str) -> Result<String, GuardError> {
        let bytes = self.get_bytes(what)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| GuardError::Corrupted {
            detail: format!("{what} is not utf-8: {e}"),
        })
    }

    /// Requires every byte to have been consumed.
    pub fn expect_end(&self, what: &str) -> Result<(), GuardError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(GuardError::Corrupted {
                detail: format!("{} trailing bytes after {what}", self.buf.len()),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]

    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f64(-0.0);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("c").unwrap(), u64::MAX);
        assert_eq!(r.get_f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_str("e").unwrap(), "héllo");
        assert_eq!(r.get_bytes("f").unwrap(), &[1, 2, 3]);
        r.expect_end("payload").unwrap();
    }

    #[test]
    fn hostile_lengths_are_rejected_without_allocation() {
        // A length claiming u64::MAX bytes.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let err = r.get_bytes("name").unwrap_err();
        assert!(err.to_string().contains("claims"), "{err}");
    }

    #[test]
    fn truncation_is_a_named_error() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.get_u64("count").is_err());
        let mut r = ByteReader::new(&[]);
        assert!(r.get_u8("tag").is_err());
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_raw(&[9]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.get_u8("tag").unwrap();
        assert!(r.expect_end("payload").is_err());
        assert_eq!(r.remaining(), 1);
    }
}
