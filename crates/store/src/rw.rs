//! Little-endian primitive encoding and a bounds-checked reader.
//!
//! Every read is guarded: the [`Reader`] knows which section it is
//! decoding, so running out of bytes yields a typed
//! [`StoreError::Truncated`] naming the section and offset, and count
//! prefixes are validated against the bytes actually remaining before any
//! allocation (a flipped length byte cannot OOM the loader).

use crate::error::StoreError;

/// Byte-buffer writer for section payloads. All integers are
/// little-endian.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh empty payload.
    #[must_use]
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, yielding the payload bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (caller wrote a length prefix already).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `usize` that must fit `u32` (arena indexes, counts).
    ///
    /// # Panics
    ///
    /// Panics if `v` exceeds `u32::MAX` — arena sizes are bounded by `u32`
    /// throughout the engine, so this indicates a bug, not bad input.
    pub fn index(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("arena index fits u32"));
    }
}

/// Bounds-checked little-endian reader over one section's payload.
#[derive(Debug)]
pub struct Reader<'a> {
    section: &'static str,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a section payload.
    #[must_use]
    pub fn new(section: &'static str, buf: &'a [u8]) -> Self {
        Reader { section, buf, pos: 0 }
    }

    fn short(&self) -> StoreError {
        StoreError::Truncated { context: self.section, offset: self.pos }
    }

    /// A [`StoreError::Corrupt`] blamed on this reader's section.
    #[must_use]
    pub fn corrupt(&self, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt { section: self.section, detail: detail.into() }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of payload.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.short())?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of payload.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let raw = self.bytes(4)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of payload.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let raw = self.bytes(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// Reads `len` raw bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] if fewer remain.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(len).ok_or_else(|| self.short())?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| self.short())?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads a `u32` element count and proves it plausible: `count *
    /// min_elem_bytes` must not exceed the bytes remaining, so callers can
    /// `Vec::with_capacity(count)` without trusting the file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of payload;
    /// [`StoreError::Corrupt`] if the count cannot fit the payload.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, StoreError> {
        let n = self.u32()? as usize;
        let need = n.checked_mul(min_elem_bytes).ok_or_else(|| {
            self.corrupt(format!("element count {n} overflows"))
        })?;
        if need > self.remaining() {
            return Err(self.corrupt(format!(
                "element count {n} needs {need} bytes but only {} remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Asserts the payload is fully consumed (a section with trailing
    /// bytes was written by something else).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when bytes remain.
    pub fn finish(&self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.bytes(b"xyz");
        let payload = w.into_bytes();
        let mut r = Reader::new("test", &payload);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes(3).unwrap(), b"xyz");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed_with_offset() {
        let mut r = Reader::new("test", &[1, 2]);
        match r.u32() {
            Err(StoreError::Truncated { context: "test", offset: 0 }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn absurd_counts_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // claims 4 billion elements...
        let payload = w.into_bytes();
        let mut r = Reader::new("test", &payload);
        assert!(matches!(r.count(4), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let r = Reader::new("test", &[0]);
        assert!(matches!(r.finish(), Err(StoreError::Corrupt { .. })));
    }
}
