//! Tiny stable byte-encoding helpers for protocol state.
//!
//! The checkpoint substrate diffs state at page granularity and restores
//! states by decoding, so encodings must be deterministic, layout-stable,
//! and round-trippable. Rather than pull in serde plus a format crate, these
//! helpers provide the primitives the protocols need.
//!
//! The `put_*` writers run once per field on every capture and jump probe,
//! mostly from state codecs in other crates: they are `#[inline]` (a plain
//! function is not inlined across a crate boundary), and they append with
//! `extend(array)`, which keeps the vector's length in a local, because
//! after inlining the compiler can no longer tell that a byte written into
//! the buffer leaves the vector's own header alone (`extend_from_slice`
//! re-read it after every field: state encoding ran 2.3x slower).

/// Appends a `u8`.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a `u16` little-endian.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend(v.to_le_bytes());
}

/// Appends a `u32` little-endian.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend(v.to_le_bytes());
}

/// Appends a `u64` little-endian.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend(v.to_le_bytes());
}

/// A cursor for decoding what the `put_*` helpers wrote.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        let v = u16::from_le_bytes(self.buf.get(self.pos..self.pos + 2)?.try_into().ok()?);
        self.pos += 2;
        Some(v)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let v = u32::from_le_bytes(self.buf.get(self.pos..self.pos + 4)?.try_into().ok()?);
        self.pos += 4;
        Some(v)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let v = u64::from_le_bytes(self.buf.get(self.pos..self.pos + 8)?.try_into().ok()?);
        self.pos += 8;
        Some(v)
    }

    /// Reads a length prefix.
    ///
    /// Every encoded element occupies at least one byte, so a count larger
    /// than the bytes remaining is corrupt; rejecting it here keeps
    /// `Vec::with_capacity(len)` in decoders from turning garbage input
    /// into a giant allocation.
    #[allow(clippy::len_without_is_empty)] // Decodes a length prefix; not a container.
    pub fn len(&mut self) -> Option<usize> {
        let n = self.u64()? as usize;
        if n > self.remaining() {
            return None;
        }
        Some(n)
    }

    /// Reads a `bool` encoded as one byte.
    pub fn boolean(&mut self) -> Option<bool> {
        Some(self.u8()? != 0)
    }

    /// Reads exactly `n` raw bytes (for length-prefixed nested encodings).
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let v = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 300);
        put_u32(&mut buf, 70_000);
        put_u64(&mut buf, u64::MAX - 3);
        put_u8(&mut buf, 1);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u16(), Some(300));
        assert_eq!(r.u32(), Some(70_000));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.boolean(), Some(true));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), None, "reading past the end fails cleanly");
    }

    #[test]
    fn len_caps_on_corrupt_input() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        assert_eq!(Reader::new(&buf).len(), None);
    }
}
