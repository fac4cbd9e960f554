//! Workspace-local stand-in for the `bytes` crate.
//!
//! The build environment has no network or registry cache, so the real
//! crate cannot be fetched; this shim provides the growable byte buffer
//! (`BytesMut`) and little-endian writer trait (`BufMut`) surface that
//! `tfhpc-proto` encodes wire messages through, backed by a `Vec<u8>`.

use std::ops::Deref;

/// A growable, contiguous byte buffer.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes currently stored.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no bytes are stored.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Copy out the contents.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }

    /// Drop all contents, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Append raw bytes.
    pub fn extend_from_slice(&mut self, slice: &[u8]) {
        self.buf.extend_from_slice(slice);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> BytesMut {
        BytesMut { buf }
    }
}

impl From<BytesMut> for Vec<u8> {
    /// The buffer itself, without a copy.
    fn from(b: BytesMut) -> Vec<u8> {
        b.buf
    }
}

/// Append-only writer of fixed-width little-endian values and slices.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append raw bytes.
    fn put_slice(&mut self, slice: &[u8]);
    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_slice(&mut self, slice: &[u8]) {
        self.buf.extend_from_slice(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_layout() {
        let mut b = BytesMut::new();
        b.put_u8(0xAB);
        b.put_u32_le(0x01020304);
        b.put_u64_le(1);
        assert_eq!(b.len(), 13);
        assert_eq!(&b[..5], &[0xAB, 0x04, 0x03, 0x02, 0x01]);
        assert_eq!(b[5], 1);
        assert!(b[6..].iter().all(|&x| x == 0));
    }

    #[test]
    fn slices_and_vec_roundtrip() {
        let mut b = BytesMut::with_capacity(8);
        b.put_slice(b"abc");
        assert_eq!(b.to_vec(), b"abc".to_vec());
        assert_eq!(&*b, b"abc");
        assert_eq!(Vec::from(b.clone()), b"abc".to_vec());
        b.clear();
        assert!(b.is_empty());
    }
}
