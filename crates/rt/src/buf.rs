//! Byte buffers for wire formats: an append buffer ([`BytesMut`]) and a
//! cheaply cloneable, sliceable view ([`Bytes`]).
//!
//! [`BytesMut`] is a growable byte vector with little-endian integer
//! appends; freezing it yields a [`Bytes`], an `Arc`-backed region whose
//! `slice`/`split_to` operations are O(1) and allocation-free — the shape
//! bucket pages want: encode once, then hand out snapshot views to
//! decoders without copying per record.
//!
//! The [`Buf`]/[`BufMut`] traits carry the read/write-integer vocabulary
//! so codec code can stay generic over the concrete buffer.

use std::ops::{Deref, DerefMut, Range};
use std::sync::Arc;

/// Read-side cursor vocabulary: consuming little-endian integers and byte
/// runs from the front of a region.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// Whether any bytes are left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
    /// Consumes one byte.
    ///
    /// # Panics
    ///
    /// Panics when empty; check [`Buf::remaining`] first.
    fn get_u8(&mut self) -> u8;
    /// Consumes a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Consumes a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
    /// Consumes a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }
}

/// Write-side vocabulary: appending little-endian integers and byte runs.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a byte run.
    fn put_slice(&mut self, src: &[u8]);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// A growable append buffer.
///
/// # Examples
///
/// ```
/// use pmr_rt::buf::{Buf, BufMut, BytesMut};
///
/// let mut buf = BytesMut::new();
/// buf.put_u32_le(7);
/// buf.put_u8(0xab);
/// let mut frozen = buf.freeze();
/// assert_eq!(frozen.get_u32_le(), 7);
/// assert_eq!(frozen.get_u8(), 0xab);
/// assert!(!frozen.has_remaining());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Clears the buffer, keeping capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Appends a byte run (alias of [`BufMut::put_slice`] matching `Vec`).
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Copies out to a plain vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }

    /// Unwraps into the plain vector it appended to — no copy.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }

    /// Freezes into an immutable, cheaply sliceable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> Self {
        BytesMut { data }
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// An immutable, reference-counted byte region with O(1) `slice` and
/// `split_to`. Reading through [`Buf`] advances the region's start.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty region.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A region copied from a slice.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
    }

    /// Length in bytes (of the remaining view).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of this region; shares the backing allocation.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds for length {}",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Splits off and returns the first `at` bytes, advancing this region
    /// past them. O(1); shares the backing allocation.
    ///
    /// # Panics
    ///
    /// Panics when `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(
            at <= self.len(),
            "split_to({at}) out of bounds for length {}",
            self.len()
        );
        let front = self.slice(0..at);
        self.start += at;
        front
    }

    /// Copies the remaining view out to a plain vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        let end = data.len();
        Bytes {
            data: data.into(),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(src: &[u8]) -> Self {
        Bytes::copy_from_slice(src)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:02x?})", self.as_ref())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn get_u8(&mut self) -> u8 {
        assert!(self.has_remaining(), "get_u8 on empty region");
        let v = self.data[self.start];
        self.start += 1;
        v
    }
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.split_to(4));
        u32::from_le_bytes(b)
    }
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.split_to(8));
        u64::from_le_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_round_trip() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(0x01);
        buf.put_u32_le(0xdead_beef);
        buf.put_i64_le(-42);
        buf.put_u64_le(u64::MAX);
        buf.put_slice(b"tail");
        assert_eq!(buf.len(), 1 + 4 + 8 + 8 + 4);

        let mut b = buf.freeze();
        assert_eq!(b.get_u8(), 0x01);
        assert_eq!(b.get_u32_le(), 0xdead_beef);
        assert_eq!(b.get_i64_le(), -42);
        assert_eq!(b.get_u64_le(), u64::MAX);
        assert_eq!(b.as_ref(), b"tail");
    }

    #[test]
    fn slice_and_split_share_no_copies() {
        let b = Bytes::from((0u8..32).collect::<Vec<_>>());
        let mid = b.slice(8..16);
        assert_eq!(mid.as_ref(), &(8u8..16).collect::<Vec<_>>()[..]);
        // The original region is untouched.
        assert_eq!(b.len(), 32);

        let mut rest = b.slice(0..32);
        let front = rest.split_to(4);
        assert_eq!(front.as_ref(), &[0, 1, 2, 3]);
        assert_eq!(rest.len(), 28);
        assert_eq!(rest.as_ref()[0], 4);
    }

    #[test]
    fn nested_slices_keep_offsets() {
        let b = Bytes::from((0u8..100).collect::<Vec<_>>());
        let inner = b.slice(10..90).slice(5..15);
        assert_eq!(inner.as_ref(), &(15u8..25).collect::<Vec<_>>()[..]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_bounds_checked() {
        Bytes::from(vec![1, 2, 3]).slice(0..4);
    }

    #[test]
    fn empty_behaviour() {
        let b = Bytes::new();
        assert!(b.is_empty());
        assert!(!b.has_remaining());
        assert_eq!(b.to_vec(), Vec::<u8>::new());
        let mut m = BytesMut::new();
        assert!(m.is_empty());
        m.extend_from_slice(&[9]);
        m.clear();
        assert!(m.is_empty());
        let mut m = BytesMut::with_capacity(64);
        m.put_u8(3);
        let v = m.into_vec();
        assert_eq!(v, vec![3]);
        assert!(v.capacity() >= 64, "the buffer itself is handed over");
    }

    #[test]
    fn vec_bufmut_impl() {
        let mut v: Vec<u8> = Vec::new();
        v.put_u32_le(7);
        assert_eq!(v, vec![7, 0, 0, 0]);
    }
}
