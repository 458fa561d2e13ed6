//! Offline API-subset shim of `bytes` 1.x (see `shims/README.md`).
//!
//! [`Bytes`] is a cheaply cloneable, sliceable view over shared immutable
//! storage plus a window, [`BytesMut`] a growable buffer that freezes
//! into one, and [`BufMut`] the big-endian append trait — the exact
//! subset the workspace exercises.
//!
//! As in bytes 1, building a [`Bytes`] from a vector copies no payload:
//! `From<Vec<u8>>`, `From<String>` and [`BytesMut::freeze`] adopt the
//! vector's heap buffer (one under 4 KiB is copied instead, see
//! `ADOPT_MIN`), and [`Bytes::copy_from_slice`] makes exactly one
//! allocation.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Vectors shorter than this are copied into one `copy_from_slice`
/// allocation instead of adopted. Either way costs one allocation (the
/// copy, or the `Arc` around the vector), but adopting keeps two heap
/// blocks alive where the copy keeps one: adopting the 37-byte index
/// entries too raised the NWP-cycle benchmarks' peak RSS by 0.2–0.5 MiB.
/// Below 4 KiB the copy itself is cheap.
const ADOPT_MIN: usize = 4096;

/// Cheaply cloneable shared byte buffer: a window `start..end` onto
/// shared immutable storage.
#[derive(Clone)]
pub struct Bytes {
    store: Store,
    start: usize,
    end: usize,
}

/// Where a [`Bytes`]' bytes live. Two words: rustc keeps the tag in the
/// `Slice` pointer's niche.
#[derive(Clone)]
enum Store {
    /// Header and bytes in one allocation (`copy_from_slice`).
    Slice(Arc<[u8]>),
    /// An adopted vector's heap buffer (`From<Vec<u8>>`, `freeze`).
    Vec(Arc<Vec<u8>>),
}

impl Bytes {
    /// An empty buffer (no allocation is shared, but the empty `Arc<[u8]>`
    /// is as cheap as it gets).
    pub fn new() -> Self {
        Bytes {
            store: Store::Slice(Arc::default()),
            start: 0,
            end: 0,
        }
    }

    /// Wraps a static slice. The shim copies once; callers only rely on
    /// value semantics, not zero-copy of statics.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `data` into one new allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            store: Store::Slice(Arc::from(data)),
            start: 0,
            end: data.len(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds of {}",
            self.len()
        );
        Bytes {
            store: self.store.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

// The small accessors are `#[inline]`: ordered-map lookups in the object
// store deref a key per comparison, from another crate.
impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        let all: &[u8] = match &self.store {
            Store::Slice(data) => data,
            Store::Vec(data) => data,
        };
        &all[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Adopts `v`'s heap buffer, spare capacity included (copies it when
    /// shorter than `ADOPT_MIN`).
    fn from(v: Vec<u8>) -> Self {
        if v.len() < ADOPT_MIN {
            return Bytes::copy_from_slice(&v);
        }
        Bytes {
            start: 0,
            end: v.len(),
            store: Store::Vec(Arc::new(v)),
        }
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl Ord for Bytes {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(32) {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        if self.len() > 32 {
            write!(f, "…+{}", self.len() - 32)?;
        }
        write!(f, "\"")
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self[..].iter()
    }
}

/// Growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// A buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        BytesMut { buf: vec![0; len] }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend);
    }

    /// Adopts the buffer as [`Bytes`] the way `From<Vec<u8>>` does.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut(len={})", self.buf.len())
    }
}

/// Big-endian append operations (the subset of `bytes::BufMut` used).
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Fills the slice from the front, advancing it past what was written;
/// panics when `src` does not fit (as in bytes 1).
impl BufMut for &mut [u8] {
    fn put_slice(&mut self, src: &[u8]) {
        let (head, tail) = std::mem::take(self).split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_storage_and_windows() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let mid = b.slice(2..5);
        assert_eq!(&mid[..], &[2, 3, 4]);
        let tail = mid.slice(1..);
        assert_eq!(&tail[..], &[3, 4]);
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn bytes_mut_put_is_big_endian() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(0xAB);
        m.put_u32(0x01020304);
        m.put_u64(0x05060708090A0B0C);
        let frozen = m.freeze();
        assert_eq!(frozen[0], 0xAB);
        assert_eq!(&frozen[1..5], &[1, 2, 3, 4]);
        assert_eq!(frozen.len(), 13);
    }

    #[test]
    fn zeroed_and_copy_from_slice_roundtrip() {
        let mut z = BytesMut::zeroed(4);
        z[1..3].copy_from_slice(&[9, 9]);
        assert_eq!(&z[..], &[0, 9, 9, 0]);
        let b = Bytes::copy_from_slice(&z);
        assert_eq!(b, [0u8, 9, 9, 0]);
    }

    #[test]
    fn equality_and_static() {
        assert_eq!(Bytes::from_static(b"entry"), *b"entry");
        assert_eq!(Bytes::from("abc"), Bytes::from(vec![b'a', b'b', b'c']));
    }
}
