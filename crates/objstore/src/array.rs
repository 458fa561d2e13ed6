//! Array objects — byte-addressable extents, like the DAOS Array API.
//!
//! Storage is extent-based (as DAOS's versioned object store is): a write
//! records a reference-counted segment; overlapping older segments are
//! trimmed. Reading a range that one segment covers entirely is zero-copy.
//! This matters beyond fidelity: benchmarks write millions of fields that
//! all share one payload buffer, and extent storage keeps memory flat.

use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};

use crate::error::{DaosError, Result};

/// One past the last byte of the extent `[offset, offset + len)`, or
/// `InvalidArg` when that overflows u64. Both `DaosApi` backends check
/// every extent with this before placing or charging anything, so the
/// store never sees an overflowing extent.
pub fn extent_end(offset: u64, len: u64) -> Result<u64> {
    offset
        .checked_add(len)
        .ok_or(DaosError::InvalidArg("array extent overflows u64"))
}

/// An in-memory Array object.
#[derive(Default, Debug, Clone)]
pub struct ArrayObject {
    /// Non-overlapping segments keyed by start offset.
    segments: BTreeMap<u64, Bytes>,
    /// Highest written offset + 1 (DAOS array "size").
    size: u64,
    /// Erasure-coding parity cell, kept out of the byte address space so
    /// `size`/`read` semantics stay clean (DAOS likewise keeps parity in
    /// shadow extents).
    parity: Option<Bytes>,
}

impl ArrayObject {
    pub fn new() -> Self {
        Self::default()
    }

    /// Logical size: one past the highest byte ever written.
    pub fn size(&self) -> u64 {
        self.size
    }

    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Writes `data` at `offset`, trimming any overlapped older extents.
    pub fn write(&mut self, offset: u64, data: Bytes) {
        if data.is_empty() {
            return;
        }
        // Cannot fire through `DaosApi`: both backends reject an
        // overflowing extent with `extent_end` first.
        let end = offset
            .checked_add(data.len() as u64)
            .expect("array extent overflows u64");
        // Find every existing segment that overlaps [offset, end).
        let overlapping: Vec<u64> = self
            .segments
            .range(..end)
            .rev()
            .take_while(|(s, d)| **s + d.len() as u64 > offset)
            .map(|(s, _)| *s)
            .collect();
        for s in overlapping {
            let d = self.segments.remove(&s).expect("segment vanished");
            let d_end = s + d.len() as u64;
            if s < offset {
                // Keep the head that precedes the new write.
                self.segments.insert(s, d.slice(0..(offset - s) as usize));
            }
            if d_end > end {
                // Keep the tail that follows the new write.
                self.segments.insert(end, d.slice((end - s) as usize..));
            }
        }
        self.segments.insert(offset, data);
        self.size = self.size.max(end);
    }

    /// Writes every `(offset, data)` extent, in order (scatter-gather).
    pub fn write_many(&mut self, iovs: Vec<(u64, Bytes)>) {
        for (offset, data) in iovs {
            self.write(offset, data);
        }
    }

    /// Reads `len` bytes at `offset`. Unwritten holes read as zero, as in
    /// DAOS. A range covered by a single segment is returned zero-copy.
    pub fn read(&self, offset: u64, len: u64) -> Bytes {
        if len == 0 {
            return Bytes::new();
        }
        // Cannot fire through `DaosApi`, as in `write`.
        let end = offset.checked_add(len).expect("array extent overflows u64");
        // Fast path: one segment covers everything.
        if let Some((s, d)) = self.segments.range(..=offset).next_back() {
            let d_end = s + d.len() as u64;
            if *s <= offset && d_end >= end {
                return d.slice((offset - s) as usize..(end - s) as usize);
            }
        }
        // Slow path: assemble with zero fill.
        let mut out = BytesMut::zeroed(len as usize);
        for (s, d) in self.segments.range(..end) {
            let d_end = s + d.len() as u64;
            if d_end <= offset {
                continue;
            }
            let copy_start = offset.max(*s);
            let copy_end = end.min(d_end);
            let dst = (copy_start - offset) as usize..(copy_end - offset) as usize;
            let src = (copy_start - s) as usize..(copy_end - s) as usize;
            out[dst].copy_from_slice(&d[src]);
        }
        out.freeze()
    }

    /// Bytes of live extent data (capacity accounting).
    pub fn stored_bytes(&self) -> u64 {
        self.segments.values().map(|d| d.len() as u64).sum()
    }

    /// Stores the erasure-coding parity cell for this object.
    pub fn set_parity(&mut self, parity: Bytes) {
        self.parity = Some(parity);
    }

    /// The stored parity cell, if any.
    pub fn parity(&self) -> Option<Bytes> {
        self.parity.clone()
    }

    /// Iterates live extents as `(offset, data)` in offset order.
    pub fn segments(&self) -> impl Iterator<Item = (u64, Bytes)> + '_ {
        self.segments.iter().map(|(o, d)| (*o, d.clone()))
    }

    /// Drops all extents (punch).
    pub fn punch(&mut self) {
        self.segments.clear();
        self.size = 0;
        self.parity = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(data: &[u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    #[test]
    fn write_read_roundtrip() {
        let mut a = ArrayObject::new();
        a.write(0, b(b"hello world"));
        assert_eq!(a.read(0, 11).as_ref(), b"hello world");
        assert_eq!(a.size(), 11);
    }

    #[test]
    fn read_at_offset_within_segment_is_zero_copy_consistent() {
        let mut a = ArrayObject::new();
        a.write(100, b(b"abcdef"));
        assert_eq!(a.read(102, 3).as_ref(), b"cde");
    }

    #[test]
    fn holes_read_as_zero() {
        let mut a = ArrayObject::new();
        a.write(4, b(b"xy"));
        assert_eq!(a.read(0, 8).as_ref(), b"\0\0\0\0xy\0\0");
        assert_eq!(a.size(), 6);
    }

    #[test]
    fn overwrite_middle_trims_old_segment() {
        let mut a = ArrayObject::new();
        a.write(0, b(b"aaaaaaaaaa"));
        a.write(3, b(b"BBB"));
        assert_eq!(a.read(0, 10).as_ref(), b"aaaBBBaaaa");
        assert_eq!(a.segment_count(), 3);
    }

    #[test]
    fn overwrite_spanning_multiple_segments() {
        let mut a = ArrayObject::new();
        a.write(0, b(b"111"));
        a.write(3, b(b"222"));
        a.write(6, b(b"333"));
        a.write(1, b(b"XXXXXXX"));
        assert_eq!(a.read(0, 9).as_ref(), b"1XXXXXXX3");
    }

    #[test]
    fn overwrite_exact_is_single_segment() {
        let mut a = ArrayObject::new();
        a.write(0, b(b"old-old-"));
        a.write(0, b(b"new-new-"));
        assert_eq!(a.segment_count(), 1);
        assert_eq!(a.read(0, 8).as_ref(), b"new-new-");
    }

    #[test]
    fn stored_bytes_tracks_live_extents() {
        let mut a = ArrayObject::new();
        a.write(0, b(&[1u8; 100]));
        a.write(50, b(&[2u8; 100]));
        // 50 bytes of the first extent survive plus 100 new.
        assert_eq!(a.stored_bytes(), 150);
    }

    #[test]
    fn punch_clears() {
        let mut a = ArrayObject::new();
        a.write(0, b(b"data"));
        a.punch();
        assert_eq!(a.size(), 0);
        assert_eq!(a.read(0, 4).as_ref(), b"\0\0\0\0");
    }

    #[test]
    fn parity_side_channel_is_separate_from_data() {
        let mut a = ArrayObject::new();
        a.write(0, b(b"data"));
        assert!(a.parity().is_none());
        a.set_parity(b(b"pppp"));
        assert_eq!(a.parity().unwrap().as_ref(), b"pppp");
        // Parity does not affect size or reads.
        assert_eq!(a.size(), 4);
        assert_eq!(a.read(0, 4).as_ref(), b"data");
        a.punch();
        assert!(a.parity().is_none());
    }

    #[test]
    fn zero_length_ops_are_noops() {
        let mut a = ArrayObject::new();
        a.write(10, Bytes::new());
        assert_eq!(a.size(), 0);
        assert!(a.read(0, 0).is_empty());
    }

    #[test]
    fn large_shared_payload_is_not_copied() {
        // Many arrays sharing one payload keep a single allocation alive.
        let payload = Bytes::from(vec![7u8; 1024 * 1024]);
        let mut arrays: Vec<ArrayObject> = Vec::new();
        for _ in 0..64 {
            let mut a = ArrayObject::new();
            a.write(0, payload.clone());
            arrays.push(a);
        }
        for a in &arrays {
            // Full-cover read returns a slice of the same buffer.
            let r = a.read(0, payload.len() as u64);
            assert_eq!(r.as_ptr(), payload.as_ptr());
        }
    }
}
