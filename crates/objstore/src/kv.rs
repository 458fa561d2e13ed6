//! Key-Value objects — the index building block of the field I/O scheme.
//!
//! A DAOS Key-Value object maps opaque byte keys to opaque byte values
//! under last-writer-wins semantics. Keys are kept ordered so listings
//! are deterministic.
//!
//! Keys are stored as [`Bytes`] so listings hand back cheap refcount
//! clones instead of deep-copying every key, and `put` on an existing
//! key replaces the value in place without copying key bytes at all.
//! Lookups still take `&[u8]` (the map is queried through
//! `Borrow<[u8]>`), so callers never allocate to probe.

use std::collections::BTreeMap;
use std::ops::Bound;

use bytes::Bytes;

/// An in-memory Key-Value object.
#[derive(Default, Debug, Clone)]
pub struct KvObject {
    entries: BTreeMap<Bytes, Bytes>,
}

impl KvObject {
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces `key`; returns the previous value, if any.
    /// Replacing an existing key swaps the value in place — the key
    /// bytes are only copied when the key is first inserted.
    pub fn put(&mut self, key: &[u8], value: Bytes) -> Option<Bytes> {
        if let Some(slot) = self.entries.get_mut(key) {
            return Some(std::mem::replace(slot, value));
        }
        self.entries.insert(Bytes::copy_from_slice(key), value);
        None
    }

    /// Inserts or replaces `key` without copying it — for callers that
    /// already hold the key as [`Bytes`].
    pub fn put_owned(&mut self, key: Bytes, value: Bytes) -> Option<Bytes> {
        self.entries.insert(key, value)
    }

    /// Inserts or replaces every pair, in order (vectorized update).
    pub fn put_many(&mut self, pairs: &[(Bytes, Bytes)]) {
        for (key, value) in pairs {
            self.entries.insert(key.clone(), value.clone());
        }
    }

    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.entries.get(key).cloned()
    }

    pub fn contains(&self, key: &[u8]) -> bool {
        self.entries.contains_key(key)
    }

    /// Removes `key`; returns the removed value, if any.
    pub fn remove(&mut self, key: &[u8]) -> Option<Bytes> {
        self.entries.remove(key)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All keys in lexicographic order (refcount clones, not deep
    /// copies).
    pub fn list_keys(&self) -> Vec<Bytes> {
        self.list_range(b"", None)
    }

    /// Keys starting with `prefix`, in lexicographic order.
    pub fn list_prefix(&self, prefix: &[u8]) -> Vec<Bytes> {
        self.entries
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Keys in `[from, until)` (`until = None` means unbounded), in
    /// lexicographic order. The half-open contract matches the usual
    /// scan idiom: the end of a prefix range is the prefix's successor.
    /// A degenerate window (`until <= from`) is the empty range —
    /// `BTreeMap::range` would panic on inverted bounds.
    pub fn list_range(&self, from: &[u8], until: Option<&[u8]>) -> Vec<Bytes> {
        let upper = match until {
            Some(end) if end <= from => return Vec::new(),
            Some(end) => Bound::Excluded(end),
            None => Bound::Unbounded,
        };
        self.entries
            .range::<[u8], _>((Bound::Included(from), upper))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &Bytes)> {
        self.entries.iter().map(|(k, v)| (&k[..], v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut kv = KvObject::new();
        assert!(kv.put(b"step=0", Bytes::from_static(b"ref-a")).is_none());
        assert_eq!(kv.get(b"step=0").unwrap().as_ref(), b"ref-a");
        assert!(kv.get(b"step=1").is_none());
    }

    #[test]
    fn put_replaces_and_returns_previous() {
        let mut kv = KvObject::new();
        kv.put(b"k", Bytes::from_static(b"old"));
        let prev = kv.put(b"k", Bytes::from_static(b"new")).unwrap();
        assert_eq!(prev.as_ref(), b"old");
        assert_eq!(kv.get(b"k").unwrap().as_ref(), b"new");
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn remove_and_len() {
        let mut kv = KvObject::new();
        kv.put(b"a", Bytes::new());
        kv.put(b"b", Bytes::new());
        assert_eq!(kv.remove(b"a").map(|b| b.len()), Some(0));
        assert!(kv.remove(b"a").is_none());
        assert_eq!(kv.len(), 1);
        assert!(!kv.is_empty());
    }

    #[test]
    fn list_keys_is_ordered() {
        let mut kv = KvObject::new();
        for k in ["zeta", "alpha", "mid"] {
            kv.put(k.as_bytes(), Bytes::new());
        }
        assert_eq!(
            kv.list_keys(),
            vec![b"alpha".to_vec(), b"mid".to_vec(), b"zeta".to_vec()]
        );
    }

    #[test]
    fn list_prefix_selects_exactly_the_prefix() {
        let mut kv = KvObject::new();
        for k in ["step=0", "step=1", "step=10", "stop", "alpha"] {
            kv.put(k.as_bytes(), Bytes::new());
        }
        assert_eq!(
            kv.list_prefix(b"step="),
            vec![b"step=0".to_vec(), b"step=1".to_vec(), b"step=10".to_vec()]
        );
        assert_eq!(kv.list_prefix(b""), kv.list_keys());
        assert!(kv.list_prefix(b"zz").is_empty());
    }

    #[test]
    fn list_range_is_half_open() {
        let mut kv = KvObject::new();
        for k in ["a", "b", "c", "d"] {
            kv.put(k.as_bytes(), Bytes::new());
        }
        assert_eq!(
            kv.list_range(b"b", Some(b"d")),
            vec![b"b".to_vec(), b"c".to_vec()]
        );
        assert_eq!(
            kv.list_range(b"c", None),
            vec![b"c".to_vec(), b"d".to_vec()]
        );
        assert!(kv.list_range(b"x", Some(b"x")).is_empty());
    }

    #[test]
    fn list_boundaries_on_empty_and_degenerate_ranges() {
        // Empty object: every listing shape is empty, no underflow.
        let kv = KvObject::new();
        assert!(kv.list_keys().is_empty());
        assert!(kv.list_prefix(b"").is_empty());
        assert!(kv.list_range(b"", None).is_empty());
        assert!(kv.list_range(b"a", Some(b"a")).is_empty());

        // start == end is the empty half-open range even when a key sits
        // exactly on the bound.
        let mut kv = KvObject::new();
        kv.put(b"a", Bytes::new());
        assert!(kv.list_range(b"a", Some(b"a")).is_empty());
        // Inverted bounds are just an empty range, not a panic.
        assert!(kv.list_range(b"b", Some(b"a")).is_empty());
    }

    #[test]
    fn list_prefix_at_the_field_keys_sentinel() {
        // The fieldio index scans from the reserved-prefix successor
        // b"_\x60" ("_`"); a prefix equal to that sentinel must select
        // exactly the keys it lexically covers.
        let mut kv = KvObject::new();
        for k in [&b"_\x5f"[..], b"_\x60", b"_\x60abc", b"_\x61", b"_"] {
            kv.put(k, Bytes::new());
        }
        assert_eq!(
            kv.list_prefix(b"_\x60"),
            vec![
                Bytes::from_static(b"_\x60"),
                Bytes::from_static(b"_\x60abc")
            ]
        );
        // And the fieldio scan shape — range from the sentinel, open
        // end — sees everything at or above it.
        assert_eq!(
            kv.list_range(b"_\x60", None),
            vec![
                Bytes::from_static(b"_\x60"),
                Bytes::from_static(b"_\x60abc"),
                Bytes::from_static(b"_\x61"),
            ]
        );
    }

    #[test]
    fn list_handles_0xff_keys_at_the_top_of_the_order() {
        // 0xff has no single-byte successor; prefix and range listings
        // must still terminate and include the right keys.
        let mut kv = KvObject::new();
        for k in [&[0xfeu8][..], &[0xff], &[0xff, 0x00], &[0xff, 0xff]] {
            kv.put(k, Bytes::new());
        }
        assert_eq!(
            kv.list_prefix(&[0xff]),
            vec![
                Bytes::from_static(&[0xff]),
                Bytes::from_static(&[0xff, 0x00]),
                Bytes::from_static(&[0xff, 0xff]),
            ]
        );
        assert_eq!(
            kv.list_range(&[0xff], None),
            vec![
                Bytes::from_static(&[0xff]),
                Bytes::from_static(&[0xff, 0x00]),
                Bytes::from_static(&[0xff, 0xff]),
            ]
        );
        // An exclusive 0xff bound keeps everything below it.
        assert_eq!(
            kv.list_range(&[], Some(&[0xff])),
            vec![Bytes::from_static(&[0xfe])]
        );
        // A key that IS 0xff... can still be the exclusive bound.
        assert_eq!(
            kv.list_range(&[0xff], Some(&[0xff, 0xff])),
            vec![
                Bytes::from_static(&[0xff]),
                Bytes::from_static(&[0xff, 0x00])
            ]
        );
    }

    #[test]
    fn put_owned_and_existing_key_share_storage() {
        let mut kv = KvObject::new();
        let key = Bytes::from_static(b"shared");
        kv.put_owned(key.clone(), Bytes::from_static(b"v1"));
        // Replacing through the slice path must not clone the key.
        kv.put(b"shared", Bytes::from_static(b"v2"));
        assert_eq!(kv.len(), 1);
        assert_eq!(kv.get(b"shared").unwrap().as_ref(), b"v2");
    }

    #[test]
    fn empty_key_is_legal() {
        let mut kv = KvObject::new();
        kv.put(b"", Bytes::from_static(b"v"));
        assert!(kv.contains(b""));
    }
}
