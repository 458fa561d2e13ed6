//! Deterministic object placement over pool targets.
//!
//! DAOS places object shards with a pseudo-random algebraic map over the
//! pool map. We reproduce the properties that matter for performance
//! modelling: placement is a pure function of `(oid, pool size)`, shards
//! of a striped object land on distinct targets, Key-Value distribution
//! keys spread over the stripe by hash, and Array chunks round-robin over
//! the stripe.

use crate::oid::Oid;

/// Chunk size used when striping Array data across targets. DAOS defaults
/// to 1 MiB chunks for the Array API, which the paper keeps.
pub const ARRAY_CHUNK: u64 = 1024 * 1024;

#[inline]
fn mix(mut x: u64) -> u64 {
    // SplitMix64 finalizer: cheap and well distributed.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over a byte string — used for distribution-key hashing.
#[inline]
pub fn hash_key(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn base_target(oid: Oid, pool_targets: u32) -> u32 {
    let v = oid.as_u128();
    (mix((v >> 64) as u64 ^ mix(v as u64)) % pool_targets as u64) as u32
}

/// The targets an object's stripe occupies, in shard order. Consecutive
/// ring slots starting at a hashed base, so shards are distinct whenever
/// the stripe width allows it.
pub fn stripe_targets(oid: Oid, pool_targets: u32) -> Vec<u32> {
    assert!(pool_targets > 0, "pool must have targets");
    let width = oid.class().stripe_width(pool_targets);
    let base = base_target(oid, pool_targets);
    (0..width).map(|i| (base + i) % pool_targets).collect()
}

/// The target serving a Key-Value distribution key: keys hash over the
/// object's stripe.
/// Equals `stripe_targets(oid, pool_targets)[hash % width]`, computed
/// without building the stripe.
pub fn kv_target(oid: Oid, key: &[u8], pool_targets: u32) -> u32 {
    assert!(pool_targets > 0, "pool must have targets");
    let width = oid.class().stripe_width(pool_targets);
    let slot = (hash_key(key) % width as u64) as u32;
    (base_target(oid, pool_targets) + slot) % pool_targets
}

/// The "leader" target of an object — where object-level bookkeeping
/// (open, punch, update ordering) is served: its first stripe target.
pub fn leader_target(oid: Oid, pool_targets: u32) -> u32 {
    assert!(pool_targets > 0, "pool must have targets");
    base_target(oid, pool_targets)
}

/// The replica targets of an object's (single) data shard, leader first.
/// Replicas stride `pool/replicas` apart so they fall into different
/// fault domains (different engines/nodes), as DAOS's placement does —
/// adjacent slots would usually share an engine and defeat redundancy.
pub fn replica_targets(oid: Oid, pool_targets: u32) -> Vec<u32> {
    assert!(pool_targets > 0, "pool must have targets");
    let n = oid.class().replicas(pool_targets);
    let base = base_target(oid, pool_targets);
    let stride = (pool_targets / n).max(1);
    (0..n).map(|i| (base + i * stride) % pool_targets).collect()
}

/// The EC layout of an object: two data-cell targets plus the parity
/// target, spread across fault domains like replicas are.
pub fn ec_targets(oid: Oid, pool_targets: u32) -> (Vec<u32>, u32) {
    assert!(pool_targets > 0, "pool must have targets");
    let base = base_target(oid, pool_targets);
    let stride = (pool_targets / 3).max(1);
    let d0 = base;
    let d1 = (base + stride) % pool_targets;
    let parity = (base + 2 * stride) % pool_targets;
    (vec![d0, d1], parity)
}

/// Splits a byte extent into per-target chunks for an Array object.
/// Returns `(target, bytes)` pairs in chunk order; consecutive chunks
/// round-robin over the stripe.
pub fn array_extent_shards(oid: Oid, offset: u64, len: u64, pool_targets: u32) -> Vec<(u32, u64)> {
    let stripe = stripe_targets(oid, pool_targets);
    let mut shards: Vec<(u32, u64)> = Vec::new();
    let mut off = offset;
    let end = offset + len;
    while off < end {
        let chunk_idx = off / ARRAY_CHUNK;
        let chunk_end = (chunk_idx + 1) * ARRAY_CHUNK;
        let take = chunk_end.min(end) - off;
        let tgt = stripe[(chunk_idx % stripe.len() as u64) as usize];
        // Merge with previous shard when the same target serves
        // consecutive chunks (e.g. S1 objects).
        match shards.last_mut() {
            Some((t, b)) if *t == tgt => *b += take,
            _ => shards.push((tgt, take)),
        }
        off += take;
    }
    shards
}

/// Splits a byte extent into **one shard per target** (chunks grouped by
/// owning target), in first-touch order — one bulk RPC per target, as the
/// DAOS client aggregates scatter-gather I/O. `S2` at 20 MiB therefore
/// issues 2 RPCs of 10 MiB while `SX` issues one per stripe target.
pub fn array_target_shards(oid: Oid, offset: u64, len: u64, pool_targets: u32) -> Vec<(u32, u64)> {
    let chunks = array_extent_shards(oid, offset, len, pool_targets);
    let mut out: Vec<(u32, u64)> = Vec::new();
    for (t, b) in chunks {
        match out.iter_mut().find(|(ot, _)| *ot == t) {
            Some((_, ob)) => *ob += b,
            None => out.push((t, b)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::{ObjectClass, Oid};

    fn oid(n: u64, class: ObjectClass) -> Oid {
        Oid::generate(7, n, class)
    }

    #[test]
    fn stripe_widths_match_class() {
        assert_eq!(stripe_targets(oid(1, ObjectClass::S1), 24).len(), 1);
        assert_eq!(stripe_targets(oid(1, ObjectClass::S2), 24).len(), 2);
        assert_eq!(stripe_targets(oid(1, ObjectClass::SX), 24).len(), 24);
    }

    #[test]
    fn stripe_targets_are_distinct() {
        let s = stripe_targets(oid(9, ObjectClass::SX), 24);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 24);
    }

    #[test]
    fn placement_is_deterministic() {
        for n in 0..50 {
            let a = stripe_targets(oid(n, ObjectClass::S2), 24);
            let b = stripe_targets(oid(n, ObjectClass::S2), 24);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn s1_objects_spread_over_targets() {
        // Many distinct S1 objects should land on many distinct targets.
        let used: std::collections::HashSet<u32> = (0..200)
            .map(|n| stripe_targets(oid(n, ObjectClass::S1), 24)[0])
            .collect();
        assert!(used.len() >= 20, "only {} targets used", used.len());
    }

    #[test]
    fn kv_keys_spread_over_sx_stripe() {
        let o = oid(3, ObjectClass::SX);
        let used: std::collections::HashSet<u32> = (0..200)
            .map(|i| kv_target(o, format!("key-{i}").as_bytes(), 24))
            .collect();
        assert!(used.len() >= 20, "only {} targets used", used.len());
    }

    #[test]
    fn kv_on_s1_always_same_target() {
        let o = oid(3, ObjectClass::S1);
        let t0 = kv_target(o, b"a", 24);
        for i in 0..50 {
            assert_eq!(kv_target(o, format!("k{i}").as_bytes(), 24), t0);
        }
    }

    #[test]
    fn array_shards_cover_extent_exactly() {
        let o = oid(5, ObjectClass::SX);
        let shards = array_extent_shards(o, 500_000, 5 * ARRAY_CHUNK + 123, 24);
        let total: u64 = shards.iter().map(|(_, b)| b).sum();
        assert_eq!(total, 5 * ARRAY_CHUNK + 123);
    }

    #[test]
    fn s1_array_is_single_shard() {
        let o = oid(5, ObjectClass::S1);
        let shards = array_extent_shards(o, 0, 20 * ARRAY_CHUNK, 24);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].1, 20 * ARRAY_CHUNK);
    }

    #[test]
    fn sx_array_round_robins_chunks() {
        let o = oid(5, ObjectClass::SX);
        let shards = array_extent_shards(o, 0, 4 * ARRAY_CHUNK, 24);
        assert_eq!(shards.len(), 4);
        let stripe = stripe_targets(o, 24);
        for (i, (t, b)) in shards.iter().enumerate() {
            assert_eq!(*t, stripe[i]);
            assert_eq!(*b, ARRAY_CHUNK);
        }
    }

    #[test]
    fn replica_targets_distinct_and_led_by_leader() {
        let o = oid(8, ObjectClass::RP2);
        let reps = replica_targets(o, 24);
        assert_eq!(reps.len(), 2);
        assert_ne!(reps[0], reps[1]);
        assert_eq!(reps[0], leader_target(o, 24));
        // Fault-domain spread: with 2 engines x 12 targets, the replicas
        // must land in different engines.
        assert_ne!(reps[0] / 12, reps[1] / 12, "replicas share an engine");
        // Unreplicated classes have a single "replica".
        assert_eq!(replica_targets(oid(8, ObjectClass::S1), 24).len(), 1);
        // A one-target pool degenerates gracefully.
        assert_eq!(replica_targets(o, 1), vec![0]);
    }

    #[test]
    fn ec_targets_are_spread_across_fault_domains() {
        let o = oid(12, ObjectClass::EC2P1);
        let (data, parity) = ec_targets(o, 24);
        let mut all = data.clone();
        all.push(parity);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "cells must land on distinct targets");
        // With 2 engines x 12 targets, at least two engines are involved.
        let engines: std::collections::HashSet<u32> = all.iter().map(|t| t / 12).collect();
        assert!(engines.len() >= 2, "EC cells all in one engine: {all:?}");
    }

    #[test]
    fn target_shards_group_by_target() {
        let o = oid(6, ObjectClass::S2);
        // 20 chunks alternate over 2 targets -> exactly 2 shards of 10.
        let shards = array_target_shards(o, 0, 20 * ARRAY_CHUNK, 24);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].1, 10 * ARRAY_CHUNK);
        assert_eq!(shards[1].1, 10 * ARRAY_CHUNK);
        let total: u64 = array_target_shards(o, 123, 5 * ARRAY_CHUNK + 7, 24)
            .iter()
            .map(|(_, b)| b)
            .sum();
        assert_eq!(total, 5 * ARRAY_CHUNK + 7);
    }

    #[test]
    fn leader_is_first_stripe_target() {
        let o = oid(11, ObjectClass::S2);
        assert_eq!(leader_target(o, 24), stripe_targets(o, 24)[0]);
    }
}
