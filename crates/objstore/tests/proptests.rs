//! Property-based tests: the store against reference models.

use bytes::Bytes;
use daosim_objstore::placement::{
    array_target_shards, hash_key, kv_target, leader_target, stripe_targets,
};
use daosim_objstore::{ArrayObject, KvObject, ObjectClass, Oid};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// ArrayObject vs a flat Vec<u8> reference model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ArrayOp {
    Write { offset: u64, data: Vec<u8> },
    Read { offset: u64, len: u64 },
    Punch,
}

fn array_op() -> impl Strategy<Value = ArrayOp> {
    prop_oneof![
        4 => (0u64..2000, proptest::collection::vec(any::<u8>(), 1..300))
            .prop_map(|(offset, data)| ArrayOp::Write { offset, data }),
        4 => (0u64..2500, 0u64..600).prop_map(|(offset, len)| ArrayOp::Read { offset, len }),
        1 => Just(ArrayOp::Punch),
    ]
}

proptest! {
    #[test]
    fn array_matches_flat_buffer_model(ops in proptest::collection::vec(array_op(), 1..60)) {
        let mut a = ArrayObject::new();
        let mut model: Vec<u8> = Vec::new();
        for op in ops {
            match op {
                ArrayOp::Write { offset, data } => {
                    let end = offset as usize + data.len();
                    if model.len() < end {
                        model.resize(end, 0);
                    }
                    model[offset as usize..end].copy_from_slice(&data);
                    a.write(offset, Bytes::from(data));
                }
                ArrayOp::Read { offset, len } => {
                    let got = a.read(offset, len);
                    let mut want = vec![0u8; len as usize];
                    let start = (offset as usize).min(model.len());
                    let end = ((offset + len) as usize).min(model.len());
                    if start < end {
                        want[..end - start].copy_from_slice(&model[start..end]);
                    }
                    prop_assert_eq!(got.as_ref(), want.as_slice());
                }
                ArrayOp::Punch => {
                    a.punch();
                    model.clear();
                }
            }
            prop_assert_eq!(a.size(), model.len() as u64);
        }
    }

    #[test]
    fn array_stored_bytes_never_exceeds_written(
        writes in proptest::collection::vec((0u64..5000, 1usize..500), 1..40)
    ) {
        let mut a = ArrayObject::new();
        let mut total = 0u64;
        for (offset, len) in writes {
            a.write(offset, Bytes::from(vec![1u8; len]));
            total += len as u64;
            prop_assert!(a.stored_bytes() <= total);
            prop_assert!(a.stored_bytes() >= len as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// KvObject vs a BTreeMap reference model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum KvOp {
    Put(Vec<u8>, Vec<u8>),
    Get(Vec<u8>),
    Remove(Vec<u8>),
}

fn kv_op() -> impl Strategy<Value = KvOp> {
    let key = proptest::collection::vec(any::<u8>(), 0..12);
    let val = proptest::collection::vec(any::<u8>(), 0..24);
    prop_oneof![
        3 => (key.clone(), val).prop_map(|(k, v)| KvOp::Put(k, v)),
        2 => key.clone().prop_map(KvOp::Get),
        1 => key.prop_map(KvOp::Remove),
    ]
}

proptest! {
    #[test]
    fn kv_matches_btreemap_model(ops in proptest::collection::vec(kv_op(), 1..80)) {
        let mut kv = KvObject::new();
        let mut model = std::collections::BTreeMap::<Vec<u8>, Vec<u8>>::new();
        for op in ops {
            match op {
                KvOp::Put(k, v) => {
                    let prev = kv.put(&k, Bytes::from(v.clone()));
                    let mprev = model.insert(k, v);
                    prop_assert_eq!(prev.map(|b| b.to_vec()), mprev);
                }
                KvOp::Get(k) => {
                    prop_assert_eq!(
                        kv.get(&k).map(|b| b.to_vec()),
                        model.get(&k).cloned()
                    );
                }
                KvOp::Remove(k) => {
                    prop_assert_eq!(
                        kv.remove(&k).map(|b| b.to_vec()),
                        model.remove(&k)
                    );
                }
            }
            prop_assert_eq!(kv.len(), model.len());
        }
        let keys: Vec<Vec<u8>> = model.keys().cloned().collect();
        prop_assert_eq!(kv.list_keys(), keys);
        // Range and prefix listings agree with the model's view.
        let from_mid: Vec<Vec<u8>> = model.range(vec![0x40u8]..).map(|(k, _)| k.clone()).collect();
        prop_assert_eq!(kv.list_range(&[0x40], None), from_mid);
        let below_mid: Vec<Vec<u8>> =
            model.range(..vec![0x40u8]).map(|(k, _)| k.clone()).collect();
        prop_assert_eq!(kv.list_range(b"", Some(&[0x40])), below_mid);
        let prefixed: Vec<Vec<u8>> = model
            .keys()
            .filter(|k| k.starts_with(&[0x40]))
            .cloned()
            .collect();
        prop_assert_eq!(kv.list_prefix(&[0x40]), prefixed);
    }
}

// ---------------------------------------------------------------------------
// Range/prefix listing boundary semantics vs the list_keys oracle
// ---------------------------------------------------------------------------

/// Keys drawn from a deliberately nasty alphabet: the bytes around the
/// fieldio `FIELD_KEYS_FROM` sentinel (`b"_\x60"`), plus `0xfe`/`0xff`
/// so ranges and prefixes hit the top of the byte order, with short
/// lengths to force boundary collisions.
fn boundary_key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(0x5eu8),
            Just(0x5f),
            Just(0x60),
            Just(0x61),
            Just(0xfe),
            Just(0xff)
        ],
        0..4,
    )
}

proptest! {
    /// `list_range`/`list_prefix` agree with filtering the naive
    /// `list_keys` oracle for arbitrary bounds — including empty ranges
    /// (start == end), bounds equal to the `b"_\x60"` sentinel, and keys
    /// containing 0xff.
    #[test]
    fn kv_listings_match_list_keys_oracle(
        keys in proptest::collection::vec(boundary_key(), 0..24),
        from in boundary_key(),
        until_key in boundary_key(),
        bounded in any::<bool>(),
        prefix in boundary_key(),
    ) {
        let until = bounded.then_some(until_key);
        let mut kv = KvObject::new();
        for k in &keys {
            kv.put(k, Bytes::new());
        }
        let oracle = kv.list_keys();
        // The oracle itself is the deduplicated, sorted key set.
        let sorted: Vec<Vec<u8>> = keys
            .iter()
            .cloned()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        prop_assert_eq!(
            oracle.iter().map(|b| b.to_vec()).collect::<Vec<_>>(),
            sorted
        );

        let want_range: Vec<Bytes> = oracle
            .iter()
            .filter(|k| {
                k.as_ref() >= from.as_slice()
                    && until.as_ref().is_none_or(|u| k.as_ref() < u.as_slice())
            })
            .cloned()
            .collect();
        prop_assert_eq!(kv.list_range(&from, until.as_deref()), want_range);

        // start == end is always the empty half-open range, even when a
        // key sits exactly on the bound.
        prop_assert!(kv.list_range(&from, Some(&from)).is_empty());

        let want_prefix: Vec<Bytes> = oracle
            .iter()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        prop_assert_eq!(kv.list_prefix(&prefix), want_prefix);

        // An unbounded scan from the empty key IS the oracle.
        prop_assert_eq!(kv.list_range(b"", None), oracle);
    }
}

// ---------------------------------------------------------------------------
// Placement invariants
// ---------------------------------------------------------------------------

fn any_class() -> impl Strategy<Value = ObjectClass> {
    prop_oneof![
        Just(ObjectClass::S1),
        Just(ObjectClass::S2),
        Just(ObjectClass::SX),
        Just(ObjectClass::RP2)
    ]
}

proptest! {
    #[test]
    fn stripe_targets_valid_and_distinct(
        hi in any::<u32>(), lo in any::<u64>(), class in any_class(), targets in 1u32..256
    ) {
        let oid = Oid::generate(hi, lo, class);
        let stripe = stripe_targets(oid, targets);
        prop_assert_eq!(stripe.len() as u32, class.stripe_width(targets));
        let mut sorted = stripe.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), stripe.len(), "stripe shards must be distinct");
        for t in stripe {
            prop_assert!(t < targets);
        }
    }

    #[test]
    fn target_shards_conserve_bytes_and_respect_stripe(
        hi in any::<u32>(), lo in any::<u64>(), class in any_class(),
        offset in 0u64..(64 << 20), len in 1u64..(64 << 20), targets in 1u32..256
    ) {
        let oid = Oid::generate(hi, lo, class);
        let shards = array_target_shards(oid, offset, len, targets);
        let total: u64 = shards.iter().map(|(_, b)| b).sum();
        prop_assert_eq!(total, len);
        let stripe = stripe_targets(oid, targets);
        for (t, b) in &shards {
            prop_assert!(stripe.contains(t), "shard target outside stripe");
            prop_assert!(*b > 0);
        }
        // Grouped: each target appears at most once.
        let mut ts: Vec<u32> = shards.iter().map(|(t, _)| *t).collect();
        ts.sort_unstable();
        ts.dedup();
        prop_assert_eq!(ts.len(), shards.len());
    }

    #[test]
    fn replica_targets_distinct_when_pool_allows(
        hi in any::<u32>(), lo in any::<u64>(), targets in 2u32..256
    ) {
        use daosim_objstore::placement::replica_targets;
        let oid = Oid::generate(hi, lo, ObjectClass::RP2);
        let reps = replica_targets(oid, targets);
        prop_assert_eq!(reps.len(), 2);
        prop_assert_ne!(reps[0], reps[1]);
        for t in reps {
            prop_assert!(t < targets);
        }
    }

    /// The arithmetic `kv_target` and `leader_target` pick exactly the
    /// stripe slot the materialised stripe would, for every object class
    /// and every pool size up to 256 targets.
    #[test]
    fn kv_and_leader_targets_index_the_stripe(
        hi in any::<u32>(), lo in any::<u64>(),
        key in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let classes = [
            ObjectClass::S1,
            ObjectClass::S2,
            ObjectClass::SX,
            ObjectClass::RP2,
            ObjectClass::EC2P1,
        ];
        for class in classes {
            let oid = Oid::generate(hi, lo, class);
            for n in 1..=256u32 {
                let stripe = stripe_targets(oid, n);
                let slot = (hash_key(&key) % stripe.len() as u64) as usize;
                prop_assert_eq!(kv_target(oid, &key, n), stripe[slot], "{:?} n={}", class, n);
                prop_assert_eq!(leader_target(oid, n), stripe[0], "{:?} n={}", class, n);
            }
        }
    }

    #[test]
    fn oid_roundtrip(hi in any::<u32>(), lo in any::<u64>(), class in any_class()) {
        let oid = Oid::generate(hi, lo, class);
        prop_assert_eq!(oid.class(), class);
        prop_assert_eq!(oid.user_bits(), (hi, lo));
    }
}

// ---------------------------------------------------------------------------
// Erasure-coding math
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn ec_reconstruction_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        use daosim_objstore::ec;
        let payload = Bytes::from(data);
        let (h0, h1) = ec::split_halves(&payload);
        prop_assert_eq!(ec::join_halves(&h0, &h1), payload.clone());
        let parity = ec::xor_parity(&h0, &h1);
        prop_assert_eq!(parity.len(), h0.len().max(h1.len()));
        // Either lost cell reconstructs exactly.
        prop_assert_eq!(
            ec::reconstruct_cell(&h1, &parity, h0.len()),
            h0.to_vec()
        );
        prop_assert_eq!(
            ec::reconstruct_cell(&h0, &parity, h1.len()),
            h1.to_vec()
        );
    }

    #[test]
    fn ec_parity_is_symmetric(a in proptest::collection::vec(any::<u8>(), 0..512),
                              b in proptest::collection::vec(any::<u8>(), 0..512)) {
        use daosim_objstore::ec::xor_parity;
        prop_assert_eq!(xor_parity(&a, &b), xor_parity(&b, &a));
        // XOR with self is zero.
        let z = xor_parity(&a, &a);
        prop_assert!(z.iter().all(|&x| x == 0));
    }
}

// ---------------------------------------------------------------------------
// md5 basic properties (correctness vectors live in unit tests)
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn md5_is_deterministic_and_input_sensitive(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        use daosim_objstore::md5::md5;
        let a = md5(&data);
        let b = md5(&data);
        prop_assert_eq!(a, b);
        let mut flipped = data.clone();
        if !flipped.is_empty() {
            flipped[0] ^= 1;
            prop_assert_ne!(md5(&flipped), a);
        }
    }
}
