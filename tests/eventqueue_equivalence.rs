//! Property-based backend equivalence for the event-queue API.
//!
//! The embedded store completes every launched operation inline; the
//! simulated cluster runs each as its own kernel task with real latency.
//! Completion *order* therefore differs, but the outcome attached to each
//! event — identified by its launch-order id — and the final store state
//! must be identical for any interleaving of launches, polls and waits.
//! Likewise `kv_put_multi` must be indistinguishable from the equivalent
//! sequence of `kv_put`s on both backends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use daosim::bytes::Bytes;
use daosim::cluster::{ClusterSpec, Deployment, SimClient};
use daosim::kernel::Sim;
use daosim::objstore::{
    DaosApi, EmbeddedClient, EventQueue, ObjectClass, OidAllocator, OpOutput, Pool, Uuid,
    DEFAULT_POOL_CAPACITY,
};
use proptest::prelude::*;

const KVS: u8 = 2;
const ARRAYS: u8 = 2;
const SETUP_KEYS: u8 = 6;
const SETUP_BYTES: u64 = 4096;
/// EQ-phase array writes land above the setup region, one disjoint slot
/// per op index, so read results never depend on completion order.
const WRITE_BASE: u64 = 8192;
const WRITE_SLOT: u64 = 512;

#[derive(Debug, Clone)]
enum EqOp {
    /// `kv_put` to a key unique to this op index (no read races).
    KvPut { kv: u8, val: u8 },
    /// `kv_get` of a setup-phase key.
    KvGet { kv: u8, key: u8 },
    /// `kv_put_multi` of `n` keys unique to this op index.
    KvPutMulti { kv: u8, n: u8, val: u8 },
    /// `array_write` into this op's private slot.
    ArrWrite { arr: u8, len: u16, val: u8 },
    /// `array_read` within the setup-populated region.
    ArrRead { arr: u8, off: u16, len: u16 },
    /// Harvest at most one completion without blocking.
    Poll,
    /// Block for one completion (no-op when idle).
    Wait,
    /// Drain the queue.
    WaitAll,
}

fn eq_op() -> impl Strategy<Value = EqOp> {
    prop_oneof![
        (0..KVS, any::<u8>()).prop_map(|(kv, val)| EqOp::KvPut { kv, val }),
        (0..KVS, 0..SETUP_KEYS).prop_map(|(kv, key)| EqOp::KvGet { kv, key }),
        (0..KVS, 1u8..5, any::<u8>()).prop_map(|(kv, n, val)| EqOp::KvPutMulti { kv, n, val }),
        (0..ARRAYS, 1u16..512, any::<u8>()).prop_map(|(arr, len, val)| EqOp::ArrWrite {
            arr,
            len,
            val
        }),
        (0..ARRAYS, 0u16..3584, 1u16..512).prop_map(|(arr, off, len)| EqOp::ArrRead {
            arr,
            off,
            len
        }),
        Just(EqOp::Poll),
        Just(EqOp::Wait),
        Just(EqOp::WaitAll),
    ]
}

fn describe(out: &Result<OpOutput, daosim::objstore::DaosError>) -> String {
    match out {
        Ok(OpOutput::Unit) => "unit".into(),
        Ok(OpOutput::Data(b)) => format!("data:{:02x?}", &b[..]),
        Ok(OpOutput::MaybeData(v)) => format!("maybe:{:02x?}", v.as_deref()),
        Ok(OpOutput::Keys(k)) => {
            let mut k: Vec<&[u8]> = k.iter().map(|b| &b[..]).collect();
            k.sort();
            format!("keys:{k:02x?}")
        }
        Ok(OpOutput::Size(n)) => format!("size:{n}"),
        Err(e) => format!("err:{e:?}"),
    }
}

/// Runs the EQ program and returns (event id -> outcome, final KV state).
async fn run_program<D: DaosApi>(client: D, ops: Vec<EqOp>) -> (BTreeMap<u64, String>, String) {
    let cont = client
        .cont_open_or_create(Uuid::from_name(b"eq-prop"))
        .await
        .expect("cont");
    let mut alloc = OidAllocator::new(11);
    let kv_oids: Vec<_> = (0..KVS).map(|_| alloc.next(ObjectClass::S1)).collect();
    let arr_oids: Vec<_> = (0..ARRAYS).map(|_| alloc.next(ObjectClass::S1)).collect();

    // Setup phase: synchronous, identical on both backends.
    for (i, &oid) in kv_oids.iter().enumerate() {
        for k in 0..SETUP_KEYS {
            let val = Bytes::from(vec![i as u8 ^ k; 16]);
            client
                .kv_put(&cont, oid, &[k], val)
                .await
                .expect("setup put");
        }
    }
    let mut handles = Vec::new();
    for &oid in &arr_oids {
        let h = client.array_create(&cont, oid).await.expect("setup create");
        let pattern = Bytes::from((0..SETUP_BYTES).map(|b| b as u8).collect::<Vec<u8>>());
        client
            .array_write(&cont, &h, 0, pattern)
            .await
            .expect("setup write");
        handles.push(h);
    }

    // EQ phase: the generated interleaving of launches and harvests.
    let eq = EventQueue::new(client.clone());
    let mut harvested: BTreeMap<u64, String> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        let slot = i as u64;
        match op {
            EqOp::KvPut { kv, val } => {
                let key = [0xF0, slot as u8, (slot >> 8) as u8];
                let value = Bytes::from(vec![*val; 8]);
                eq.kv_put(&cont, kv_oids[*kv as usize], &key, value);
            }
            EqOp::KvGet { kv, key } => {
                eq.kv_get(&cont, kv_oids[*kv as usize], &[*key]);
            }
            EqOp::KvPutMulti { kv, n, val } => {
                let pairs = (0..*n)
                    .map(|j| {
                        let key = Bytes::from(vec![0xE0, slot as u8, (slot >> 8) as u8, j]);
                        (key, Bytes::from(vec![val.wrapping_add(j); 8]))
                    })
                    .collect();
                eq.kv_put_multi(&cont, kv_oids[*kv as usize], pairs);
            }
            EqOp::ArrWrite { arr, len, val } => {
                let data = Bytes::from(vec![*val; *len as usize]);
                let off = WRITE_BASE + slot * WRITE_SLOT;
                eq.array_write(&cont, &handles[*arr as usize], off, data);
            }
            EqOp::ArrRead { arr, off, len } => {
                let len = (*len as u64).min(SETUP_BYTES - *off as u64);
                eq.array_read(&cont, &handles[*arr as usize], *off as u64, len);
            }
            EqOp::Poll => {
                if let Some((ev, r)) = eq.poll() {
                    harvested.insert(ev.0, describe(&r));
                }
            }
            EqOp::Wait => {
                if let Some((ev, r)) = eq.wait().await {
                    harvested.insert(ev.0, describe(&r));
                }
            }
            EqOp::WaitAll => {
                for (ev, r) in eq.wait_all().await {
                    harvested.insert(ev.0, describe(&r));
                }
            }
        }
    }
    for (ev, r) in eq.wait_all().await {
        harvested.insert(ev.0, describe(&r));
    }

    // Final state: every KV key (sorted) with its value.
    let mut state = String::new();
    for &oid in &kv_oids {
        let mut keys = client.kv_list_keys(&cont, oid).await.expect("list");
        keys.sort();
        for key in keys {
            let v = client.kv_get(&cont, oid, &key).await.expect("get");
            state.push_str(&format!("{:02x?}={:02x?};", &key[..], v.as_deref()));
        }
    }
    for h in handles {
        state.push_str(&format!(
            "size={};",
            client.array_size(&cont, &h).await.expect("size")
        ));
        client.array_close(&cont, h).await.expect("close");
    }
    (harvested, state)
}

type ProgramResult = (BTreeMap<u64, String>, String);

fn on_embedded(ops: Vec<EqOp>) -> ProgramResult {
    let pool = Rc::new(Pool::new(Uuid::NIL, 48, DEFAULT_POOL_CAPACITY));
    let client = EmbeddedClient::new(pool);
    let out: Rc<RefCell<Option<ProgramResult>>> = Rc::default();
    let out2 = Rc::clone(&out);
    Sim::new().block_on(async move {
        *out2.borrow_mut() = Some(run_program(client, ops).await);
    });
    Rc::try_unwrap(out).unwrap().into_inner().unwrap()
}

fn on_simulated(ops: Vec<EqOp>) -> ProgramResult {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    let out: Rc<RefCell<Option<ProgramResult>>> = Rc::default();
    let out2 = Rc::clone(&out);
    sim.spawn(async move {
        *out2.borrow_mut() = Some(run_program(client, ops).await);
    });
    sim.run().expect_quiescent();
    Rc::try_unwrap(out).unwrap().into_inner().unwrap()
}

/// Applies `pairs` to one KV object, batched or one by one, and returns
/// the final sorted key -> value state.
async fn kv_state<D: DaosApi>(client: D, pairs: Vec<(u8, u8)>, batched: bool) -> String {
    let cont = client
        .cont_open_or_create(Uuid::from_name(b"eq-multi"))
        .await
        .expect("cont");
    let oid = OidAllocator::new(12).next(ObjectClass::S1);
    if batched {
        let pairs = pairs
            .iter()
            .map(|&(k, v)| (Bytes::from(vec![k]), Bytes::from(vec![v; 4])))
            .collect();
        client.kv_put_multi(&cont, oid, pairs).await.expect("multi");
    } else {
        for (k, v) in pairs {
            client
                .kv_put(&cont, oid, &[k], Bytes::from(vec![v; 4]))
                .await
                .expect("put");
        }
    }
    let mut keys = client.kv_list_keys(&cont, oid).await.expect("list");
    keys.sort();
    let mut state = String::new();
    for key in keys {
        let v = client.kv_get(&cont, oid, &key).await.expect("get");
        state.push_str(&format!("{:02x?}={:02x?};", &key[..], v.as_deref()));
    }
    state
}

fn kv_state_embedded(pairs: Vec<(u8, u8)>, batched: bool) -> String {
    let pool = Rc::new(Pool::new(Uuid::NIL, 48, DEFAULT_POOL_CAPACITY));
    let client = EmbeddedClient::new(pool);
    let out: Rc<RefCell<String>> = Rc::default();
    let out2 = Rc::clone(&out);
    Sim::new().block_on(async move {
        *out2.borrow_mut() = kv_state(client, pairs, batched).await;
    });
    Rc::try_unwrap(out).unwrap().into_inner()
}

fn kv_state_simulated(pairs: Vec<(u8, u8)>, batched: bool) -> String {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    let out: Rc<RefCell<String>> = Rc::default();
    let out2 = Rc::clone(&out);
    sim.spawn(async move {
        *out2.borrow_mut() = kv_state(client, pairs, batched).await;
    });
    sim.run().expect_quiescent();
    Rc::try_unwrap(out).unwrap().into_inner()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backends_agree_on_random_eq_programs(
        ops in proptest::collection::vec(eq_op(), 1..24),
    ) {
        let (emb_events, emb_state) = on_embedded(ops.clone());
        let (sim_events, sim_state) = on_simulated(ops);
        prop_assert_eq!(emb_events, sim_events, "per-event outcomes diverged");
        prop_assert_eq!(emb_state, sim_state, "final store state diverged");
    }

    #[test]
    fn kv_put_multi_equals_sequential_puts(
        pairs in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..12),
    ) {
        let batched = kv_state_embedded(pairs.clone(), true);
        let sequential = kv_state_embedded(pairs.clone(), false);
        prop_assert_eq!(&batched, &sequential, "embedded: batch != sequence");
        let sim_batched = kv_state_simulated(pairs.clone(), true);
        let sim_sequential = kv_state_simulated(pairs, false);
        prop_assert_eq!(&sim_batched, &sim_sequential, "simulated: batch != sequence");
        prop_assert_eq!(&batched, &sim_batched, "backends diverged on batch");
    }
}
