//! The embedded store and the simulated cluster must agree on semantics:
//! the same field I/O program produces byte-identical results on both
//! backends — only the timing differs.

use daosim::bytes::Bytes;
use daosim::cluster::{ClusterSpec, Deployment, SimClient};
use daosim::core::fieldio::{FieldIoConfig, FieldIoError, FieldIoMode, FieldStore};
use daosim::core::key::FieldKey;
use daosim::kernel::Sim;
use daosim::objstore::{DaosApi, EmbeddedClient, Pool, Uuid, DEFAULT_POOL_CAPACITY};
use std::cell::RefCell;
use std::rc::Rc;

fn key(step: u32, member: u32) -> FieldKey {
    FieldKey::from_pairs([
        ("class", "od".to_string()),
        ("date", "20290101".to_string()),
        ("time", "1200".to_string()),
        ("expver", "0001".to_string()),
        ("number", member.to_string()),
        ("param", "t".to_string()),
        ("step", step.to_string()),
    ])
}

fn field(step: u32, member: u32) -> Bytes {
    let mut v = format!("field-{member}-{step}:").into_bytes();
    v.resize(32 * 1024, (step + member) as u8);
    Bytes::from(v)
}

/// Runs the program against one backend and returns every read-back.
async fn program<D: DaosApi>(client: D, mode: FieldIoMode) -> Vec<(String, Bytes)> {
    let fs = FieldStore::connect(client, FieldIoConfig::builder().mode(mode).build(), 7)
        .await
        .expect("connect");
    // Write a grid of fields, re-write some of them, then read all back.
    for member in 0..3 {
        for step in [0u32, 6, 12] {
            fs.write_field(&key(step, member), field(step, member))
                .await
                .expect("write");
        }
    }
    for member in 0..3 {
        fs.write_field(&key(6, member), field(600, member))
            .await
            .expect("re-write");
    }
    let mut out = Vec::new();
    for member in 0..3 {
        for step in [0u32, 6, 12] {
            let data = fs.read_field(&key(step, member)).await.expect("read");
            out.push((key(step, member).canonical().to_owned(), data));
        }
    }
    // Missing keys must fail identically.
    match fs.read_field(&key(99, 0)).await {
        Err(FieldIoError::FieldNotFound(_)) => {}
        other => panic!("expected FieldNotFound, got {other:?}"),
    }
    out
}

fn unbounded_pool() -> Rc<Pool> {
    Rc::new(Pool::new(Uuid::NIL, 48, DEFAULT_POOL_CAPACITY))
}

fn run_embedded(mode: FieldIoMode) -> Vec<(String, Bytes)> {
    let pool = unbounded_pool();
    let client = EmbeddedClient::new(pool);
    let out: Rc<RefCell<Vec<(String, Bytes)>>> = Rc::default();
    let out2 = Rc::clone(&out);
    let sim = Sim::new();
    sim.block_on(async move {
        *out2.borrow_mut() = program(client, mode).await;
    });
    Rc::try_unwrap(out).unwrap().into_inner()
}

fn run_simulated(mode: FieldIoMode) -> Vec<(String, Bytes)> {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    let out: Rc<RefCell<Vec<(String, Bytes)>>> = Rc::default();
    let out2 = Rc::clone(&out);
    sim.block_on(async move {
        *out2.borrow_mut() = program(client, mode).await;
    });
    Rc::try_unwrap(out).unwrap().into_inner()
}

#[test]
fn backends_agree_in_every_mode() {
    for mode in FieldIoMode::all() {
        let embedded = run_embedded(mode);
        let simulated = run_simulated(mode);
        assert_eq!(embedded.len(), simulated.len(), "mode {mode}");
        for ((ka, da), (kb, db)) in embedded.iter().zip(&simulated) {
            assert_eq!(ka, kb, "mode {mode}");
            assert_eq!(da, db, "mode {mode}: divergent data for {ka}");
        }
    }
}

#[test]
fn rewrites_visible_on_both_backends() {
    for mode in FieldIoMode::all() {
        for out in [run_embedded(mode), run_simulated(mode)] {
            for (k, data) in &out {
                if k.contains("step=6") {
                    assert!(
                        data.starts_with(b"field-") && data[..20].windows(4).any(|w| w == b"-600"),
                        "mode {mode}: {k} should hold the re-written version"
                    );
                }
            }
        }
    }
}

#[test]
fn simulated_run_takes_simulated_time() {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    sim.spawn(async move {
        let _ = program(client, FieldIoMode::Full).await;
    });
    let end = sim.run().expect_quiescent();
    assert!(
        end.as_secs_f64() > 0.001,
        "cluster I/O must cost time: {end}"
    );
}

/// The overflow probes run on one backend: an `array_write` whose extent
/// ends past `u64::MAX`, an `array_read` past it, and a vectored write
/// with one such extent. Returns each result plus the pool's used bytes
/// after the probes.
async fn overflow_probes<D: DaosApi>(client: &D, pool_used: impl Fn() -> u64) -> Vec<String> {
    use daosim::objstore::{ObjectClass, Oid, Uuid};
    let cont = client
        .cont_open_or_create(Uuid::from_name(b"overflow"))
        .await
        .expect("cont");
    let mut out = Vec::new();
    for class in [ObjectClass::S1, ObjectClass::RP2, ObjectClass::EC2P1] {
        let h = client
            .array_create(&cont, Oid::generate(60, class as u64, class))
            .await
            .expect("create");
        let before = pool_used();
        let data = Bytes::from_static(b"0123456789");
        let w = client
            .array_write(&cont, &h, u64::MAX - 4, data.clone())
            .await;
        let r = client.array_read(&cont, &h, u64::MAX - 4, 10).await;
        let v = client
            .array_write_vec(&cont, &h, vec![(0, data.clone()), (u64::MAX, data)])
            .await;
        out.push(format!("{class:?} {w:?} {:?} {v:?}", r.map(|b| b.len())));
        assert_eq!(
            pool_used(),
            before,
            "{class:?}: an overflowing extent was charged"
        );
        client.array_close(&cont, h).await.expect("close");
    }
    out
}

/// Runs `fut` to completion on `sim` and returns its output.
fn run_to_end<T: Default + 'static>(
    sim: &Sim,
    fut: impl std::future::Future<Output = T> + 'static,
) -> T {
    let out: Rc<RefCell<T>> = Rc::default();
    let out2 = Rc::clone(&out);
    sim.block_on(async move { *out2.borrow_mut() = fut.await });
    out.take()
}

#[test]
fn overflowing_extents_are_invalid_args_on_both_backends() {
    // Regression: these probes panicked in `ArrayObject::write`/`read`
    // ("array extent overflows u64") through the simulated client.
    let pool = unbounded_pool();
    let embedded = EmbeddedClient::new(Rc::clone(&pool));
    let got_embedded = run_to_end(&Sim::new(), async move {
        overflow_probes(&embedded, || pool.used()).await
    });
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    let got_simulated = run_to_end(&sim, async move {
        overflow_probes(&client, || d.pool.used()).await
    });
    let invalid = "Err(InvalidArg(\"array extent overflows u64\"))";
    for line in &got_embedded {
        assert_eq!(line.matches(invalid).count(), 3, "embedded: {line}");
    }
    assert_eq!(got_embedded, got_simulated);
}

/// Reads longer than `MAX_READ_LEN` on one backend: just past the limit,
/// and at `u64::MAX - 1`, on an array whose size (bytes written at 8 GiB,
/// or at 0 for EC, which takes one extent at offset 0) makes the first
/// range real. Returns each result plus a short read that must still
/// work, and asserts the pool did not move.
async fn huge_read_probes<D: DaosApi>(client: &D, pool_used: impl Fn() -> u64) -> Vec<String> {
    use daosim::objstore::array::MAX_READ_LEN;
    use daosim::objstore::{ObjectClass, Oid, Uuid};
    let cont = client
        .cont_open_or_create(Uuid::from_name(b"huge-read"))
        .await
        .expect("cont");
    let mut out = Vec::new();
    for class in [ObjectClass::S1, ObjectClass::RP2, ObjectClass::EC2P1] {
        let h = client
            .array_create(&cont, Oid::generate(61, class as u64, class))
            .await
            .expect("create");
        let at = if class == ObjectClass::EC2P1 {
            0
        } else {
            8 << 30
        };
        let data = Bytes::from_static(b"0123456789");
        client
            .array_write(&cont, &h, at, data)
            .await
            .expect("write");
        let before = pool_used();
        let past = client.array_read(&cont, &h, 0, MAX_READ_LEN + 1).await;
        let huge = client.array_read(&cont, &h, 1, u64::MAX - 1).await;
        let short = client.array_read(&cont, &h, at, 4).await;
        out.push(format!(
            "{class:?} {:?} {:?} {:?}",
            past.map(|b| b.len()),
            huge.map(|b| b.len()),
            short
        ));
        assert_eq!(pool_used(), before, "{class:?}: a read moved the pool");
        client.array_close(&cont, h).await.expect("close");
    }
    out
}

#[test]
fn reads_longer_than_the_limit_are_invalid_args_on_both_backends() {
    // Regression: `ArrayObject::read` zero-fills `len` bytes up front, so
    // these reads aborted the process on allocation.
    let pool = unbounded_pool();
    let embedded = EmbeddedClient::new(Rc::clone(&pool));
    let got_embedded = run_to_end(&Sim::new(), async move {
        huge_read_probes(&embedded, || pool.used()).await
    });
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    let got_simulated = run_to_end(&sim, async move {
        huge_read_probes(&client, || d.pool.used()).await
    });
    let invalid = "Err(InvalidArg(\"array read longer than 1 GiB\"))";
    for line in &got_embedded {
        assert_eq!(line.matches(invalid).count(), 2, "embedded: {line}");
        assert!(line.ends_with("Ok(b\"0123\")"), "embedded: {line}");
    }
    assert_eq!(got_embedded, got_simulated);
}

/// Runs `racer(rank)` for ranks 0..8 as concurrent tasks on `sim` and
/// returns their outputs in rank order.
fn race<T: 'static, F: std::future::Future<Output = T> + 'static>(
    sim: &Sim,
    racer: impl Fn(u32) -> F,
) -> Vec<T> {
    let out: Rc<RefCell<Vec<Option<T>>>> = Rc::new(RefCell::new((0..8).map(|_| None).collect()));
    for rank in 0..8u32 {
        let (fut, out) = (racer(rank), Rc::clone(&out));
        sim.spawn(async move {
            let v = fut.await;
            out.borrow_mut()[rank as usize] = Some(v);
        });
    }
    sim.run().expect_quiescent();
    let out = Rc::try_unwrap(out).ok().expect("racers done").into_inner();
    out.into_iter()
        .map(|v| v.expect("racer finished"))
        .collect()
}

/// One racer of the md5-named container creation the field I/O layer
/// relies on: returns the UUID its handle names.
async fn open_shared<D: DaosApi>(client: D, uuid_of: fn(&D::Cont) -> Uuid) -> Uuid {
    let cont = client
        .cont_open_or_create(Uuid::from_name(b"shared"))
        .await
        .expect("open or create");
    uuid_of(&cont)
}

#[test]
fn open_or_create_races_yield_one_container_on_both_backends() {
    let shared = vec![Uuid::from_name(b"shared"); 8];
    let pool = unbounded_pool();
    let embedded = EmbeddedClient::new(Rc::clone(&pool));
    let got = race(&Sim::new(), |_| open_shared(embedded.clone(), |c| c.uuid()));
    assert_eq!(got, shared);
    assert_eq!(pool.cont_count(), 1);

    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let got = race(&sim, |rank| {
        open_shared(SimClient::for_process(&d, 0, rank), |c| c.uuid)
    });
    assert_eq!(got, shared);
    assert_eq!(d.pool.cont_count(), 1);
}

/// One racer's share of the distinct-objects program: 200 arrays of its
/// own in the shared container, each created, written and read back.
/// Logs its rank after every write.
async fn fill_distinct<D: DaosApi>(client: D, rank: u32, log: Rc<RefCell<Vec<u32>>>) {
    use daosim::objstore::{ObjectClass, Oid};
    let cont = client
        .cont_open_or_create(Uuid::from_name(b"mt"))
        .await
        .expect("cont");
    for i in 0..200u64 {
        let oid = Oid::generate(1, u64::from(rank) * 1000 + i, ObjectClass::S1);
        let h = client.array_create(&cont, oid).await.expect("create");
        let data = Bytes::from(vec![rank as u8; 64]);
        client.array_write(&cont, &h, 0, data).await.expect("write");
        log.borrow_mut().push(rank);
        let back = client.array_read(&cont, &h, 0, 64).await.expect("read");
        assert_eq!(back, vec![rank as u8; 64], "racer {rank}, array {i}");
        client.array_close(&cont, h).await.expect("close");
    }
}

/// Times the write log changes hands between racers.
fn handoffs(log: &RefCell<Vec<u32>>) -> usize {
    log.borrow().windows(2).filter(|w| w[0] != w[1]).count()
}

#[test]
fn concurrent_distinct_objects_on_both_backends() {
    let pool = unbounded_pool();
    let embedded = EmbeddedClient::new(Rc::clone(&pool));
    let log: Rc<RefCell<Vec<u32>>> = Rc::default();
    race(&Sim::new(), |rank| {
        fill_distinct(embedded.clone(), rank, Rc::clone(&log))
    });
    assert_eq!(pool.stats().objects, 1600);
    // Embedded ops never suspend: each racer runs to its end at once.
    assert_eq!(handoffs(&log), 7);

    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let log: Rc<RefCell<Vec<u32>>> = Rc::default();
    race(&sim, |rank| {
        fill_distinct(SimClient::for_process(&d, 0, rank), rank, Rc::clone(&log))
    });
    assert_eq!(d.pool.stats().objects, 1600);
    assert_eq!(log.borrow().len(), 1600);
    assert!(
        handoffs(&log) > 7 * 100,
        "simulated racers barely interleaved: {} handoffs",
        handoffs(&log)
    );
}

/// An object a parity call names: a created array, a KV holding the key
/// `old`, or a KV-class oid nothing was stored under.
#[derive(Clone, Copy, Debug)]
enum Obj {
    Array,
    Kv,
    Missing,
}

/// One `DaosApi` call of a backend-parity program.
#[derive(Clone, Copy, Debug)]
enum Call {
    KvPut(Obj, &'static str, &'static str),
    /// A put of a value of this many bytes.
    KvPutSized(Obj, &'static str, usize),
    KvPutMulti(Obj, &'static [(&'static str, &'static str)]),
    KvPutIfAbsent(Obj, &'static str, &'static str),
    KvGet(Obj, &'static str),
    KvRemove(Obj, &'static str),
    ArrayWriteVec(Obj, &'static [(u64, &'static str)]),
    /// An `array_write` of this many bytes at this offset.
    ArrayWrite(Obj, u64, usize),
    ArraySize(Obj),
}

/// Edge cases of the store half both backends share, each with the
/// outcome both must give. The empty batches and the losing conditional
/// insert once differed between them. A call that fails must leave the
/// pool's `used()` as it was (the failed writes once kept their charge).
/// A later differential fuzzer grows this table.
const EDGE_CASES: &[(Call, &str)] = &[
    // Empty batches are no-ops, whatever the object.
    (Call::KvPutMulti(Obj::Array, &[]), "Ok(())"),
    (Call::KvPutMulti(Obj::Missing, &[]), "Ok(())"),
    (Call::ArrayWriteVec(Obj::Missing, &[]), "Ok(())"),
    (Call::ArrayWriteVec(Obj::Kv, &[]), "Ok(())"),
    // A winning, then a losing, conditional insert.
    (Call::KvPutIfAbsent(Obj::Kv, "new", "first"), "Ok(None)"),
    (
        Call::KvPutIfAbsent(Obj::Kv, "new", "second"),
        "Ok(Some(b\"first\"))",
    ),
    (Call::KvGet(Obj::Kv, "new"), "Ok(Some(b\"first\"))"),
    // Batches that land, and type and presence errors.
    (
        Call::KvPutMulti(Obj::Kv, &[("a", "1"), ("b", "22")]),
        "Ok(())",
    ),
    (
        Call::ArrayWriteVec(Obj::Array, &[(0, "ab"), (8, "cd")]),
        "Ok(())",
    ),
    (
        Call::KvPut(Obj::Array, "k", "v"),
        "Err(WrongType(Oid(0000000100000046.0000000000000000 class=S1)))",
    ),
    (Call::KvRemove(Obj::Missing, "k"), "Ok(())"),
    (Call::KvRemove(Obj::Kv, "old"), "Ok(())"),
    (Call::KvGet(Obj::Kv, "old"), "Ok(None)"),
    // Failed writes charge and change nothing.
    (
        Call::KvPutSized(Obj::Array, "k", 1000),
        "Err(WrongType(Oid(0000000100000046.0000000000000000 class=S1)))",
    ),
    (Call::ArraySize(Obj::Array), "Ok(10)"),
    (
        Call::ArrayWrite(Obj::Missing, 0, 4096),
        "Err(ObjNotFound(Oid(0000000300000046.0000000000000002 class=SX)))",
    ),
    (
        Call::ArraySize(Obj::Missing),
        "Err(ObjNotFound(Oid(0000000300000046.0000000000000002 class=SX)))",
    ),
];

/// Runs `calls` on one backend, against a fresh container holding the
/// three objects [`Obj`] names, and returns each call's outcome with the
/// bytes it added to `pool`'s `used()`.
async fn parity_program<D: DaosApi>(
    client: &D,
    pool: &Pool,
    calls: impl IntoIterator<Item = Call>,
) -> Vec<(String, u64)> {
    use daosim::objstore::{ArrayHandle, ObjectClass, Oid};
    let cont = client
        .cont_open_or_create(Uuid::from_name(b"parity"))
        .await
        .expect("cont");
    let array = client
        .array_create(&cont, Oid::generate(70, 0, ObjectClass::S1))
        .await
        .expect("create");
    let kv = Oid::generate(70, 1, ObjectClass::SX);
    let old = Bytes::from_static(b"value");
    client.kv_put(&cont, kv, b"old", old).await.expect("seed");
    let missing = Oid::generate(70, 2, ObjectClass::SX);
    let oid = |o| match o {
        Obj::Array => array.oid(),
        Obj::Kv => kv,
        Obj::Missing => missing,
    };
    let bytes = |s: &'static str| Bytes::from_static(s.as_bytes());
    let mut out = Vec::new();
    for call in calls {
        let used = pool.used();
        let got = match call {
            Call::KvPut(o, k, v) => format!(
                "{:?}",
                client.kv_put(&cont, oid(o), k.as_bytes(), bytes(v)).await
            ),
            Call::KvPutSized(o, k, len) => {
                let put = client.kv_put(&cont, oid(o), k.as_bytes(), Bytes::from(vec![1; len]));
                format!("{:?}", put.await)
            }
            Call::KvPutMulti(o, pairs) => {
                let pairs = pairs.iter().map(|&(k, v)| (bytes(k), bytes(v))).collect();
                format!("{:?}", client.kv_put_multi(&cont, oid(o), pairs).await)
            }
            Call::KvPutIfAbsent(o, k, v) => {
                let put = client.kv_put_if_absent(&cont, oid(o), k.as_bytes(), bytes(v));
                format!("{:?}", put.await)
            }
            Call::KvGet(o, k) => format!("{:?}", client.kv_get(&cont, oid(o), k.as_bytes()).await),
            Call::KvRemove(o, k) => {
                format!("{:?}", client.kv_remove(&cont, oid(o), k.as_bytes()).await)
            }
            Call::ArrayWriteVec(o, iovs) => {
                let iovs = iovs.iter().map(|&(off, d)| (off, bytes(d))).collect();
                let h = ArrayHandle::from_open(oid(o));
                format!("{:?}", client.array_write_vec(&cont, &h, iovs).await)
            }
            Call::ArrayWrite(o, offset, len) => {
                let h = ArrayHandle::from_open(oid(o));
                let write = client.array_write(&cont, &h, offset, Bytes::from(vec![2; len]));
                format!("{:?}", write.await)
            }
            Call::ArraySize(o) => {
                let h = ArrayHandle::from_open(oid(o));
                format!("{:?}", client.array_size(&cont, &h).await)
            }
        };
        out.push((format!("{call:?} -> {got}"), pool.used() - used));
    }
    client.array_close(&cont, array).await.expect("close");
    out
}

#[test]
fn edge_cases_agree_on_both_backends() {
    let pool = unbounded_pool();
    let embedded = EmbeddedClient::new(Rc::clone(&pool));
    let embedded_pool = Rc::clone(&pool);
    let got_embedded = run_to_end(&Sim::new(), async move {
        let calls = EDGE_CASES.iter().map(|&(call, _)| call);
        parity_program(&embedded, &embedded_pool, calls).await
    });
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    let sim_pool = Rc::clone(&d.pool);
    let got_simulated = run_to_end(&sim, async move {
        let calls = EDGE_CASES.iter().map(|&(call, _)| call);
        parity_program(&client, &sim_pool, calls).await
    });
    for (((call, want), e), s) in EDGE_CASES.iter().zip(&got_embedded).zip(&got_simulated) {
        assert_eq!(e, s, "the backends disagree");
        assert_eq!(e.0, format!("{call:?} -> {want}"));
        if want.starts_with("Err") {
            assert_eq!(e.1, 0, "{call:?} failed but charged {} bytes", e.1);
        }
    }
    assert_eq!(got_embedded.len(), EDGE_CASES.len());
    assert_eq!(pool.used(), d.pool.used());
    assert_eq!(pool.op_counts(), d.pool.op_counts());
    assert_eq!(pool.stats(), d.pool.stats());
}

#[test]
fn ec_write_whose_parity_does_not_fit_stores_nothing() {
    // Both backends commit an array write through `Pool::array_write`,
    // and the simulated one hands it the EC parity cell. The pool has
    // room for the data but not the parity: the write is `NoSpace` and
    // neither charges nor stores a byte of either.
    use daosim::objstore::{DaosError, ObjectClass, Oid};
    let pool = Pool::new(Uuid::NIL, 4, 4096 + 2047);
    let cont = pool.cont_create(Uuid::from_name(b"ec")).expect("cont");
    let oid = Oid::generate(71, 0, ObjectClass::EC2P1);
    cont.array_create(oid).expect("create");
    let data = Bytes::from(vec![3u8; 4096]);
    let parity = Some(Bytes::from(vec![0u8; 2048]));
    let write = pool.array_write(&cont, oid, &[(0, data)], parity);
    assert_eq!(write, Err(DaosError::NoSpace));
    assert_eq!(pool.used(), 0);
    assert_eq!(cont.array_size(oid), Ok(0));
    assert_eq!(cont.array_parity(oid), Ok(None));
    assert_eq!(pool.op_counts().array_updates, 0);
}
