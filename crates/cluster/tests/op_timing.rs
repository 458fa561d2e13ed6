//! Timing oracle for the simulated client: every `DaosApi` op on every
//! object class, under contention, engine loss, a retried brownout, a
//! full pool and the frictionless calibration. Each op's outcome and
//! completion instant is pinned to the nanosecond, together with the
//! media, pool and per-op metric state each run leaves behind.
//!
//! The tables are literal. A change to `SimClient` that moves any line
//! changed the timing model (or the poll order the schedule depends
//! on); a pure refactor of the client leaves all of them untouched.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use daosim_cluster::{Calibration, ClusterSpec, Deployment, RetryPolicy, ScmSpec, SimClient};
use daosim_kernel::{Sim, SimDuration, SimTime};
use daosim_objstore::placement::ARRAY_CHUNK;
use daosim_objstore::prelude::{ArrayHandle, DaosApi, DaosError, ObjectClass, Oid, Result, Uuid};

const CLASSES: [ObjectClass; 5] = [
    ObjectClass::S1,
    ObjectClass::S2,
    ObjectClass::SX,
    ObjectClass::RP2,
    ObjectClass::EC2P1,
];

/// A one-line rendering of an op's successful output.
trait Brief {
    fn brief(&self) -> String;
}

impl Brief for () {
    fn brief(&self) -> String {
        String::new()
    }
}

impl Brief for u64 {
    fn brief(&self) -> String {
        format!("({self})")
    }
}

impl Brief for Bytes {
    fn brief(&self) -> String {
        let sum = self
            .iter()
            .fold(0u64, |a, &b| a.wrapping_mul(31) + b as u64);
        format!("({}b #{sum:x})", self.len())
    }
}

impl Brief for Option<Bytes> {
    fn brief(&self) -> String {
        match self {
            Some(v) => format!("(Some{})", v.brief()),
            None => "(None)".into(),
        }
    }
}

impl Brief for Vec<Bytes> {
    fn brief(&self) -> String {
        format!("({} keys)", self.len())
    }
}

impl Brief for Vec<Oid> {
    fn brief(&self) -> String {
        format!("({} arrays)", self.len())
    }
}

impl Brief for ArrayHandle {
    fn brief(&self) -> String {
        String::new()
    }
}

impl Brief for daosim_cluster::SimCont {
    fn brief(&self) -> String {
        String::new()
    }
}

/// The error's variant name, without its payload.
fn variant(e: &DaosError) -> String {
    let s = format!("{e:?}");
    s.split('(').next().unwrap_or_default().to_string()
}

type Log = Rc<RefCell<Vec<String>>>;

/// One client process and the shared outcome log it appends to.
struct Probe {
    id: u32,
    client: SimClient,
    log: Log,
}

impl Probe {
    fn new(d: &Rc<Deployment>, id: u32, log: &Log) -> Self {
        Probe {
            id,
            client: SimClient::for_process(d, 0, id),
            log: Rc::clone(log),
        }
    }

    fn note<T: Brief>(&self, op: &str, r: &Result<T>) {
        let outcome = match r {
            Ok(v) => format!("Ok{}", v.brief()),
            Err(e) => variant(e),
        };
        let now = self.client.deployment().sim.now().as_nanos();
        self.log
            .borrow_mut()
            .push(format!("c{} {op} {outcome} @{now}", self.id));
    }
}

/// Awaits one op and logs its outcome and completion instant.
macro_rules! step {
    ($p:expr, $op:ident ( $($arg:expr),* $(,)? )) => {{
        let r = $p.client.$op($($arg),*).await;
        $p.note(stringify!($op), &r);
        r
    }};
}

fn bytes(len: u64, seed: u8) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed))
            .collect::<Vec<u8>>(),
    )
}

/// Every `DaosApi` op once (several twice, to reach both outcomes) on a
/// KV and an Array object of `class`.
async fn every_op(p: &Probe, class: ObjectClass, tag: u64) {
    let uuid = Uuid::from_name(b"oracle");
    let Ok(cont) = step!(p, cont_open_or_create(uuid)) else {
        return;
    };
    let _ = step!(p, cont_open(uuid));
    let _ = step!(p, cont_open(Uuid::from_name(b"absent")));

    let kv = Oid::generate(1, tag, class);
    let _ = step!(p, kv_put(&cont, kv, b"k1", bytes(100, 1)));
    let _ = step!(p, kv_get(&cont, kv, b"k1"));
    let _ = step!(p, kv_get(&cont, kv, b"nope"));
    let _ = step!(p, kv_put_if_absent(&cont, kv, b"k1", bytes(10, 2)));
    let _ = step!(p, kv_put_if_absent(&cont, kv, b"k2", bytes(10, 3)));
    let pairs = (3..6u8)
        .map(|i| (Bytes::from(vec![b'k', b'0' + i]), bytes(40 * i as u64, i)))
        .collect();
    let _ = step!(p, kv_put_multi(&cont, kv, pairs));
    let _ = step!(p, kv_put_multi(&cont, kv, Vec::new()));
    let _ = step!(p, kv_list_keys(&cont, kv));
    let (from, until) = (Bytes::from_static(b"k2"), Bytes::from_static(b"k4"));
    let _ = step!(p, kv_list_range(&cont, kv, from, Some(until)));
    let _ = step!(p, kv_remove(&cont, kv, b"k1"));
    let _ = step!(p, kv_remove(&cont, kv, b"k1"));

    let arr = Oid::generate(2, tag, class);
    let Ok(h) = step!(p, array_create(&cont, arr)) else {
        return;
    };
    let _ = step!(p, array_create(&cont, arr));
    if let Ok(h) = step!(p, array_open(&cont, arr)) {
        let _ = step!(p, array_close(&cont, h));
    }
    if let Ok(h) = step!(p, array_open_or_create(&cont, arr)) {
        let _ = step!(p, array_close(&cont, h));
    }
    let big = 2 * ARRAY_CHUNK + 4096;
    let _ = step!(p, array_write(&cont, &h, 0, bytes(big, 4)));
    let _ = step!(p, array_write(&cont, &h, 4096, bytes(8192, 5)));
    // Two extents in distinct chunks, the first straddling a boundary.
    let iovs = vec![
        (ARRAY_CHUNK - 2048, bytes(4096, 6)),
        (2 * ARRAY_CHUNK + 100, bytes(3000, 7)),
    ];
    let _ = step!(p, array_write_vec(&cont, &h, iovs));
    let _ = step!(p, array_write_vec(&cont, &h, vec![(0, bytes(8192, 8))]));
    let _ = step!(p, array_write_vec(&cont, &h, Vec::new()));
    let _ = step!(p, array_read(&cont, &h, 0, big));
    let _ = step!(p, array_read(&cont, &h, ARRAY_CHUNK - 100, 700));
    let _ = step!(p, array_size(&cont, &h));
    let _ = step!(p, list_array_objects(&cont));
    let _ = step!(p, kv_get(&cont, arr, b"k1"));
    let _ = step!(p, array_close(&cont, h));
    let _ = step!(p, obj_punch(&cont, arr));
    let _ = step!(p, obj_punch(&cont, kv));
    let _ = step!(p, kv_get(&cont, kv, b"k2"));
    let _ = step!(p, array_open(&cont, arr));
}

/// Runs `body` as one task per `clients` entry on a fresh deployment and
/// renders the outcome log plus the end state.
fn run(
    spec: ClusterSpec,
    clients: u32,
    body: impl Fn(Probe) -> std::pin::Pin<Box<dyn std::future::Future<Output = ()>>>,
) -> String {
    let sim = Sim::new();
    let d = Deployment::new(&sim, spec);
    let log: Log = Rc::default();
    for id in 0..clients {
        sim.spawn(body(Probe::new(&d, id, &log)));
    }
    let out = sim.run();
    let mut lines = log.take();
    lines.push(format!(
        "end @{} stranded={}",
        out.end_time.as_nanos(),
        out.stranded_tasks
    ));
    lines.push(format!("pool used={}", d.pool.used()));
    for t in 0..d.spec.pool_targets() {
        let tgt = d.target(t);
        let c = tgt.tally.counts();
        let (scm, nvme) = (tgt.media.scm_used(), tgt.media.nvme_used());
        if scm + nvme + tgt.busy_ns() + c.reads + c.writes > 0 {
            lines.push(format!(
                "t{t} scm={scm} nvme={nvme} busy={} r={}/{} w={}/{}",
                tgt.busy_ns(),
                c.reads,
                c.bytes_read,
                c.writes,
                c.bytes_written
            ));
        }
    }
    let snap = sim.obs().metrics().snapshot();
    let mut counters: Vec<_> = snap
        .counters
        .iter()
        .filter(|(n, v)| *v > 0 && (n.starts_with("client.") || n.starts_with("cluster.")))
        .map(|(n, v)| format!("{n}={v}"))
        .collect();
    counters.sort();
    lines.extend(counters);
    if let Some(h) = snap.histogram("client.op_ns") {
        lines.push(format!("client.op_ns count={} sum={}", h.count, h.sum));
    }
    lines.join("\n")
}

fn check(name: &str, actual: &str, expected: &str) {
    if actual.trim() != expected.trim() {
        println!("---- {name} actual ----\n{actual}\n---- end ----");
        let (a, e): (Vec<_>, Vec<_>) =
            (actual.lines().collect(), expected.trim().lines().collect());
        for (i, (x, y)) in a.iter().zip(&e).enumerate() {
            assert_eq!(x, y, "{name}: first difference at line {}", i + 1);
        }
        assert_eq!(a.len(), e.len(), "{name}: line count differs");
    }
}

fn every_class(cal: Calibration) -> String {
    let mut spec = ClusterSpec::tcp(1, 1);
    spec.calibration = cal;
    run(spec, 1, |p| {
        Box::pin(async move {
            for (tag, class) in CLASSES.into_iter().enumerate() {
                every_op(&p, class, tag as u64).await;
            }
        })
    })
}

#[test]
fn every_op_on_every_class() {
    check(
        "every_op_on_every_class",
        &every_class(Calibration::default()),
        EVERY_OP,
    );
}

#[test]
fn every_op_frictionless() {
    check(
        "every_op_frictionless",
        &every_class(Calibration::frictionless()),
        FRICTIONLESS,
    );
}

/// Four clients race on shared objects: `kv_put` on one RP2 object (the
/// replica fan-out poll order decides who queues first at each
/// target), conditional inserts of one key (one winner), and
/// scatter-gather writes over overlapping chunk sets.
#[test]
fn racing_clients() {
    let actual = run(ClusterSpec::tcp(1, 1), 4, |p| {
        Box::pin(async move {
            let uuid = Uuid::from_name(b"race");
            let Ok(cont) = step!(p, cont_open_or_create(uuid)) else {
                return;
            };
            let kv = Oid::generate(3, 0, ObjectClass::RP2);
            let key = [b'k', b'0' + p.id as u8];
            let _ = step!(p, kv_put(&cont, kv, &key, bytes(512, p.id as u8)));
            let _ = step!(p, kv_put(&cont, kv, b"shared", bytes(64, p.id as u8)));
            let _ = step!(
                p,
                kv_put_if_absent(&cont, kv, b"once", bytes(8, p.id as u8))
            );
            let s1 = Oid::generate(3, 1, ObjectClass::S1);
            let _ = step!(
                p,
                kv_put_if_absent(&cont, s1, b"once", bytes(8, p.id as u8))
            );
            let _ = step!(p, kv_get(&cont, kv, b"shared"));
            let arr = Oid::generate(3, 2, ObjectClass::S2);
            let Ok(h) = step!(p, array_open_or_create(&cont, arr)) else {
                return;
            };
            let c = u64::from(p.id);
            let iovs = vec![
                (c * ARRAY_CHUNK, bytes(4096, 1)),
                (((c + 2) % 4) * ARRAY_CHUNK + 512, bytes(4096, 2)),
            ];
            let _ = step!(p, array_write_vec(&cont, &h, iovs));
            let _ = step!(p, array_write(&cont, &h, 0, bytes(ARRAY_CHUNK / 2, 3)));
            let _ = step!(p, array_read(&cont, &h, 0, 4 * ARRAY_CHUNK));
            let _ = step!(p, array_close(&cont, h));
        })
    });
    check("racing_clients", &actual, RACING);
}

/// Frictionless KV updates and array writes from six clients start at
/// the same instants on a two-target pool. A KV update's zero-cost serial
/// sleep still yields, so an array write whose request arrived at the
/// same instant reaches the shared target queue first.
#[test]
fn zero_cost_serial_sleep_yields() {
    let mut spec = ClusterSpec::tcp(1, 1);
    spec.targets_per_engine = 1;
    spec.calibration = Calibration::frictionless();
    let actual = run(spec, 6, |p| {
        Box::pin(async move {
            let uuid = Uuid::from_name(b"yield");
            let Ok(cont) = step!(p, cont_open_or_create(uuid)) else {
                return;
            };
            let tag = u64::from(p.id);
            let kv = Oid::generate(12, tag, ObjectClass::S1);
            let arr = Oid::generate(13, tag, ObjectClass::S1);
            let Ok(h) = step!(p, array_create(&cont, arr)) else {
                return;
            };
            let sim = p.client.deployment().sim.clone();
            for step in 1..=4u64 {
                // Every client issues its next op at the same instant.
                let start = SimTime::from_nanos(step * 1_000_000);
                sim.sleep(start - sim.now()).await;
                if (tag + step) % 2 == 0 {
                    let _ = step!(p, kv_put(&cont, kv, &[b'k', step as u8], bytes(64, 1)));
                } else {
                    let _ = step!(p, array_write(&cont, &h, step * 4096, bytes(4096, 2)));
                }
            }
            let _ = step!(p, array_close(&cont, h));
        })
    });
    check("zero_cost_serial_sleep_yields", &actual, YIELDS);
}

/// Engine loss without retries: writes fail, replicated reads and
/// metadata fail over, and EC reads reconstruct the lost data cell.
#[test]
fn degraded_after_engine_loss() {
    let mut out = Vec::new();
    for dead in 0..2u32 {
        out.push(format!("== kill engine {dead}"));
        out.push(run(ClusterSpec::tcp(1, 1), 1, move |p| {
            Box::pin(async move {
                let uuid = Uuid::from_name(b"degraded");
                let Ok(cont) = step!(p, cont_open_or_create(uuid)) else {
                    return;
                };
                let mut handles = Vec::new();
                for tag in 0..4u64 {
                    for class in [ObjectClass::EC2P1, ObjectClass::RP2] {
                        let oid = Oid::generate(4, tag, class);
                        if let Ok(h) = step!(p, array_create(&cont, oid)) {
                            let _ = step!(p, array_write(&cont, &h, 0, bytes(300_001, tag as u8)));
                            handles.push(h);
                        }
                    }
                    let kv = Oid::generate(5, tag, ObjectClass::RP2);
                    let _ = step!(p, kv_put(&cont, kv, b"k", bytes(64, 9)));
                }
                p.client.deployment().kill_engine(dead);
                for h in &handles {
                    let _ = step!(p, array_read(&cont, h, 0, 300_001));
                    let _ = step!(p, array_read(&cont, h, 1000, 50));
                    let _ = step!(p, array_size(&cont, h));
                    let _ = step!(p, array_write(&cont, h, 0, bytes(1000, 1)));
                }
                for tag in 0..4u64 {
                    let kv = Oid::generate(5, tag, ObjectClass::RP2);
                    let _ = step!(p, kv_get(&cont, kv, b"k"));
                    let _ = step!(p, kv_list_keys(&cont, kv));
                    let _ = step!(p, kv_put(&cont, kv, b"k", bytes(64, 10)));
                    let _ = step!(
                        p,
                        kv_put_multi(&cont, kv, vec![(Bytes::from_static(b"m"), bytes(8, 1))])
                    );
                }
                let _ = step!(
                    p,
                    array_create(&cont, Oid::generate(6, 0, ObjectClass::RP2))
                );
                let _ = step!(
                    p,
                    array_open_or_create(&cont, Oid::generate(6, 1, ObjectClass::S1))
                );
                for h in handles {
                    let _ = step!(p, array_close(&cont, h));
                }
            })
        }));
    }
    check("degraded_after_engine_loss", &out.join("\n"), DEGRADED);
}

/// A 100 ms brownout of both engines under the operational retry
/// policy: every op backs off, retries and completes.
#[test]
fn brownout_absorbed_by_retries() {
    let mut spec = ClusterSpec::tcp(1, 1);
    spec.retry = RetryPolicy::builder().operational().build();
    let actual = run(spec, 2, |p| {
        Box::pin(async move {
            let uuid = Uuid::from_name(b"brownout");
            let Ok(cont) = step!(p, cont_open_or_create(uuid)) else {
                return;
            };
            let arr = Oid::generate(7, u64::from(p.id), ObjectClass::RP2);
            let kv = Oid::generate(8, u64::from(p.id), ObjectClass::S1);
            let Ok(h) = step!(p, array_create(&cont, arr)) else {
                return;
            };
            let d = Rc::clone(p.client.deployment());
            if p.id == 0 {
                d.brownout_engine(0);
                d.brownout_engine(1);
                let d2 = Rc::clone(&d);
                d.sim
                    .schedule_after(SimDuration::from_millis(100), move || {
                        d2.clear_brownout(0);
                        d2.clear_brownout(1);
                    });
            }
            let _ = step!(p, array_write(&cont, &h, 0, bytes(ARRAY_CHUNK, 1)));
            let _ = step!(p, kv_put(&cont, kv, b"k", bytes(32, 2)));
            let _ = step!(p, kv_get(&cont, kv, b"k"));
            let _ = step!(p, array_read(&cont, &h, 0, ARRAY_CHUNK));
            let _ = step!(p, array_size(&cont, &h));
            let _ = step!(p, array_close(&cont, h));
        })
    });
    check("brownout_absorbed_by_retries", &actual, BROWNOUT);
}

/// A sliver of SCM and no NVMe tier: creates, KV updates and bulk
/// writes run into `NoSpace` at their charge points.
#[test]
fn full_media_reports_no_space() {
    let mut spec = ClusterSpec::tcp(1, 1);
    spec.targets_per_engine = 2;
    spec.calibration.scm = ScmSpec {
        capacity: 64 * 1024,
        ..spec.calibration.scm
    };
    let actual = run(spec, 2, |p| {
        Box::pin(async move {
            let uuid = Uuid::from_name(b"full");
            let Ok(cont) = step!(p, cont_open_or_create(uuid)) else {
                return;
            };
            let tag = u64::from(p.id);
            let arr = Oid::generate(9, tag, ObjectClass::RP2);
            let kv = Oid::generate(10, tag, ObjectClass::RP2);
            let h = step!(p, array_open_or_create(&cont, arr));
            for i in 0..6u64 {
                if let Ok(h) = &h {
                    let _ = step!(p, array_write(&cont, h, i * 8192, bytes(8192, i as u8)));
                }
                let _ = step!(p, kv_put(&cont, kv, &[b'k', i as u8], bytes(3000, 1)));
                let _ = step!(
                    p,
                    kv_put_if_absent(&cont, kv, &[b'c', i as u8], bytes(3000, 2))
                );
                let _ = step!(
                    p,
                    array_create(&cont, Oid::generate(11, tag * 8 + i, ObjectClass::RP2))
                );
            }
            if let Ok(h) = h {
                let _ = step!(p, array_close(&cont, h));
            }
        })
    });
    check("full_media_reports_no_space", &actual, FULL);
}

const EVERY_OP: &str = r#"
c0 cont_open_or_create Ok @210000
c0 cont_open Ok @370000
c0 cont_open ContNotFound @500000
c0 kv_put Ok @731821
c0 kv_get Ok(Some(100b #e8e476ed88d1b99e)) @873680
c0 kv_get Ok(None) @1015539
c0 kv_put_if_absent Ok(Some(100b #e8e476ed88d1b99e)) @1247398
c0 kv_put_if_absent Ok(None) @1479219
c0 kv_put_multi Ok @1751682
c0 kv_put_multi Ok @1751682
c0 kv_list_keys Ok(5 keys) @1833182
c0 kv_list_range Ok(2 keys) @1914682
c0 kv_remove Ok @2146503
c0 kv_remove Ok @2378324
c0 array_create Ok @2465145
c0 array_create ObjExists @2551966
c0 array_open Ok @2633825
c0 array_close Ok @2638825
c0 array_open_or_create Ok @2725646
c0 array_close Ok @2730646
c0 array_write Ok @4632152
c0 array_write Ok @4734295
c0 array_write_vec Ok @4857036
c0 array_write_vec Ok @4959179
c0 array_write_vec Ok @4959179
c0 array_read Ok(2101248b #fa6b900fc7a4dd80) @5689183
c0 array_read Ok(700b #3bf7ee0793a58b12) @5784715
c0 array_size Ok(2101248) @5866574
c0 list_array_objects Ok(1 arrays) @6027074
c0 kv_get WrongType @6138933
c0 array_close Ok @6143933
c0 obj_punch Ok @6230433
c0 obj_punch Ok @6316933
c0 kv_get Ok(None) @6458792
c0 array_open ObjNotFound @6540651
c0 cont_open_or_create Ok @6700651
c0 cont_open Ok @6860651
c0 cont_open ContNotFound @6990651
c0 kv_put Ok @7222472
c0 kv_get Ok(Some(100b #e8e476ed88d1b99e)) @7364331
c0 kv_get Ok(None) @7506190
c0 kv_put_if_absent Ok(Some(100b #e8e476ed88d1b99e)) @7738049
c0 kv_put_if_absent Ok(None) @7969870
c0 kv_put_multi Ok @8222012
c0 kv_put_multi Ok @8222012
c0 kv_list_keys Ok(5 keys) @8303512
c0 kv_list_range Ok(2 keys) @8385012
c0 kv_remove Ok @8616833
c0 kv_remove Ok @8848654
c0 array_create Ok @8935475
c0 array_create ObjExists @9022296
c0 array_open Ok @9104155
c0 array_close Ok @9109155
c0 array_open_or_create Ok @9195976
c0 array_close Ok @9200976
c0 array_write Ok @10222519
c0 array_write Ok @10324662
c0 array_write_vec Ok @10472403
c0 array_write_vec Ok @10574546
c0 array_write_vec Ok @10574546
c0 array_read Ok(2101248b #fa6b900fc7a4dd80) @11171330
c0 array_read Ok(700b #3bf7ee0793a58b12) @11291832
c0 array_size Ok(2101248) @11373691
c0 list_array_objects Ok(1 arrays) @11534191
c0 kv_get WrongType @11646050
c0 array_close Ok @11651050
c0 obj_punch Ok @11737550
c0 obj_punch Ok @11824050
c0 kv_get Ok(None) @11965909
c0 array_open ObjNotFound @12047768
c0 cont_open_or_create Ok @12207768
c0 cont_open Ok @12367768
c0 cont_open ContNotFound @12497768
c0 kv_put Ok @12729589
c0 kv_get Ok(Some(100b #e8e476ed88d1b99e)) @12871448
c0 kv_get Ok(None) @13013307
c0 kv_put_if_absent Ok(Some(100b #e8e476ed88d1b99e)) @13245166
c0 kv_put_if_absent Ok(None) @13476987
c0 kv_put_multi Ok @13708808
c0 kv_put_multi Ok @13708808
c0 kv_list_keys Ok(5 keys) @13790308
c0 kv_list_range Ok(2 keys) @13871808
c0 kv_remove Ok @14103629
c0 kv_remove Ok @14335450
c0 array_create Ok @14422271
c0 array_create ObjExists @14509092
c0 array_open Ok @14590951
c0 array_close Ok @14595951
c0 array_open_or_create Ok @14682772
c0 array_close Ok @14687772
c0 array_write Ok @15709315
c0 array_write Ok @15811458
c0 array_write_vec Ok @15959199
c0 array_write_vec Ok @16061342
c0 array_write_vec Ok @16061342
c0 array_read Ok(2101248b #fa6b900fc7a4dd80) @16658379
c0 array_read Ok(700b #3bf7ee0793a58b12) @16778881
c0 array_size Ok(2101248) @16860740
c0 list_array_objects Ok(1 arrays) @17021240
c0 kv_get WrongType @17133099
c0 array_close Ok @17138099
c0 obj_punch Ok @17224599
c0 obj_punch Ok @17311099
c0 kv_get Ok(None) @17452958
c0 array_open ObjNotFound @17534817
c0 cont_open_or_create Ok @17694817
c0 cont_open Ok @17854817
c0 cont_open ContNotFound @17984817
c0 kv_put Ok @18216638
c0 kv_get Ok(Some(100b #e8e476ed88d1b99e)) @18358497
c0 kv_get Ok(None) @18500356
c0 kv_put_if_absent Ok(Some(100b #e8e476ed88d1b99e)) @18732215
c0 kv_put_if_absent Ok(None) @18964036
c0 kv_put_multi Ok @19236499
c0 kv_put_multi Ok @19236499
c0 kv_list_keys Ok(5 keys) @19317999
c0 kv_list_range Ok(2 keys) @19399499
c0 kv_remove Ok @19631320
c0 kv_remove Ok @19863141
c0 array_create Ok @19949962
c0 array_create ObjExists @20036783
c0 array_open Ok @20118642
c0 array_close Ok @20123642
c0 array_open_or_create Ok @20210463
c0 array_close Ok @20215463
c0 array_write Ok @22116969
c0 array_write Ok @22219112
c0 array_write_vec Ok @22341853
c0 array_write_vec Ok @22443996
c0 array_write_vec Ok @22443996
c0 array_read Ok(2101248b #fa6b900fc7a4dd80) @23174000
c0 array_read Ok(700b #3bf7ee0793a58b12) @23269532
c0 array_size Ok(2101248) @23351391
c0 list_array_objects Ok(1 arrays) @23511891
c0 kv_get WrongType @23623750
c0 array_close Ok @23628750
c0 obj_punch Ok @23715250
c0 obj_punch Ok @23801750
c0 kv_get Ok(None) @23943609
c0 array_open ObjNotFound @24025468
c0 cont_open_or_create Ok @24185468
c0 cont_open Ok @24345468
c0 cont_open ContNotFound @24475468
c0 kv_put Ok @24707289
c0 kv_get Ok(Some(100b #e8e476ed88d1b99e)) @24849148
c0 kv_get Ok(None) @24991007
c0 kv_put_if_absent Ok(Some(100b #e8e476ed88d1b99e)) @25222866
c0 kv_put_if_absent Ok(None) @25454687
c0 kv_put_multi Ok @25706829
c0 kv_put_multi Ok @25706829
c0 kv_list_keys Ok(5 keys) @25788329
c0 kv_list_range Ok(2 keys) @25869829
c0 kv_remove Ok @26101650
c0 kv_remove Ok @26333471
c0 array_create Ok @26420292
c0 array_create ObjExists @26507113
c0 array_open Ok @26588972
c0 array_close Ok @26593972
c0 array_open_or_create Ok @26680793
c0 array_close Ok @26685793
c0 array_write Ok @27709096
c0 array_write InvalidArg @27709096
c0 array_write_vec InvalidArg @27709096
c0 array_write_vec Ok @27832718
c0 array_write_vec Ok @27832718
c0 array_read Ok(2101248b #e4084dc1d9fa0800) @28429754
c0 array_read Ok(700b #3ae318db6cf54292) @28550286
c0 array_size Ok(2101248) @28632145
c0 list_array_objects Ok(1 arrays) @28792645
c0 kv_get WrongType @28904504
c0 array_close Ok @28909504
c0 obj_punch Ok @28996004
c0 obj_punch Ok @29082504
c0 kv_get Ok(None) @29224363
c0 array_open ObjNotFound @29306222
end @29306222 stranded=0
pool used=11666072
t0 scm=1280 nvme=0 busy=162682 r=3/384 w=5/430
t1 scm=1792 nvme=0 busy=142247 r=0/0 w=7/604
t2 scm=1792 nvme=0 busy=288683 r=4/512 w=7/604
t3 scm=256 nvme=0 busy=20321 r=0/0 w=1/202
t5 scm=0 nvme=0 busy=20359 r=1/128 w=0/0
t6 scm=3180800 nvme=0 busy=3833016 r=4/2102204 w=9/3179622
t7 scm=1280 nvme=0 busy=183041 r=4/512 w=5/430
t8 scm=256 nvme=0 busy=20321 r=0/0 w=1/162
t9 scm=2125824 nvme=0 busy=2735411 r=3/2102076 w=6/2124850
t12 scm=1067776 nvme=0 busy=1457124 r=2/1048676 w=4/1067008
t13 scm=2127360 nvme=0 busy=3024256 r=8/2102460 w=14/2125332
t14 scm=2113536 nvme=0 busy=2787068 r=7/2104852 w=7/2112452
t15 scm=0 nvme=0 busy=20359 r=1/128 w=0/0
t18 scm=2125312 nvme=0 busy=1927797 r=0/0 w=5/2124728
t22 scm=1054720 nvme=0 busy=1265119 r=2/1051324 w=2/1054720
t23 scm=1280 nvme=0 busy=227682 r=3/384 w=5/280
client.array_create.ops=10
client.array_open.ops=10
client.array_open_or_create.ops=5
client.array_read.ops=10
client.array_size.ops=5
client.array_write.ops=10
client.array_write_vec.ops=15
client.kv_get.ops=20
client.kv_list_keys.ops=5
client.kv_list_range.ops=5
client.kv_put.ops=5
client.kv_put_if_absent.ops=10
client.kv_put_multi.ops=10
client.kv_remove.ops=10
client.obj_punch.ops=10
client.op_ns count=140 sum=26128722
"#;
const FRICTIONLESS: &str = r#"
c0 cont_open_or_create Ok @60000
c0 cont_open Ok @120000
c0 cont_open ContNotFound @150000
c0 kv_put Ok @210321
c0 kv_get Ok(Some(100b #e8e476ed88d1b99e)) @270680
c0 kv_get Ok(None) @331039
c0 kv_put_if_absent Ok(Some(100b #e8e476ed88d1b99e)) @391398
c0 kv_put_if_absent Ok(None) @451719
c0 kv_put_multi Ok @512682
c0 kv_put_multi Ok @512682
c0 kv_list_keys Ok(5 keys) @572682
c0 kv_list_range Ok(2 keys) @632682
c0 kv_remove Ok @693003
c0 kv_remove Ok @753324
c0 array_create Ok @813645
c0 array_create ObjExists @873966
c0 array_open Ok @934325
c0 array_close Ok @934325
c0 array_open_or_create Ok @994646
c0 array_close Ok @994646
c0 array_write Ok @2861152
c0 array_write Ok @2928295
c0 array_write_vec Ok @2994658
c0 array_write_vec Ok @3061801
c0 array_write_vec Ok @3061801
c0 array_read Ok(2101248b #fa6b900fc7a4dd80) @3756805
c0 array_read Ok(700b #3bf7ee0793a58b12) @3817337
c0 array_size Ok(2101248) @3877696
c0 list_array_objects Ok(1 arrays) @3938196
c0 kv_get WrongType @3968555
c0 array_close Ok @3968555
c0 obj_punch Ok @4028555
c0 obj_punch Ok @4088555
c0 kv_get Ok(None) @4148914
c0 array_open ObjNotFound @4209273
c0 cont_open_or_create Ok @4269273
c0 cont_open Ok @4329273
c0 cont_open ContNotFound @4359273
c0 kv_put Ok @4419594
c0 kv_get Ok(Some(100b #e8e476ed88d1b99e)) @4479953
c0 kv_get Ok(None) @4540312
c0 kv_put_if_absent Ok(Some(100b #e8e476ed88d1b99e)) @4600671
c0 kv_put_if_absent Ok(None) @4660992
c0 kv_put_multi Ok @4721634
c0 kv_put_multi Ok @4721634
c0 kv_list_keys Ok(5 keys) @4781634
c0 kv_list_range Ok(2 keys) @4841634
c0 kv_remove Ok @4901955
c0 kv_remove Ok @4962276
c0 array_create Ok @5022597
c0 array_create ObjExists @5082918
c0 array_open Ok @5143277
c0 array_close Ok @5143277
c0 array_open_or_create Ok @5203598
c0 array_close Ok @5203598
c0 array_write Ok @6168662
c0 array_write Ok @6235805
c0 array_write_vec Ok @6300407
c0 array_write_vec Ok @6367550
c0 array_write_vec Ok @6367550
c0 array_read Ok(2101248b #fa6b900fc7a4dd80) @6859111
c0 array_read Ok(700b #3bf7ee0793a58b12) @6919613
c0 array_size Ok(2101248) @6979972
c0 list_array_objects Ok(1 arrays) @7040472
c0 kv_get WrongType @7070831
c0 array_close Ok @7070831
c0 obj_punch Ok @7130831
c0 obj_punch Ok @7190831
c0 kv_get Ok(None) @7251190
c0 array_open ObjNotFound @7311549
c0 cont_open_or_create Ok @7371549
c0 cont_open Ok @7431549
c0 cont_open ContNotFound @7461549
c0 kv_put Ok @7521870
c0 kv_get Ok(Some(100b #e8e476ed88d1b99e)) @7582229
c0 kv_get Ok(None) @7642588
c0 kv_put_if_absent Ok(Some(100b #e8e476ed88d1b99e)) @7702947
c0 kv_put_if_absent Ok(None) @7763268
c0 kv_put_multi Ok @7823589
c0 kv_put_multi Ok @7823589
c0 kv_list_keys Ok(5 keys) @7883589
c0 kv_list_range Ok(2 keys) @7943589
c0 kv_remove Ok @8003910
c0 kv_remove Ok @8064231
c0 array_create Ok @8124552
c0 array_create ObjExists @8184873
c0 array_open Ok @8245232
c0 array_close Ok @8245232
c0 array_open_or_create Ok @8305553
c0 array_close Ok @8305553
c0 array_write Ok @9267096
c0 array_write Ok @9334239
c0 array_write_vec Ok @9396980
c0 array_write_vec Ok @9464123
c0 array_write_vec Ok @9464123
c0 array_read Ok(2101248b #fa6b900fc7a4dd80) @9954790
c0 array_read Ok(700b #3bf7ee0793a58b12) @10015292
c0 array_size Ok(2101248) @10075651
c0 list_array_objects Ok(1 arrays) @10136151
c0 kv_get WrongType @10166510
c0 array_close Ok @10166510
c0 obj_punch Ok @10226510
c0 obj_punch Ok @10286510
c0 kv_get Ok(None) @10346869
c0 array_open ObjNotFound @10407228
c0 cont_open_or_create Ok @10467228
c0 cont_open Ok @10527228
c0 cont_open ContNotFound @10557228
c0 kv_put Ok @10617549
c0 kv_get Ok(Some(100b #e8e476ed88d1b99e)) @10677908
c0 kv_get Ok(None) @10738267
c0 kv_put_if_absent Ok(Some(100b #e8e476ed88d1b99e)) @10798626
c0 kv_put_if_absent Ok(None) @10858947
c0 kv_put_multi Ok @10919910
c0 kv_put_multi Ok @10919910
c0 kv_list_keys Ok(5 keys) @10979910
c0 kv_list_range Ok(2 keys) @11039910
c0 kv_remove Ok @11100231
c0 kv_remove Ok @11160552
c0 array_create Ok @11220873
c0 array_create ObjExists @11281194
c0 array_open Ok @11341553
c0 array_close Ok @11341553
c0 array_open_or_create Ok @11401874
c0 array_close Ok @11401874
c0 array_write Ok @13268380
c0 array_write Ok @13335523
c0 array_write_vec Ok @13401886
c0 array_write_vec Ok @13469029
c0 array_write_vec Ok @13469029
c0 array_read Ok(2101248b #fa6b900fc7a4dd80) @14164033
c0 array_read Ok(700b #3bf7ee0793a58b12) @14224565
c0 array_size Ok(2101248) @14284924
c0 list_array_objects Ok(1 arrays) @14345424
c0 kv_get WrongType @14375783
c0 array_close Ok @14375783
c0 obj_punch Ok @14435783
c0 obj_punch Ok @14495783
c0 kv_get Ok(None) @14556142
c0 array_open ObjNotFound @14616501
c0 cont_open_or_create Ok @14676501
c0 cont_open Ok @14736501
c0 cont_open ContNotFound @14766501
c0 kv_put Ok @14826822
c0 kv_get Ok(Some(100b #e8e476ed88d1b99e)) @14887181
c0 kv_get Ok(None) @14947540
c0 kv_put_if_absent Ok(Some(100b #e8e476ed88d1b99e)) @15007899
c0 kv_put_if_absent Ok(None) @15068220
c0 kv_put_multi Ok @15128862
c0 kv_put_multi Ok @15128862
c0 kv_list_keys Ok(5 keys) @15188862
c0 kv_list_range Ok(2 keys) @15248862
c0 kv_remove Ok @15309183
c0 kv_remove Ok @15369504
c0 array_create Ok @15429825
c0 array_create ObjExists @15490146
c0 array_open Ok @15550505
c0 array_close Ok @15550505
c0 array_open_or_create Ok @15610826
c0 array_close Ok @15610826
c0 array_write Ok @16574129
c0 array_write InvalidArg @16574129
c0 array_write_vec InvalidArg @16574129
c0 array_write_vec Ok @16637751
c0 array_write_vec Ok @16637751
c0 array_read Ok(2101248b #e4084dc1d9fa0800) @17128922
c0 array_read Ok(700b #3ae318db6cf54292) @17189454
c0 array_size Ok(2101248) @17249813
c0 list_array_objects Ok(1 arrays) @17310313
c0 kv_get WrongType @17340672
c0 array_close Ok @17340672
c0 obj_punch Ok @17400672
c0 obj_punch Ok @17460672
c0 kv_get Ok(None) @17521031
c0 array_open ObjNotFound @17581390
end @17581390 stranded=0
pool used=11666072
t0 scm=1280 nvme=0 busy=2682 r=3/384 w=5/430
t1 scm=1792 nvme=0 busy=2247 r=0/0 w=7/604
t2 scm=1792 nvme=0 busy=3683 r=4/512 w=7/604
t3 scm=256 nvme=0 busy=321 r=0/0 w=1/202
t5 scm=0 nvme=0 busy=359 r=1/128 w=0/0
t6 scm=3180800 nvme=0 busy=3373016 r=4/2102204 w=9/3179622
t7 scm=1280 nvme=0 busy=3041 r=4/512 w=5/430
t8 scm=256 nvme=0 busy=321 r=0/0 w=1/162
t9 scm=2125824 nvme=0 busy=2465411 r=3/2102076 w=6/2124850
t12 scm=1067776 nvme=0 busy=1237124 r=2/1048676 w=4/1067008
t13 scm=2127360 nvme=0 busy=2469256 r=8/2102460 w=14/2125332
t14 scm=2113536 nvme=0 busy=2457068 r=7/2104852 w=7/2112452
t15 scm=0 nvme=0 busy=359 r=1/128 w=0/0
t18 scm=2125312 nvme=0 busy=1827797 r=0/0 w=5/2124728
t22 scm=1054720 nvme=0 busy=1225119 r=2/1051324 w=2/1054720
t23 scm=1280 nvme=0 busy=2682 r=3/384 w=5/280
client.array_create.ops=10
client.array_open.ops=10
client.array_open_or_create.ops=5
client.array_read.ops=10
client.array_size.ops=5
client.array_write.ops=10
client.array_write_vec.ops=15
client.kv_get.ops=20
client.kv_list_keys.ops=5
client.kv_list_range.ops=5
client.kv_put.ops=5
client.kv_put_if_absent.ops=10
client.kv_put_multi.ops=10
client.kv_remove.ops=10
client.obj_punch.ops=10
client.op_ns count=140 sum=16528890
"#;
const RACING: &str = r#"
c0 cont_open_or_create Ok @210000
c1 cont_open_or_create Ok @360000
c0 kv_put Ok @442261
c2 cont_open_or_create Ok @510000
c1 kv_put Ok @613022
c3 cont_open_or_create Ok @660000
c0 kv_put Ok @783343
c2 kv_put Ok @954104
c1 kv_put Ok @1124425
c3 kv_put Ok @1295186
c0 kv_put_if_absent Ok(None) @1465507
c2 kv_put Ok @1635828
c0 kv_put_if_absent Ok(None) @1697328
c1 kv_put_if_absent Ok(Some(8b #18b64a81c)) @1806187
c3 kv_put Ok @1976508
c1 kv_put_if_absent Ok(Some(8b #18b64a81c)) @2038046
c2 kv_put_if_absent Ok(Some(8b #18b64a81c)) @2146867
c0 kv_get Ok(Some(64b #761ceb520ded6be0)) @2227226
c0 array_open_or_create Ok @2314047
c2 kv_put_if_absent Ok(Some(8b #18b64a81c)) @2378726
c3 kv_put_if_absent Ok(Some(8b #18b64a81c)) @2397585
c0 array_write_vec Ok @2437669
c1 kv_get Ok(Some(64b #761ceb520ded6be0)) @2477944
c2 kv_get Ok(Some(64b #761ceb520ded6be0)) @2558303
c3 kv_put_if_absent Ok(Some(8b #18b64a81c)) @2629444
c3 kv_get Ok(Some(64b #761ceb520ded6be0)) @2771303
c0 array_write Ok @2983491
c1 array_open_or_create Ok @3008812
c2 array_open_or_create Ok @3034133
c3 array_open_or_create Ok @3059454
c1 array_write_vec Ok @3764501
c3 array_write_vec Ok @3828123
c0 array_read Ok(4194304b #34f562a079efa800) @4080350
c0 array_close Ok @4085350
c2 array_write_vec Ok @4143972
c1 array_write Ok @4629794
c3 array_write Ok @5115616
c2 array_write Ok @5601438
c1 array_read Ok(4194304b #a17291f47ff95900) @6638297
c1 array_close Ok @6643297
c3 array_read Ok(4194304b #a17291f47ff95900) @7675156
c3 array_close Ok @7680156
c2 array_read Ok(4194304b #a17291f47ff95900) @8712015
c2 array_close Ok @8717015
end @8717015 stranded=0
pool used=2132280
t8 scm=256 nvme=0 busy=81398 r=3/384 w=1/12
t11 scm=4352 nvme=0 busy=184649 r=0/0 w=9/2348
t15 scm=2114560 nvme=0 busy=4574124 r=4/8388608 w=8/2113536
t16 scm=16384 nvme=0 busy=2629552 r=4/8388608 w=4/16384
t23 scm=4352 nvme=0 busy=327162 r=7/896 w=9/2348
client.array_open_or_create.ops=4
client.array_read.ops=4
client.array_write.ops=4
client.array_write_vec.ops=4
client.kv_get.ops=4
client.kv_put.ops=8
client.kv_put_if_absent.ops=8
client.op_ns count=36 sum=25365818
"#;
const YIELDS: &str = r#"
c0 cont_open_or_create Ok @60000
c1 cont_open_or_create Ok @60000
c2 cont_open_or_create Ok @60000
c3 cont_open_or_create Ok @60000
c4 cont_open_or_create Ok @60000
c5 cont_open_or_create Ok @60000
c0 array_create Ok @120119
c3 array_create Ok @120119
c1 array_create Ok @120238
c5 array_create Ok @120238
c2 array_create Ok @120357
c4 array_create Ok @120476
c1 kv_put Ok @1060119
c3 kv_put Ok @1061301
c5 kv_put Ok @1061420
c0 array_write Ok @1062018
c2 array_write Ok @1062018
c4 array_write Ok @1062018
c0 kv_put Ok @2060513
c2 kv_put Ok @2060632
c4 kv_put Ok @2060907
c5 array_write Ok @2062018
c3 array_write Ok @2062018
c1 array_write Ok @2062018
c1 kv_put Ok @3060119
c5 kv_put Ok @3061301
c3 kv_put Ok @3061420
c4 array_write Ok @3062018
c2 array_write Ok @3062018
c0 array_write Ok @3062018
c2 kv_put Ok @4060513
c2 array_close Ok @4060513
c0 kv_put Ok @4060632
c0 array_close Ok @4060632
c4 kv_put Ok @4060907
c4 array_close Ok @4060907
c3 array_write Ok @4062018
c5 array_write Ok @4062018
c1 array_write Ok @4062018
c3 array_close Ok @4062018
c5 array_close Ok @4062018
c1 array_close Ok @4062018
end @4062018 stranded=0
pool used=49944
t0 scm=17920 nvme=0 busy=2290 r=0/0 w=8/16648
t1 scm=35840 nvme=0 busy=4580 r=0/0 w=16/33296
client.array_create.ops=6
client.array_write.ops=12
client.kv_put.ops=12
client.op_ns count=30 sum=1835547
"#;

const DEGRADED: &str = r#"
== kill engine 0
c0 cont_open_or_create Ok @210000
c0 array_create Ok @296821
c0 array_write Ok @545888
c0 array_create Ok @632709
c0 array_write Ok @985742
c0 kv_put Ok @1217563
c0 array_create Ok @1304384
c0 array_write Ok @1553451
c0 array_create Ok @1640272
c0 array_write Ok @1993305
c0 kv_put Ok @2225126
c0 array_create Ok @2311947
c0 array_write Ok @2561014
c0 array_create Ok @2647835
c0 array_write Ok @3000868
c0 kv_put Ok @3232689
c0 array_create Ok @3319510
c0 array_write Ok @3568577
c0 array_create Ok @3655398
c0 array_write Ok @4008431
c0 kv_put Ok @4240252
c0 array_read EngineUnavailable @4240252
c0 array_read EngineUnavailable @4240252
c0 array_size Ok(300001) @4322111
c0 array_write EngineUnavailable @4322111
c0 array_read Ok(300001b #e9f32e1d36af8890) @4508047
c0 array_read Ok(50b #703596a0f60343af) @4603383
c0 array_size Ok(300001) @4685242
c0 array_write EngineUnavailable @4685242
c0 array_read Ok(300001b #33318d22b9e95e91) @4887065
c0 array_read Ok(50b #4cb4292c3c87e6cf) @5088888
c0 array_size Ok(300001) @5170747
c0 array_write EngineUnavailable @5170747
c0 array_read Ok(300001b #33318d22b9e95e91) @5356683
c0 array_read Ok(50b #4cb4292c3c87e6cf) @5452019
c0 array_size Ok(300001) @5533878
c0 array_write EngineUnavailable @5533878
c0 array_read EngineUnavailable @5533878
c0 array_read EngineUnavailable @5533878
c0 array_size Ok(300001) @5615737
c0 array_write EngineUnavailable @5615737
c0 array_read Ok(300001b #3a200f50b8268c92) @5801673
c0 array_read Ok(50b #2932bbb7830c89ef) @5897009
c0 array_size Ok(300001) @5978868
c0 array_write EngineUnavailable @5978868
c0 array_read Ok(300001b #b3973962c2fd6293) @6180691
c0 array_read Ok(50b #5b14e42c9912d0f) @6382514
c0 array_size Ok(300001) @6464373
c0 array_write EngineUnavailable @6464373
c0 array_read Ok(300001b #b3973962c2fd6293) @6650309
c0 array_read Ok(50b #5b14e42c9912d0f) @6745645
c0 array_size Ok(300001) @6827504
c0 array_write EngineUnavailable @6827504
c0 kv_get Ok(Some(64b #e887e8cbb2d924e0)) @6969363
c0 kv_list_keys Ok(1 keys) @7050863
c0 kv_put EngineUnavailable @7050863
c0 kv_put_multi EngineUnavailable @7050863
c0 kv_get Ok(Some(64b #e887e8cbb2d924e0)) @7192722
c0 kv_list_keys Ok(1 keys) @7274222
c0 kv_put EngineUnavailable @7274222
c0 kv_put_multi EngineUnavailable @7274222
c0 kv_get Ok(Some(64b #e887e8cbb2d924e0)) @7416081
c0 kv_list_keys Ok(1 keys) @7497581
c0 kv_put EngineUnavailable @7497581
c0 kv_put_multi EngineUnavailable @7497581
c0 kv_get Ok(Some(64b #e887e8cbb2d924e0)) @7639440
c0 kv_list_keys Ok(1 keys) @7720940
c0 kv_put EngineUnavailable @7720940
c0 kv_put_multi EngineUnavailable @7720940
c0 array_create EngineUnavailable @7720940
c0 array_open_or_create Ok @7807761
c0 array_close Ok @7812761
c0 array_close Ok @7817761
c0 array_close Ok @7822761
c0 array_close Ok @7827761
c0 array_close Ok @7832761
c0 array_close Ok @7837761
c0 array_close Ok @7842761
c0 array_close Ok @7847761
end @7847761 stranded=0
pool used=3000272
t0 scm=150016 nvme=0 busy=139067 r=0/0 w=1/150000
t2 scm=450304 nvme=0 busy=432421 r=0/0 w=2/450001
t4 scm=150272 nvme=0 busy=164388 r=0/0 w=1/150001
t5 scm=256 nvme=0 busy=20321 r=0/0 w=1/65
t7 scm=450560 nvme=0 busy=452742 r=0/0 w=3/450066
t8 scm=450560 nvme=0 busy=452742 r=0/0 w=3/450067
t10 scm=150272 nvme=0 busy=159388 r=0/0 w=2/150066
t11 scm=300288 nvme=0 busy=293354 r=0/0 w=1/300001
t12 scm=150016 nvme=0 busy=270682 r=2/300000 w=1/150000
t14 scm=300288 nvme=0 busy=424985 r=2/300051 w=1/300001
t15 scm=150016 nvme=0 busy=250323 r=2/300002 w=1/150001
t16 scm=150272 nvme=0 busy=184747 r=0/0 w=1/150001
t17 scm=512 nvme=0 busy=86001 r=1/128 w=1/65
t18 scm=150272 nvme=0 busy=184747 r=0/0 w=1/150001
t19 scm=300544 nvme=0 busy=485665 r=3/300179 w=2/300066
t20 scm=450560 nvme=0 busy=735988 r=5/600181 w=3/450067
t22 scm=256 nvme=0 busy=60680 r=1/128 w=1/65
t23 scm=450560 nvme=0 busy=720988 r=4/600053 w=2/450002
client.array_create.ops=9
client.array_open_or_create.ops=1
client.array_read.ops=16
client.array_size.ops=8
client.array_write.ops=16
client.kv_get.ops=4
client.kv_list_keys.ops=4
client.kv_put.ops=8
client.kv_put_multi.ops=4
client.op_ns count=70 sum=7597761
== kill engine 1
c0 cont_open_or_create Ok @210000
c0 array_create Ok @296821
c0 array_write Ok @545888
c0 array_create Ok @632709
c0 array_write Ok @985742
c0 kv_put Ok @1217563
c0 array_create Ok @1304384
c0 array_write Ok @1553451
c0 array_create Ok @1640272
c0 array_write Ok @1993305
c0 kv_put Ok @2225126
c0 array_create Ok @2311947
c0 array_write Ok @2561014
c0 array_create Ok @2647835
c0 array_write Ok @3000868
c0 kv_put Ok @3232689
c0 array_create Ok @3319510
c0 array_write Ok @3568577
c0 array_create Ok @3655398
c0 array_write Ok @4008431
c0 kv_put Ok @4240252
c0 array_read Ok(300001b #e9f32e1d36af8890) @4442075
c0 array_read Ok(50b #703596a0f60343af) @4643898
c0 array_size Ok(300001) @4725757
c0 array_write EngineUnavailable @4725757
c0 array_read Ok(300001b #e9f32e1d36af8890) @4911693
c0 array_read Ok(50b #703596a0f60343af) @5007029
c0 array_size Ok(300001) @5088888
c0 array_write EngineUnavailable @5088888
c0 array_read EngineUnavailable @5088888
c0 array_read EngineUnavailable @5088888
c0 array_size Ok(300001) @5170747
c0 array_write EngineUnavailable @5170747
c0 array_read Ok(300001b #33318d22b9e95e91) @5356683
c0 array_read Ok(50b #4cb4292c3c87e6cf) @5452019
c0 array_size Ok(300001) @5533878
c0 array_write EngineUnavailable @5533878
c0 array_read Ok(300001b #3a200f50b8268c92) @5735701
c0 array_read Ok(50b #2932bbb7830c89ef) @5937524
c0 array_size Ok(300001) @6019383
c0 array_write EngineUnavailable @6019383
c0 array_read Ok(300001b #3a200f50b8268c92) @6205319
c0 array_read Ok(50b #2932bbb7830c89ef) @6300655
c0 array_size Ok(300001) @6382514
c0 array_write EngineUnavailable @6382514
c0 array_read EngineUnavailable @6382514
c0 array_read EngineUnavailable @6382514
c0 array_size Ok(300001) @6464373
c0 array_write EngineUnavailable @6464373
c0 array_read Ok(300001b #b3973962c2fd6293) @6650309
c0 array_read Ok(50b #5b14e42c9912d0f) @6745645
c0 array_size Ok(300001) @6827504
c0 array_write EngineUnavailable @6827504
c0 kv_get Ok(Some(64b #e887e8cbb2d924e0)) @6969363
c0 kv_list_keys Ok(1 keys) @7050863
c0 kv_put EngineUnavailable @7050863
c0 kv_put_multi EngineUnavailable @7050863
c0 kv_get Ok(Some(64b #e887e8cbb2d924e0)) @7192722
c0 kv_list_keys Ok(1 keys) @7274222
c0 kv_put EngineUnavailable @7274222
c0 kv_put_multi EngineUnavailable @7274222
c0 kv_get Ok(Some(64b #e887e8cbb2d924e0)) @7416081
c0 kv_list_keys Ok(1 keys) @7497581
c0 kv_put EngineUnavailable @7497581
c0 kv_put_multi EngineUnavailable @7497581
c0 kv_get Ok(Some(64b #e887e8cbb2d924e0)) @7639440
c0 kv_list_keys Ok(1 keys) @7720940
c0 kv_put EngineUnavailable @7720940
c0 kv_put_multi EngineUnavailable @7720940
c0 array_create EngineUnavailable @7720940
c0 array_open_or_create EngineUnavailable @7720940
c0 array_close Ok @7725940
c0 array_close Ok @7730940
c0 array_close Ok @7735940
c0 array_close Ok @7740940
c0 array_close Ok @7745940
c0 array_close Ok @7750940
c0 array_close Ok @7755940
c0 array_close Ok @7760940
end @7760940 stranded=0
pool used=3000272
t0 scm=150016 nvme=0 busy=270682 r=2/300000 w=1/150000
t2 scm=450304 nvme=0 busy=695667 r=4/600051 w=2/450001
t4 scm=150272 nvme=0 busy=184747 r=0/0 w=1/150001
t5 scm=256 nvme=0 busy=60680 r=1/128 w=1/65
t7 scm=450560 nvme=0 busy=645091 r=3/300179 w=3/450066
t8 scm=450560 nvme=0 busy=735988 r=5/600181 w=3/450067
t10 scm=150272 nvme=0 busy=311003 r=3/300130 w=2/150066
t11 scm=300288 nvme=0 busy=424985 r=2/300051 w=1/300001
t12 scm=150016 nvme=0 busy=139067 r=0/0 w=1/150000
t14 scm=300288 nvme=0 busy=293354 r=0/0 w=1/300001
t15 scm=150016 nvme=0 busy=139067 r=0/0 w=1/150001
t16 scm=150272 nvme=0 busy=164388 r=0/0 w=1/150001
t17 scm=256 nvme=0 busy=20321 r=0/0 w=1/65
t18 scm=150272 nvme=0 busy=164388 r=0/0 w=1/150001
t19 scm=300544 nvme=0 busy=313675 r=0/0 w=2/300066
t20 scm=450560 nvme=0 busy=452742 r=0/0 w=3/450067
t22 scm=256 nvme=0 busy=20321 r=0/0 w=1/65
t23 scm=450560 nvme=0 busy=457742 r=0/0 w=2/450002
client.array_create.ops=9
client.array_open_or_create.ops=1
client.array_read.ops=16
client.array_size.ops=8
client.array_write.ops=16
client.kv_get.ops=4
client.kv_list_keys.ops=4
client.kv_put.ops=8
client.kv_put_multi.ops=4
client.op_ns count=70 sum=7510940
"#;
const BROWNOUT: &str = r#"
c0 cont_open_or_create Ok @210000
c0 array_create Ok @296821
c1 cont_open_or_create Ok @360000
c1 array_create Ok @143115558
c1 array_write Ok @144112101
c1 kv_put Ok @144343922
c1 kv_get Ok(Some(32b #35daf52f0beda470)) @144485781
c1 array_read Ok(1048576b #9eaa38dfbef80000) @144897824
c1 array_size Ok(1048576) @144979683
c1 array_close Ok @144984683
c0 array_write Ok @159452030
c0 kv_put Ok @159683851
c0 kv_get Ok(Some(32b #35daf52f0beda470)) @159825710
c0 array_read Ok(1048576b #9eaa38dfbef80000) @160237753
c0 array_size Ok(1048576) @160319612
c0 array_close Ok @160324612
end @160324612 stranded=0
pool used=2097218
t6 scm=1048832 nvme=0 busy=1284266 r=1/1048576 w=1/1048576
t8 scm=1048832 nvme=0 busy=936864 r=0/0 w=1/1048576
t16 scm=256 nvme=0 busy=40680 r=1/128 w=1/33
t18 scm=1048832 nvme=0 busy=936864 r=0/0 w=1/1048576
t20 scm=1048832 nvme=0 busy=1284266 r=1/1048576 w=1/1048576
t22 scm=256 nvme=0 busy=40680 r=1/128 w=1/33
client.array_create.ops=2
client.array_read.ops=2
client.array_size.ops=2
client.array_write.ops=2
client.kv_get.ops=2
client.kv_put.ops=2
client.op_ns count=12 sum=304729295
"#;
const FULL: &str = r#"
c0 cont_open_or_create Ok @210000
c0 array_open_or_create Ok @296637
c1 cont_open_or_create Ok @360000
c0 array_write Ok @392911
c1 array_open_or_create Ok @446637
c1 array_write Ok @542911
c0 kv_put Ok @624952
c1 kv_put Ok @774952
c0 kv_put_if_absent Ok(None) @856993
c0 array_create Ok @943630
c1 kv_put_if_absent Ok(None) @1006993
c0 array_write Ok @1039904
c1 array_create Ok @1093630
c1 array_write Ok @1189904
c0 kv_put Ok @1271945
c1 kv_put NoSpace @1371404
c0 kv_put_if_absent NoSpace @1453445
c0 array_create Ok @1540082
c1 kv_put_if_absent NoSpace @1552904
c0 array_write Ok @1636356
c1 array_create Ok @1651719
c1 array_write NoSpace @1706719
c0 kv_put NoSpace @1817856
c1 kv_put NoSpace @1888219
c0 kv_put_if_absent NoSpace @1999356
c1 kv_put_if_absent NoSpace @2069719
c0 array_create Ok @2085993
c0 array_write NoSpace @2140993
c1 array_create Ok @2156356
c1 array_write NoSpace @2211356
c0 kv_put NoSpace @2322493
c1 kv_put NoSpace @2392856
c0 kv_put_if_absent NoSpace @2503993
c1 kv_put_if_absent NoSpace @2574356
c1 array_create NoSpace @2574356
c0 array_create NoSpace @2590630
c1 array_write NoSpace @2629356
c0 array_write NoSpace @2654356
c1 kv_put NoSpace @2810856
c0 kv_put NoSpace @2835856
c1 kv_put_if_absent NoSpace @2992356
c1 array_create NoSpace @2992356
c0 kv_put_if_absent NoSpace @3017356
c0 array_create NoSpace @3017356
c1 array_write NoSpace @3047356
c0 array_write NoSpace @3072356
c1 kv_put NoSpace @3228856
c0 kv_put NoSpace @3253856
c1 kv_put_if_absent NoSpace @3410356
c0 kv_put_if_absent NoSpace @3435356
c1 array_create Ok @3496993
c1 array_close Ok @3501993
c0 array_create Ok @3522130
c0 array_close Ok @3527130
end @3527130 stranded=0
pool used=55970
t0 scm=25856 nvme=0 busy=159507 r=0/0 w=3/24576
t1 scm=32768 nvme=0 busy=225801 r=0/0 w=7/31394
t2 scm=26112 nvme=0 busy=184644 r=0/0 w=3/24576
t3 scm=32768 nvme=0 busy=225801 r=0/0 w=7/31394
client.array_create.ops=12
client.array_open_or_create.ops=2
client.array_write.ops=12
client.kv_put.ops=12
client.kv_put_if_absent.ops=12
client.op_ns count=50 sum=6449123
"#;
