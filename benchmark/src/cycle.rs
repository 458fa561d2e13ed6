//! `nwp-cycle` and `nwp-cycle-degraded`: the operational NWP production
//! cycle as an open loop. A writer fleet streams each forecast step's
//! fields into one shared forecast index under writer-priority
//! admission; a larger reader fleet fetches fields of the step that just
//! fell due. Every op is timed from the moment it was due.
//!
//! A field write is `FieldStore::write_field` run as an event-queue
//! composite, which records its own completion. (The field store's
//! pipelined writer reports completions only at its next `submit` or
//! `flush`, which would quantise write latency to the step interval.) A
//! reader waits for the field it fetches to be indexed, as product
//! generation waits for the model's notification, so no read fails and
//! a late writer shows up as reader latency.
//!
//! The degraded twin runs the same cycle on two-tier SCM+NVMe media with
//! background aggregation, a seeded fault campaign and the operational
//! retry policy.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use daosim_cluster::{
    spawn_aggregation, AggregationConfig, ClusterSpec, Deployment, FaultPlan, NvmeSpec, QosClass,
    RetryPolicy, ScmSpec, TierPolicy,
};
use daosim_core::cycle::{cycle_key, IndexLayout};
use daosim_core::fieldio::{FieldIoConfig, FieldStore};
use daosim_core::workload::payload;
use daosim_kernel::rng::splitmix64;
use daosim_kernel::sync::{WaitGroup, WorkToken};
use daosim_kernel::{AdmissionPolicy, Sim, SimDuration, SimTime};
use daosim_objstore::prelude::{EventQueue, OpOutput};

use crate::trace::{BenchClient, Site};
use crate::workload::{
    execute, finish, sleep_until, watch_end, Bandwidth, Class, RepOutcome, SharedLedger, Workload,
};

const MIB: u64 = 1024 * 1024;

/// The shape of one cycle.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub writers: u32,
    pub readers: u32,
    pub steps: u32,
    pub fields_per_step: u32,
    pub field_bytes: u64,
    pub interval: SimDuration,
    pub write_window: usize,
    pub reads_per_step: u32,
    pub read_window: usize,
}

/// Three reads per step, not more: on the tiered media every read of the
/// shared index pays NVMe latency under the index object's lock, and
/// beyond about 1.8 GiB/s of reads the backlog grows without bound.
pub const BENCH: Shape = Shape {
    writers: 8,
    readers: 24,
    steps: 290,
    fields_per_step: 4,
    field_bytes: 512 * 1024,
    interval: SimDuration::from_millis(25),
    write_window: 8,
    reads_per_step: 3,
    read_window: 3,
};

/// Distinct field payloads, generated from the seed at set-up.
const PAYLOADS: u64 = 32;
/// One read in this many has its bytes compared, not only its length.
const CONTENT_SAMPLE: u64 = 32;

/// The degraded campaign places one brownout in every `BROWNOUT_SLOT` of
/// the cycle and one NIC degradation in every `NIC_SLOT`, each at a
/// seeded offset in its slot and on a seeded engine. Many small equal
/// faults rather than a few of random length: the latency tail then
/// averages over dozens of fault events and moves by a few percent from
/// seed to seed, where `FaultPlan::random_campaign`'s 20–200 ms
/// brownouts swing the read p99 by a factor of two.
const BROWNOUT_SLOT: SimDuration = SimDuration::from_millis(100);
const BROWNOUT: SimDuration = SimDuration::from_millis(15);
const NIC_SLOT: SimDuration = SimDuration::from_millis(1200);
const NIC_FAULT: SimDuration = SimDuration::from_millis(150);
const NIC_FACTOR: f64 = 0.5;

fn spec(degraded: bool) -> ClusterSpec {
    let mut spec = ClusterSpec::tcp(1, 2);
    spec.admission = AdmissionPolicy::writer_priority();
    if degraded {
        // The `xp tiering` media: 1 MiB of SCM per target, so the write
        // buffer fills and aggregation runs, with watermarks low enough
        // that any resident field is eligible for migration.
        spec.calibration.scm = ScmSpec {
            capacity: 12 * MIB,
            ..spec.calibration.scm
        };
        spec.tiering = TierPolicy {
            nvme: Some(NvmeSpec::p4510_gen1()),
            scm_threshold: MIB,
            high_watermark: 0.30,
            low_watermark: 0.10,
        };
        spec.retry = RetryPolicy::builder().operational().build();
    }
    spec
}

fn at(interval: SimDuration, n: u32) -> SimTime {
    SimTime::from_nanos(interval.as_nanos() * n as u64)
}

fn campaign(seed: u64, engines: u32, span: SimDuration) -> FaultPlan {
    let mut state = splitmix64(seed ^ 0xFA17);
    let mut draw = |slot: SimDuration, i: u64, len: SimDuration| {
        state = splitmix64(state);
        let room = slot.as_nanos().saturating_sub(len.as_nanos()).max(1);
        let at = SimDuration::from_nanos(slot.as_nanos() * i + state % room);
        state = splitmix64(state);
        (at, (state % engines as u64) as u32)
    };
    let mut plan = FaultPlan::new();
    for i in 0..span.as_nanos() / BROWNOUT_SLOT.as_nanos() {
        let (at, engine) = draw(BROWNOUT_SLOT, i, BROWNOUT);
        plan = plan.brownout(at, engine, BROWNOUT);
    }
    for i in 0..span.as_nanos() / NIC_SLOT.as_nanos() {
        let (at, engine) = draw(NIC_SLOT, i, NIC_FAULT);
        plan = plan.degrade_nic(at, engine, NIC_FACTOR, NIC_FAULT);
    }
    plan
}

pub fn run<D: BenchClient>(shape: &Shape, degraded: bool, seed: u64, t0: Instant) -> RepOutcome {
    let sim = Sim::new();
    let spec = spec(degraded);
    let d = Deployment::new(&sim, spec);
    let span = SimDuration::from_nanos(shape.interval.as_nanos() * shape.steps as u64);
    if degraded {
        campaign(seed, spec.engines(), span).apply(&d);
        // Aggregation must outlive the workload's tail; the makespan and
        // busy fractions are taken at the last workload op regardless.
        spawn_aggregation(
            &d,
            AggregationConfig::operational(span + SimDuration::from_secs(1), seed),
        );
    }
    let pool: Rc<Vec<Bytes>> = Rc::new(
        (0..PAYLOADS)
            .map(|i| payload(shape.field_bytes, splitmix64(seed ^ i)))
            .collect(),
    );
    let fields = (shape.writers * shape.steps * shape.fields_per_step) as usize;
    let published: Rc<Vec<WaitGroup>> = Rc::new((0..fields).map(|_| WaitGroup::new()).collect());
    let mut tokens: Vec<WorkToken> = published.iter().map(WaitGroup::add).collect();
    let ledger: SharedLedger = Rc::default();
    let ppn = (shape.writers + shape.readers).div_ceil(spec.client_nodes as u32);
    let tasks = WaitGroup::new();
    let cx = Cycle {
        shape: *shape,
        seed,
        sim: sim.clone(),
        pool,
        published,
        ledger: Rc::clone(&ledger),
    };
    // Writer `w` owns the publication tokens of its own fields, in order.
    let per_writer = (shape.steps * shape.fields_per_step) as usize;
    for w in (0..shape.writers).rev() {
        let mine = tokens.split_off(w as usize * per_writer);
        let client = D::connect(&d, (w / ppn) as u16, w % ppn, QosClass::Writer);
        let (cx, token) = (cx.clone(), tasks.add());
        client.clone().spawn_task(async move {
            cx.writer(client, w, mine).await;
            drop(token);
        });
    }
    for r in 0..shape.readers {
        let p = shape.writers + r;
        let client = D::connect(&d, (p / ppn) as u16, p % ppn, QosClass::Reader);
        let (cx, token) = (cx.clone(), tasks.add());
        client.clone().spawn_task(async move {
            cx.reader(client, r).await;
            drop(token);
        });
    }
    let end = watch_end(&d, &tasks);
    let timing = execute(&sim, t0);
    let workload = if degraded {
        Workload::NwpCycleDegraded
    } else {
        Workload::NwpCycle
    };
    finish(workload, &d, &ledger, &end, Bandwidth::GlobalTiming, timing)
}

#[derive(Clone)]
struct Cycle {
    shape: Shape,
    seed: u64,
    sim: Sim,
    pool: Rc<Vec<Bytes>>,
    /// One latch per field, released when its write completes.
    published: Rc<Vec<WaitGroup>>,
    ledger: SharedLedger,
}

/// Completion state of one writer's step, for the deadline ledger.
struct Step {
    left: Cell<u32>,
    failed: Cell<bool>,
    deadline: SimTime,
}

impl Cycle {
    fn field(&self, w: u32, s: u32, f: u32) -> usize {
        ((w * self.shape.steps + s) * self.shape.fields_per_step + f) as usize
    }

    fn payload(&self, w: u32, s: u32, f: u32) -> Bytes {
        let h = splitmix64(self.seed ^ ((w as u64) << 42) ^ ((s as u64) << 21) ^ f as u64);
        self.pool[(h % PAYLOADS) as usize].clone()
    }

    /// The `(writer, field)` reader `r` fetches as its `i`-th read of step `s`.
    fn pick(&self, r: u32, s: u32, i: u32) -> (u32, u32) {
        let h = splitmix64(
            self.seed ^ 0x5EED_CAFE ^ ((r as u64) << 40) ^ ((s as u64) << 20) ^ i as u64,
        );
        (
            (h % self.shape.writers as u64) as u32,
            ((h >> 32) % self.shape.fields_per_step as u64) as u32,
        )
    }

    async fn connect<D: BenchClient>(&self, client: &D, id: u32) -> Option<Rc<FieldStore<D>>> {
        let fs = FieldStore::connect(client.clone(), FieldIoConfig::default(), id + 1);
        match client.wrap(Site::Fieldio, fs).await {
            Ok(fs) => Some(Rc::new(fs)),
            Err(e) => {
                self.ledger
                    .borrow_mut()
                    .error(format!("process {id} connect: {e}"));
                None
            }
        }
    }

    async fn writer<D: BenchClient>(self, client: D, w: u32, tokens: Vec<WorkToken>) {
        let Some(fs) = self.connect(&client, w).await else {
            return;
        };
        let sh = self.shape;
        let eq = EventQueue::new(client.clone());
        let mut tokens = tokens.into_iter();
        for s in 0..sh.steps {
            let due = at(sh.interval, s);
            sleep_until(&self.sim, due).await;
            let step = Rc::new(Step {
                left: Cell::new(sh.fields_per_step),
                failed: Cell::new(false),
                deadline: at(sh.interval, s + 1),
            });
            for f in 0..sh.fields_per_step {
                eq.wait_capacity(sh.write_window).await;
                {
                    let mut l = self.ledger.borrow_mut();
                    l.issued(due, self.sim.now());
                    l.attempt(Class::Write);
                }
                let key = cycle_key(IndexLayout::Shared, w, s, f);
                let data = self.payload(w, s, f);
                let token = tokens.next().expect("one token per field");
                let (client, fs, step) = (client.clone(), Rc::clone(&fs), Rc::clone(&step));
                let (ledger, sim) = (Rc::clone(&self.ledger), self.sim.clone());
                let id = self.field(w, s, f) as u32;
                eq.submit(async move {
                    let r = client.wrap(Site::Fieldio, fs.write_field(&key, data)).await;
                    let now = sim.now();
                    let mut l = ledger.borrow_mut();
                    l.done(Class::Write, due, now, sh.field_bytes, r.is_ok());
                    l.io(Class::Write, w, id, (due, now), sh.field_bytes);
                    step.failed.set(step.failed.get() || r.is_err());
                    step.left.set(step.left.get() - 1);
                    if step.left.get() == 0 {
                        l.deadline(!step.failed.get() && now <= step.deadline);
                    }
                    drop(token);
                    Ok(OpOutput::Unit)
                });
            }
        }
        eq.wait_all().await;
    }

    async fn reader<D: BenchClient>(self, client: D, r: u32) {
        let sh = self.shape;
        let Some(fs) = self.connect(&client, sh.writers + r).await else {
            return;
        };
        let eq = EventQueue::new(client.clone());
        for s in 0..sh.steps {
            // Step `s` falls due at the next boundary.
            let due = at(sh.interval, s + 1);
            sleep_until(&self.sim, due).await;
            for i in 0..sh.reads_per_step {
                eq.wait_capacity(sh.read_window).await;
                {
                    let mut l = self.ledger.borrow_mut();
                    l.issued(due, self.sim.now());
                    l.attempt(Class::Read);
                }
                let (w, f) = self.pick(r, s, i);
                let key = cycle_key(IndexLayout::Shared, w, s, f);
                let latch = self.published[self.field(w, s, f)].clone();
                let sampled = splitmix64(
                    self.seed ^ 0xC0FF_EE00 ^ ((r as u64) << 40) ^ ((s as u64) << 20) ^ i as u64,
                )
                .is_multiple_of(CONTENT_SAMPLE);
                let want = sampled.then(|| self.payload(w, s, f));
                let (client, fs) = (client.clone(), Rc::clone(&fs));
                let (ledger, sim) = (Rc::clone(&self.ledger), self.sim.clone());
                let id = s * sh.reads_per_step + i;
                eq.submit(async move {
                    latch.wait().await;
                    let res = client.wrap(Site::Fieldio, fs.read_field(&key)).await;
                    let now = sim.now();
                    let mut l = ledger.borrow_mut();
                    if let Ok(got) = &res {
                        if got.len() as u64 != sh.field_bytes {
                            l.error(format!("field w{w} s{s} f{f}: read {} bytes", got.len()));
                        } else if want.is_some_and(|x| x != *got) {
                            l.error(format!("field w{w} s{s} f{f}: content differs"));
                        }
                    }
                    l.done(Class::Read, due, now, sh.field_bytes, res.is_ok());
                    l.io(Class::Read, r, id, (due, now), sh.field_bytes);
                    Ok(OpOutput::Unit)
                });
            }
        }
        eq.wait_all().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daosim_cluster::SimClient;

    fn small() -> Shape {
        Shape {
            writers: 2,
            readers: 4,
            steps: 6,
            fields_per_step: 2,
            field_bytes: 64 * 1024,
            interval: SimDuration::from_millis(25),
            write_window: 4,
            reads_per_step: 3,
            read_window: 3,
        }
    }

    fn metric(out: &RepOutcome, name: &str) -> f64 {
        out.sim.iter().find(|(k, _)| k == name).unwrap().1
    }

    #[test]
    fn write_latency_is_not_quantised_to_the_step_interval() {
        let out = run::<SimClient>(&small(), false, 3, Instant::now());
        let interval_ms = small().interval.as_nanos() as f64 / 1e6;
        for name in ["write_p50_ms", "write_p99_ms"] {
            let v = metric(&out, name);
            assert!(v > 0.0, "{name} = {v}");
            assert!(
                (v / interval_ms).fract() != 0.0,
                "{name} = {v} ms is a multiple of the {interval_ms} ms interval"
            );
        }
        // Small samples trip only the tail-support check.
        assert!(
            out.errors.iter().all(|e| e.contains("beyond p")),
            "{:?}",
            out.errors
        );
        assert_eq!(out.failed, 0);
        let s = small();
        let writes = s.writers * s.steps * s.fields_per_step;
        let reads = s.readers * s.steps * s.reads_per_step;
        assert_eq!(out.attempted, (writes + reads) as u64);
    }

    #[test]
    fn makespan_ends_at_the_last_op_not_the_aggregation_horizon() {
        let out = run::<SimClient>(&small(), true, 5, Instant::now());
        let nominal = (small().steps as u64 * small().interval.as_nanos()) as f64 / 1e9;
        let makespan = metric(&out, "sim_makespan_s");
        // The aggregation service runs a full second past the nominal
        // span; the workload itself ends within a few intervals of it.
        assert!(makespan > nominal && makespan < nominal + 0.5, "{makespan}");
        assert!(metric(&out, "media.target_busy_max") <= 1.0);
        assert_eq!(out.failed, 0, "{:?}", out.errors);
    }
}
