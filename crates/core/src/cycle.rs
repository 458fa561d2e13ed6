//! The operational NWP production cycle: deadline-carrying model
//! writers racing a much larger product-generation reader fleet over
//! one pool.
//!
//! This reproduces the contention scenario of "Reducing the Impact of
//! I/O Contention in NWP Workflows at Scale Using DAOS" (arXiv
//! 2404.03107): every `step_interval` each writer must stream its
//! step's fields before the next step begins (the deadline), while
//! readers wake at each step boundary and fetch fields of the previous
//! step. The central lever is the **index layout**:
//!
//! * [`IndexLayout::Shared`] — the writer id lives only in the
//!   least-significant key part, so the whole fleet indexes into *one*
//!   forecast KV whose update lock serializes every index insert (the
//!   paper's contention case);
//! * [`IndexLayout::PerProcess`] — the writer id is in the
//!   most-significant part (`number`), giving each writer its own
//!   forecast KV and spreading index updates across the pool.
//!
//! Both layouts write byte-identical field contents for the same seed;
//! only the timing/QoS metrics may differ (pinned by a proptest below).

use std::cell::{Cell, RefCell};
use std::fmt::Write;
use std::rc::Rc;

use bytes::Bytes;
use daosim_cluster::{
    spawn_aggregation, AggregationConfig, ClusterSpec, Deployment, FaultPlan, QosClass, SimClient,
};
use daosim_kernel::rng::splitmix64;
use daosim_kernel::{AdmissionPolicy, CounterHandle, MetricsRegistry, Sim, SimDuration};

use crate::fieldio::{FieldIoConfig, FieldStore};
use crate::key::FieldKey;
use crate::metrics::{latency_stats, EventKind, LatencyStats, Recorder};
use crate::trace::ResilienceCounters;
use crate::workload::payload;

/// How writer processes map onto the forecast-KV index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexLayout {
    /// One forecast KV for the whole fleet: the writer id is demoted to
    /// a least-significant keyword, so every index insert serializes on
    /// the shared KV's update lock.
    Shared,
    /// One forecast KV per writer: the writer id rides the
    /// most-significant `number` keyword, so each writer owns its index.
    PerProcess,
}

impl IndexLayout {
    pub fn name(self) -> &'static str {
        match self {
            IndexLayout::Shared => "shared-index",
            IndexLayout::PerProcess => "index-per-process",
        }
    }

    pub fn all() -> [IndexLayout; 2] {
        [IndexLayout::Shared, IndexLayout::PerProcess]
    }
}

/// One operational cycle's shape.
#[derive(Clone, Copy, Debug)]
pub struct CycleConfig {
    /// Time-critical model-output writers.
    pub writers: u32,
    /// Product-generation readers (typically ≫ writers).
    pub readers: u32,
    /// Forecast steps; each step's fields are due before the next.
    pub steps: u32,
    pub fields_per_step: u32,
    pub field_bytes: u64,
    /// Wall-clock between steps — also each step's deadline budget.
    pub step_interval: SimDuration,
    pub layout: IndexLayout,
    /// Writer pipeline window (W of `pipelined_writer`).
    pub write_window: u32,
    /// Reader pipeline window for `read_fields_pipelined`.
    pub read_window: u32,
    /// Fields each reader fetches per step boundary.
    pub reads_per_step: u32,
    /// Service-queue admission policy the deployment enforces for this
    /// cycle (FIFO, or writer-priority QoS barging).
    pub admission: AdmissionPolicy,
    /// Background SCM→NVMe aggregation service, if the deployment's
    /// media is tiered. `None` leaves migration off even on tiered
    /// media (the capacity tier only fills by write-buffer spill).
    pub aggregation: Option<AggregationConfig>,
    pub seed: u64,
}

/// A malformed [`CycleConfig`], reported as a typed error instead of a
/// runtime panic deep inside the cycle (e.g. the `h % writers` reader
/// fan-out dividing by zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleConfigError {
    /// The named field must be at least one.
    Zero(&'static str),
}

impl std::fmt::Display for CycleConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CycleConfigError::Zero(field) => {
                write!(f, "cycle config: `{field}` must be at least 1")
            }
        }
    }
}

impl std::error::Error for CycleConfigError {}

impl CycleConfig {
    /// A small but genuinely contended cycle: more readers than
    /// writers, several fields per step.
    pub fn small(layout: IndexLayout) -> Self {
        CycleConfig {
            writers: 4,
            readers: 8,
            steps: 2,
            fields_per_step: 3,
            field_bytes: 256 * 1024,
            step_interval: SimDuration::from_millis(40),
            layout,
            write_window: 4,
            read_window: 4,
            reads_per_step: 3,
            admission: AdmissionPolicy::Fifo,
            aggregation: None,
            seed: 7,
        }
    }

    /// Checks the shape invariants every cycle run relies on: a zero in
    /// any of these fields would divide by zero (`reader_pick`), stall a
    /// pipeline window forever, or make the deadline ledger vacuous.
    pub fn validate(&self) -> Result<(), CycleConfigError> {
        for (name, v) in [
            ("writers", self.writers as u64),
            ("readers", self.readers as u64),
            ("steps", self.steps as u64),
            ("fields_per_step", self.fields_per_step as u64),
            ("field_bytes", self.field_bytes),
            ("write_window", self.write_window as u64),
            ("read_window", self.read_window as u64),
            ("step_interval", self.step_interval.as_nanos()),
        ] {
            if v == 0 {
                return Err(CycleConfigError::Zero(name));
            }
        }
        Ok(())
    }
}

/// Per-step deadline bookkeeping, surfaced through the metrics registry
/// (`cycle.deadlines_met` / `cycle.deadlines_missed`) so snapshots and
/// CSV exports carry the counts alongside the latency histograms.
#[derive(Clone)]
pub struct DeadlineLedger {
    met: CounterHandle,
    missed: CounterHandle,
    worst_late_ns: Rc<Cell<u64>>,
}

impl DeadlineLedger {
    pub fn new(metrics: &MetricsRegistry) -> Self {
        DeadlineLedger {
            met: metrics.counter("cycle.deadlines_met"),
            missed: metrics.counter("cycle.deadlines_missed"),
            worst_late_ns: Rc::new(Cell::new(0)),
        }
    }

    /// Records one step completion against its deadline.
    pub fn note(&self, due_ns: u64, completed_ns: u64) {
        if completed_ns <= due_ns {
            self.met.inc();
        } else {
            self.missed.inc();
            let late = completed_ns - due_ns;
            if late > self.worst_late_ns.get() {
                self.worst_late_ns.set(late);
            }
        }
    }

    /// Records a step that never completed (a field write failed).
    pub fn note_failed(&self) {
        self.missed.inc();
    }

    pub fn met(&self) -> u64 {
        self.met.get()
    }

    pub fn missed(&self) -> u64 {
        self.missed.get()
    }

    pub fn worst_late_ns(&self) -> u64 {
        self.worst_late_ns.get()
    }
}

/// The full field key of `(writer, step, field)` under `layout`. Both
/// layouts name the same logical field — they differ only in which side
/// of the msk/lsk split carries the writer id.
///
/// The key is written directly in canonical (name-sorted) order into one
/// buffer sized for the longest `u32` values.
pub fn cycle_key(layout: IndexLayout, writer: u32, step: u32, field: u32) -> FieldKey {
    let mut text = String::with_capacity(128);
    text.push_str("class=od,date=20290101,expver=0001,field=");
    match layout {
        IndexLayout::PerProcess => write!(text, "{field},number={writer}"),
        IndexLayout::Shared => write!(text, "w{writer}x{field},number=0"),
    }
    .and_then(|()| write!(text, ",step={step},stream=oper,time=0000"))
    .expect("writing to a String cannot fail");
    FieldKey::from_canonical(text).expect("cycle keys are canonical")
}

/// Layout-independent payload of logical field `(writer, step, field)` —
/// the byte-identical-contents guarantee hangs on this not seeing the
/// layout.
pub fn cycle_payload(cfg: &CycleConfig, writer: u32, step: u32, field: u32) -> Bytes {
    let salt =
        splitmix64(cfg.seed ^ ((writer as u64) << 42) ^ ((step as u64) << 21) ^ field as u64);
    payload(cfg.field_bytes, salt)
}

/// Everything the QoS comparison needs from one cycle run.
#[derive(Clone, Debug)]
pub struct CycleOutcome {
    pub layout: IndexLayout,
    /// Admission policy the cycle ran under (copied from the config so
    /// rows from a layout x admission sweep stay self-describing).
    pub admission: AdmissionPolicy,
    pub end_secs: f64,
    /// Writer submit→complete latencies (experiment-exact, from paired
    /// events; `None` when nothing completed).
    pub writer_lat: Option<LatencyStats>,
    /// Reader batch latencies.
    pub reader_lat: Option<LatencyStats>,
    /// Registry-side p99 of `client.writer.op_ns` (bucket upper bound,
    /// µs; 0 when the class saw no ops).
    pub writer_p99_us: f64,
    /// Registry-side p99 of `client.reader.op_ns`.
    pub reader_p99_us: f64,
    pub deadlines_met: u64,
    pub deadlines_missed: u64,
    pub worst_lateness_ms: f64,
    /// Aged (anti-starvation) grants the admission layer forced to the
    /// normal lane — nonzero only under writer-priority admission with
    /// genuine cross-class contention.
    pub aged_grants: u64,
    /// High-water mark of the pool-wide target-queue backlog.
    pub backlog_peak: u64,
    /// `(t_ns, depth)` samples of the backlog gauge over the cycle.
    pub backlog_series: Vec<(u64, u64)>,
    pub fields_written: u64,
    pub fields_read: u64,
    /// Pool-wide SCM write-buffer occupancy at cycle end (bytes).
    pub scm_used: u64,
    /// Pool-wide NVMe capacity-tier occupancy at cycle end (bytes).
    pub nvme_used: u64,
    /// Pool-wide bytes the aggregation service migrated SCM→NVMe.
    pub aggregated_bytes: u64,
    pub resilience: ResilienceCounters,
}

/// Per-(writer, step) completion state shared with the write callbacks.
struct StepState {
    remaining: Cell<u32>,
    failed: Cell<bool>,
    due_ns: u64,
}

fn fieldio_config(cfg: &CycleConfig) -> FieldIoConfig {
    FieldIoConfig::builder().window(cfg.write_window).build()
}

/// Deterministic reader fan-out: which `(writer, field)` reader `r`
/// fetches as its `i`-th read at step boundary `s`.
fn reader_pick(cfg: &CycleConfig, r: u32, s: u32, i: u32) -> (u32, u32) {
    let h = splitmix64(cfg.seed ^ 0x5EED_CAFE ^ ((r as u64) << 40) ^ ((s as u64) << 20) ^ i as u64);
    (
        (h % cfg.writers as u64) as u32,
        ((h >> 32) % cfg.fields_per_step as u64) as u32,
    )
}

fn run_cycle_inner(
    mut spec: ClusterSpec,
    cfg: &CycleConfig,
    faults: Option<&FaultPlan>,
) -> Result<(Sim, Rc<Deployment>, CycleOutcome), CycleConfigError> {
    cfg.validate()?;
    spec.admission = cfg.admission;
    let sim = Sim::new();
    let d = Deployment::new(&sim, spec);
    if let Some(plan) = faults {
        plan.apply(&d);
    }
    if let Some(agg) = cfg.aggregation {
        spawn_aggregation(&d, agg);
    }
    let procs = cfg.writers + cfg.readers;
    let ppn = procs.div_ceil(spec.client_nodes as u32);
    let interval_ns = cfg.step_interval.as_nanos();

    let ledger = DeadlineLedger::new(sim.obs().metrics());
    let wrec = Recorder::new();
    let rrec = Recorder::new();
    let failed_writes: Rc<Cell<u64>> = Rc::default();
    let failed_reads: Rc<Cell<u64>> = Rc::default();
    let fields_written: Rc<Cell<u64>> = Rc::default();
    let fields_read: Rc<Cell<u64>> = Rc::default();
    let series: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();

    // Backlog sampler: 4 samples per step across the whole cycle (one
    // interval of tail so late steps are still observed), then stops —
    // the kernel must go quiescent.
    {
        let (sim2, d2, series) = (sim.clone(), Rc::clone(&d), Rc::clone(&series));
        let bucket = SimDuration::from_nanos((interval_ns / 4).max(1));
        let samples = (cfg.steps as u64 + 1) * 4;
        sim.spawn(async move {
            for _ in 0..samples {
                sim2.sleep(bucket).await;
                series
                    .borrow_mut()
                    .push((sim2.now().as_nanos(), d2.backlog().depth()));
            }
        });
    }

    // Writer fleet: paced, windowed, deadline-accounted.
    for w in 0..cfg.writers {
        let (sim2, d2) = (sim.clone(), Rc::clone(&d));
        let (ledger, wrec) = (ledger.clone(), wrec.clone());
        let (failed_writes, fields_written) =
            (Rc::clone(&failed_writes), Rc::clone(&fields_written));
        let cfg = *cfg;
        sim.spawn(async move {
            let client =
                SimClient::for_process(&d2, (w / ppn) as u16, w % ppn).with_qos(QosClass::Writer);
            let fs = match FieldStore::connect(client, fieldio_config(&cfg), w + 1).await {
                Ok(fs) => fs,
                Err(_) => {
                    // The whole fleet member is lost: every step missed.
                    for _ in 0..cfg.steps {
                        ledger.note_failed();
                    }
                    failed_writes
                        .set(failed_writes.get() + (cfg.steps * cfg.fields_per_step) as u64);
                    return;
                }
            };
            let mut pw = fs.pipelined_writer(cfg.write_window);
            for s in 0..cfg.steps {
                let step_start = interval_ns * s as u64;
                let now = sim2.now().as_nanos();
                if step_start > now {
                    sim2.sleep(SimDuration::from_nanos(step_start - now)).await;
                }
                let state = Rc::new(StepState {
                    remaining: Cell::new(cfg.fields_per_step),
                    failed: Cell::new(false),
                    due_ns: interval_ns * (s as u64 + 1),
                });
                for f in 0..cfg.fields_per_step {
                    let key = cycle_key(cfg.layout, w, s, f);
                    let data = cycle_payload(&cfg, w, s, f);
                    let iteration = s * cfg.fields_per_step + f;
                    wrec.record(0, w, iteration, EventKind::IoStart, sim2.now(), 0);
                    let (sim3, state, ledger) = (sim2.clone(), Rc::clone(&state), ledger.clone());
                    let (wrec, failed_writes, fields_written) = (
                        wrec.clone(),
                        Rc::clone(&failed_writes),
                        Rc::clone(&fields_written),
                    );
                    let bytes = cfg.field_bytes;
                    let _ = pw
                        .submit_with(&key, data, move |res| {
                            match res {
                                Ok(()) => {
                                    fields_written.set(fields_written.get() + 1);
                                    wrec.record(
                                        0,
                                        w,
                                        iteration,
                                        EventKind::IoEnd,
                                        sim3.now(),
                                        bytes,
                                    );
                                }
                                Err(_) => {
                                    failed_writes.set(failed_writes.get() + 1);
                                    state.failed.set(true);
                                }
                            }
                            let rem = state.remaining.get() - 1;
                            state.remaining.set(rem);
                            if rem == 0 {
                                if state.failed.get() {
                                    ledger.note_failed();
                                } else {
                                    ledger.note(state.due_ns, sim3.now().as_nanos());
                                }
                            }
                        })
                        .await;
                }
            }
            let _ = pw.flush().await;
        });
    }

    // Reader fleet: wakes at each step boundary and fetches fields of
    // the step that just fell due. Fields a late writer has not indexed
    // yet surface as failed reads — the product-generation stall the
    // paper measures.
    for r in 0..cfg.readers {
        let p = cfg.writers + r;
        let (sim2, d2) = (sim.clone(), Rc::clone(&d));
        let rrec = rrec.clone();
        let (failed_reads, fields_read) = (Rc::clone(&failed_reads), Rc::clone(&fields_read));
        let cfg = *cfg;
        sim.spawn(async move {
            let client =
                SimClient::for_process(&d2, (p / ppn) as u16, p % ppn).with_qos(QosClass::Reader);
            let Ok(fs) = FieldStore::connect(client, fieldio_config(&cfg), p + 1).await else {
                failed_reads.set(failed_reads.get() + (cfg.steps * cfg.reads_per_step) as u64);
                return;
            };
            for s in 1..=cfg.steps {
                let at = interval_ns * s as u64;
                let now = sim2.now().as_nanos();
                if at > now {
                    sim2.sleep(SimDuration::from_nanos(at - now)).await;
                }
                let keys: Vec<FieldKey> = (0..cfg.reads_per_step)
                    .map(|i| {
                        let (w, f) = reader_pick(&cfg, r, s, i);
                        cycle_key(cfg.layout, w, s - 1, f)
                    })
                    .collect();
                let base = (s - 1) * cfg.reads_per_step;
                for i in 0..cfg.reads_per_step {
                    rrec.record(1, r, base + i, EventKind::IoStart, sim2.now(), 0);
                }
                let results = fs.read_fields_pipelined(&keys, cfg.read_window).await;
                for (i, res) in results.iter().enumerate() {
                    match res {
                        Ok(data) => {
                            fields_read.set(fields_read.get() + 1);
                            rrec.record(
                                1,
                                r,
                                base + i as u32,
                                EventKind::IoEnd,
                                sim2.now(),
                                data.len() as u64,
                            );
                        }
                        Err(_) => failed_reads.set(failed_reads.get() + 1),
                    }
                }
            }
        });
    }

    let end = sim.run().expect_quiescent();
    d.fold_metrics();
    let snap = sim.obs().metrics().snapshot();
    let class_p99 = |name: &str| {
        snap.histogram(name)
            .and_then(|h| h.quantile(0.99))
            .map(|ns| ns as f64 / 1_000.0)
            .unwrap_or(0.0)
    };
    let rr = d.resilience().report();
    let (mut scm_used, mut nvme_used, mut aggregated_bytes) = (0u64, 0u64, 0u64);
    for t in 0..d.spec.pool_targets() {
        let m = &d.target(t).media;
        scm_used += m.scm_used();
        nvme_used += m.nvme_used();
        aggregated_bytes += m.aggregated_bytes();
    }
    let outcome = CycleOutcome {
        layout: cfg.layout,
        admission: cfg.admission,
        end_secs: end.as_secs_f64(),
        writer_lat: latency_stats(&wrec.take()),
        reader_lat: latency_stats(&rrec.take()),
        writer_p99_us: class_p99("client.writer.op_ns"),
        reader_p99_us: class_p99("client.reader.op_ns"),
        deadlines_met: ledger.met(),
        deadlines_missed: ledger.missed(),
        worst_lateness_ms: ledger.worst_late_ns() as f64 / 1e6,
        aged_grants: d.aged_grants(),
        backlog_peak: d.backlog().peak(),
        backlog_series: series.take(),
        fields_written: fields_written.get(),
        fields_read: fields_read.get(),
        scm_used,
        nvme_used,
        aggregated_bytes,
        resilience: ResilienceCounters {
            retries: rr.retries,
            timeouts: rr.timeouts,
            failovers: rr.failovers,
            gave_up: rr.gave_up,
            faults_injected: rr.faults_injected,
            failed_writes: failed_writes.get(),
            failed_reads: failed_reads.get(),
        },
    };
    Ok((sim, d, outcome))
}

/// Runs one full production cycle and returns its QoS outcome.
/// Seed-deterministic: identical `(spec, cfg, faults)` give identical
/// outcomes. Fails fast on a malformed config instead of panicking
/// mid-cycle.
pub fn run_nwp_cycle(
    spec: ClusterSpec,
    cfg: &CycleConfig,
    faults: Option<&FaultPlan>,
) -> Result<CycleOutcome, CycleConfigError> {
    run_cycle_inner(spec, cfg, faults).map(|(_, _, outcome)| outcome)
}

/// Runs the cycle, then reads every logical field back through a fresh
/// client and returns the contents in `(writer, step, field)` order —
/// the layout-equivalence witness.
pub fn cycle_contents(
    spec: ClusterSpec,
    cfg: &CycleConfig,
) -> Result<Vec<Vec<u8>>, CycleConfigError> {
    let (sim, d, _) = run_cycle_inner(spec, cfg, None)?;
    let out: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
    {
        let out = Rc::clone(&out);
        let cfg = *cfg;
        sim.block_on(async move {
            let client = SimClient::for_process(&d, 0, 0);
            let fs =
                FieldStore::connect(client, fieldio_config(&cfg), cfg.writers + cfg.readers + 1)
                    .await
                    .expect("read-back connect");
            for w in 0..cfg.writers {
                for s in 0..cfg.steps {
                    for f in 0..cfg.fields_per_step {
                        let key = cycle_key(cfg.layout, w, s, f);
                        let data = fs.read_field(&key).await.expect("read back");
                        out.borrow_mut().push(data.to_vec());
                    }
                }
            }
        });
    }
    Ok(Rc::try_unwrap(out).expect("sole owner").into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::tcp(1, 1)
    }

    #[test]
    fn cycle_accounts_every_step_and_field() {
        let cfg = CycleConfig::small(IndexLayout::PerProcess);
        let out = run_nwp_cycle(spec(), &cfg, None).unwrap();
        assert_eq!(
            out.deadlines_met + out.deadlines_missed,
            (cfg.writers * cfg.steps) as u64,
            "every (writer, step) must be adjudicated: {out:?}"
        );
        assert_eq!(
            out.fields_written,
            (cfg.writers * cfg.steps * cfg.fields_per_step) as u64,
            "no faults: every field write lands"
        );
        assert_eq!(out.resilience.failed_writes, 0);
        assert_eq!(
            out.fields_read + out.resilience.failed_reads,
            (cfg.readers * cfg.steps * cfg.reads_per_step) as u64,
            "every read resolves one way or the other"
        );
        assert!(out.writer_lat.is_some());
        assert!(out.backlog_peak > 0, "contention must register");
        assert!(!out.backlog_series.is_empty());
        assert!(out.writer_p99_us > 0.0, "writer class histogram fed");
        assert!(out.reader_p99_us > 0.0, "reader class histogram fed");
    }

    #[test]
    fn zero_shaped_configs_are_rejected_not_panicked() {
        // Each of these used to reach a panic (e.g. `h % writers` in
        // reader_pick) or a stalled pipeline; now they fail fast.
        type Poke = fn(&mut CycleConfig);
        let cases: [(&str, Poke); 5] = [
            ("writers", |c| c.writers = 0),
            ("readers", |c| c.readers = 0),
            ("fields_per_step", |c| c.fields_per_step = 0),
            ("steps", |c| c.steps = 0),
            ("step_interval", |c| c.step_interval = SimDuration::ZERO),
        ];
        for (field, poke) in cases {
            let mut cfg = CycleConfig::small(IndexLayout::Shared);
            poke(&mut cfg);
            let err = run_nwp_cycle(spec(), &cfg, None).unwrap_err();
            assert_eq!(err, CycleConfigError::Zero(field));
            assert!(err.to_string().contains(field), "{err}");
            assert_eq!(cycle_contents(spec(), &cfg).unwrap_err(), err);
        }
    }

    #[test]
    fn writer_priority_cycle_stays_fully_accounted() {
        // QoS barging must not lose a single op: every (writer, step) is
        // adjudicated and every read resolves — readers degrade, they
        // are never starved out of completion.
        let mut cfg = CycleConfig::small(IndexLayout::Shared);
        cfg.admission = AdmissionPolicy::writer_priority();
        let out = run_nwp_cycle(spec(), &cfg, None).unwrap();
        assert_eq!(
            out.deadlines_met + out.deadlines_missed,
            (cfg.writers * cfg.steps) as u64
        );
        assert_eq!(
            out.fields_written,
            (cfg.writers * cfg.steps * cfg.fields_per_step) as u64
        );
        assert_eq!(
            out.fields_read + out.resilience.failed_reads,
            (cfg.readers * cfg.steps * cfg.reads_per_step) as u64
        );
    }

    #[test]
    fn cycle_is_seed_deterministic() {
        let cfg = CycleConfig::small(IndexLayout::Shared);
        let a = run_nwp_cycle(spec(), &cfg, None).unwrap();
        let b = run_nwp_cycle(spec(), &cfg, None).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn fault_campaigns_do_not_panic_the_cycle() {
        // Contention + failure together: seeded random campaigns against
        // the full cycle stack under the operational retry policy. Ops
        // may fail; nothing may panic, and accounting must stay closed.
        for seed in 0..3u64 {
            let mut spec = spec();
            spec.retry = daosim_cluster::RetryPolicy::builder().operational().build();
            let cfg = CycleConfig::small(IndexLayout::Shared);
            let plan = FaultPlan::random_campaign(seed, spec.engines(), SimDuration::from_secs(1));
            let out = run_nwp_cycle(spec, &cfg, Some(&plan)).unwrap();
            assert_eq!(
                out.deadlines_met + out.deadlines_missed,
                (cfg.writers * cfg.steps) as u64
            );
            assert_eq!(
                out.fields_read + out.resilience.failed_reads,
                (cfg.readers * cfg.steps * cfg.reads_per_step) as u64
            );
        }
    }

    #[test]
    fn shared_index_serializes_harder_than_per_process() {
        // The paper's claim, in miniature: one shared forecast KV makes
        // the writer fleet serialize on its index lock, so the cycle
        // cannot finish faster than the split-index layout.
        let shared = run_nwp_cycle(spec(), &CycleConfig::small(IndexLayout::Shared), None).unwrap();
        let split =
            run_nwp_cycle(spec(), &CycleConfig::small(IndexLayout::PerProcess), None).unwrap();
        assert!(
            shared.end_secs >= split.end_secs,
            "shared={} split={}",
            shared.end_secs,
            split.end_secs
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Satellite: shared-index and index-per-process converge to
        /// byte-identical field contents for the same seeded cycle.
        #[test]
        fn layouts_converge_to_identical_contents(
            writers in 1u32..3,
            steps in 1u32..3,
            fields in 1u32..3,
            bytes in 64u64..512,
            seed in 0u64..1000,
        ) {
            let mut cfg = CycleConfig::small(IndexLayout::Shared);
            cfg.writers = writers;
            cfg.readers = 2;
            cfg.steps = steps;
            cfg.fields_per_step = fields;
            cfg.field_bytes = bytes;
            cfg.reads_per_step = 1;
            cfg.seed = seed;
            let shared = cycle_contents(spec(), &cfg).unwrap();
            cfg.layout = IndexLayout::PerProcess;
            let split = cycle_contents(spec(), &cfg).unwrap();
            prop_assert_eq!(shared, split);
        }
    }
}
