//! What the four workloads share: the per-op ledger, the
//! end-of-workload snapshot, and the metrics one repetition reports.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use daosim_cluster::{ClientOp, Deployment};
use daosim_core::metrics::{global_timing_bandwidth, synchronous_bandwidth, EventKind, Recorder};
use daosim_kernel::sync::WaitGroup;
use daosim_kernel::{Sim, SimTime};

use crate::stats::{beyond, nearest_rank};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IorBulk,
    NwpCycle,
    DfsChurn,
    NwpCycleDegraded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IorBulk,
        Workload::NwpCycle,
        Workload::DfsChurn,
        Workload::NwpCycleDegraded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IorBulk => "ior-bulk",
            Workload::NwpCycle => "nwp-cycle",
            Workload::DfsChurn => "dfs-churn",
            Workload::NwpCycleDegraded => "nwp-cycle-degraded",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Operation classes. Writes and reads feed the bandwidth and latency
/// metrics; metadata ops (DFS readdir + unlink) count toward attempted
/// and failed only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Write,
    Read,
    Meta,
}

/// Per-op bookkeeping shared by every task of one repetition.
#[derive(Default)]
pub struct Ledger {
    attempted: [u64; 3],
    succeeded: [u64; 3],
    failed: [u64; 3],
    /// Simulated latency of each completed write / read, ns.
    latency_ns: [Vec<u64>; 2],
    /// `IoStart`/`IoEnd` events behind the bandwidth metrics.
    pub events: [Recorder; 2],
    /// Completion time of the last workload op.
    last_done_ns: u64,
    /// Bytes written and read by the workload.
    bytes: [u64; 2],
    /// How late an open-loop generator issued an op, worst case.
    generator_lag_ns: u64,
    deadlines_met: u64,
    deadlines_missed: u64,
    errors: Vec<String>,
}

pub type SharedLedger = Rc<RefCell<Ledger>>;

impl Ledger {
    pub fn attempt(&mut self, class: Class) {
        self.attempted[class as usize] += 1;
    }

    /// Records a completed op: latency from `due` (submission for closed
    /// loops, the schedule for open loops) to `now`.
    pub fn done(&mut self, class: Class, due: SimTime, now: SimTime, bytes: u64, ok: bool) {
        let c = class as usize;
        if ok {
            self.succeeded[c] += 1;
        } else {
            self.failed[c] += 1;
        }
        if class != Class::Meta {
            self.latency_ns[c].push(now.as_nanos() - due.as_nanos());
            if ok {
                self.bytes[c] += bytes;
            }
        }
        self.last_done_ns = self.last_done_ns.max(now.as_nanos());
    }

    /// Records when an open-loop generator issued an op due at `due`.
    pub fn issued(&mut self, due: SimTime, now: SimTime) {
        self.generator_lag_ns = self
            .generator_lag_ns
            .max(now.as_nanos().saturating_sub(due.as_nanos()));
    }

    pub fn deadline(&mut self, met: bool) {
        if met {
            self.deadlines_met += 1;
        } else {
            self.deadlines_missed += 1;
        }
    }

    /// Records one `IoStart`/`IoEnd` pair for the bandwidth metrics.
    pub fn io(
        &self,
        class: Class,
        process: u32,
        iteration: u32,
        span: (SimTime, SimTime),
        bytes: u64,
    ) {
        let r = &self.events[class as usize];
        r.record(0, process, iteration, EventKind::IoStart, span.0, 0);
        r.record(0, process, iteration, EventKind::IoEnd, span.1, bytes);
    }

    pub fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }
}

/// State captured the instant the last workload task finishes, so that
/// background work running on afterwards (aggregation up to its horizon)
/// does not stretch the makespan or dilute the busy fractions.
#[derive(Default)]
pub struct EndState {
    pub at: Option<SimTime>,
    pub busy_ns: Vec<u64>,
    pub scm_used: u64,
    pub nvme_used: u64,
    pub aggregated: u64,
}

/// Spawns the task that takes the [`EndState`] once `tasks` drains.
pub fn watch_end(d: &Rc<Deployment>, tasks: &WaitGroup) -> Rc<RefCell<EndState>> {
    let end: Rc<RefCell<EndState>> = Rc::default();
    let (d2, tasks, end2) = (Rc::clone(d), tasks.clone(), Rc::clone(&end));
    d.sim.spawn(async move {
        tasks.wait().await;
        let mut e = end2.borrow_mut();
        e.at = Some(d2.sim.now());
        for t in 0..d2.spec.pool_targets() {
            let target = d2.target(t);
            e.busy_ns.push(target.busy_ns());
            e.scm_used += target.media.scm_used();
            e.nvme_used += target.media.nvme_used();
            e.aggregated += target.media.aggregated_bytes();
        }
    });
    end
}

/// Suspends the calling task until simulated time `at`.
pub async fn sleep_until(sim: &Sim, at: SimTime) {
    let now = sim.now();
    if at > now {
        sim.sleep(at - now).await;
    }
}

/// Marks the end of set-up, runs the simulation and times it.
pub fn execute(sim: &Sim, t0: Instant) -> (u64, u64, usize) {
    let setup_ns = t0.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let outcome = sim.run();
    (
        setup_ns,
        t.elapsed().as_nanos() as u64,
        outcome.stranded_tasks,
    )
}

/// One repetition's deterministic results and checks.
pub struct RepOutcome {
    /// Simulated metrics and counters, identical on every run of a seed.
    pub sim: Vec<(String, f64)>,
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub setup_ns: u64,
    pub run_ns: u64,
}

const MIB: f64 = 1024.0 * 1024.0;

/// How the write/read bandwidths are defined for a workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Bandwidth {
    /// Eq. 1: per-iteration synchronous bandwidth, for barrier-
    /// synchronised IOR.
    Synchronous,
    /// Eq. 2: total bytes over total parallel I/O time.
    GlobalTiming,
}

/// Turns a finished repetition into its metrics and checks.
pub fn finish(
    workload: Workload,
    d: &Rc<Deployment>,
    ledger: &SharedLedger,
    end: &Rc<RefCell<EndState>>,
    bandwidth: Bandwidth,
    (setup_ns, run_ns, stranded): (u64, u64, usize),
) -> RepOutcome {
    let l = ledger.borrow();
    let end = end.borrow();
    let name = workload.name();
    let mut errors: Vec<String> = l.errors.iter().map(|e| format!("{name}: {e}")).collect();
    if stranded != 0 {
        errors.push(format!(
            "{name}: {stranded} task(s) stranded when the calendar drained"
        ));
    }
    if end.at.is_none() {
        errors.push(format!("{name}: the workload never finished"));
    }
    for (c, class) in ["write", "read", "meta"].iter().enumerate() {
        let (a, s, f) = (l.attempted[c], l.succeeded[c], l.failed[c]);
        if a != s + f {
            errors.push(format!(
                "{name}: {class} ops attempted {a} != succeeded {s} + failed {f}"
            ));
        }
    }

    let mut sim: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| sim.push((k.to_string(), v));

    let makespan_ns = l.last_done_ns;
    put("sim_makespan_s", makespan_ns as f64 / 1e9);
    for (c, class) in ["write", "read"].iter().enumerate() {
        let events = l.events[c].snapshot();
        let bw = match bandwidth {
            Bandwidth::Synchronous => synchronous_bandwidth(&events),
            Bandwidth::GlobalTiming => global_timing_bandwidth(&events),
        };
        put(&format!("{class}_gib_s"), bw.unwrap_or(0.0));
        let mut lat = l.latency_ns[c].clone();
        lat.sort_unstable();
        for pct in [50, 99] {
            if beyond(lat.len(), pct) < 10 {
                errors.push(format!(
                    "{name}: {} {class} samples leave fewer than 10 beyond p{pct}",
                    lat.len()
                ));
            }
            let v = nearest_rank(&lat, pct).unwrap_or(0);
            put(&format!("{class}_p{pct}_ms"), v as f64 / 1e6);
        }
    }
    let pool = &d.pool;
    let live = pool.stats().array_bytes;
    put(
        "space_amplification",
        pool.used() as f64 / live.max(1) as f64,
    );

    let attempted: u64 = l.attempted.iter().sum();
    let failed: u64 = l.failed.iter().sum();
    let reg = d.sim.obs().metrics();
    let client_ops: u64 = ClientOp::ALL
        .iter()
        .map(|op| reg.counter(&format!("client.{}.ops", op.name())).get())
        .sum();
    let net = d.fabric.net();
    let solver = net.solver_stats();
    let user_bytes = (l.bytes[0] + l.bytes[1]).max(1) as f64;
    put("net.settles", solver.settles as f64);
    put("net.recomputes", solver.recomputes as f64);
    put(
        "net.settles_per_client_op",
        solver.settles as f64 / client_ops.max(1) as f64,
    );
    put(
        "net.bytes_per_user_byte",
        net.bytes_delivered() / user_bytes,
    );

    let span = makespan_ns.max(1) as f64;
    let busy: Vec<f64> = end.busy_ns.iter().map(|&b| b as f64 / span).collect();
    put(
        "media.target_busy_max",
        busy.iter().copied().fold(0.0, f64::max),
    );
    put(
        "media.target_busy_mean",
        busy.iter().sum::<f64>() / busy.len().max(1) as f64,
    );
    put("media.scm_used_mib", end.scm_used as f64 / MIB);
    put("media.nvme_used_mib", end.nvme_used as f64 / MIB);
    put("media.aggregated_mib", end.aggregated as f64 / MIB);

    let ops = pool.op_counts();
    let per_op = |n: u64| n as f64 / attempted.max(1) as f64;
    put("objstore.pool_used_mib", pool.used() as f64 / MIB);
    put("objstore.live_array_mib", live as f64 / MIB);
    put("objstore.kv_updates_per_op", per_op(ops.kv_updates));
    put("objstore.kv_fetches_per_op", per_op(ops.kv_fetches));
    put("objstore.array_updates_per_op", per_op(ops.array_updates));
    put("objstore.array_fetches_per_op", per_op(ops.array_fetches));

    let rr = d.resilience().report();
    put("cluster.retries", rr.retries as f64);
    put("cluster.timeouts", rr.timeouts as f64);
    put("cluster.failovers", rr.failovers as f64);
    put("cluster.gave_up", rr.gave_up as f64);
    put("cluster.aged_grants", d.aged_grants() as f64);
    put("cluster.backlog_peak", d.backlog().peak() as f64);
    put("cluster.client_ops", client_ops as f64);

    put("workload.write_ops", l.attempted[0] as f64);
    put("workload.read_ops", l.attempted[1] as f64);
    put("workload.failed_ops", failed as f64);
    put("workload.failed_op_ratio", per_op(failed));
    let steps = l.deadlines_met + l.deadlines_missed;
    put(
        "workload.deadline_miss_ratio",
        l.deadlines_missed as f64 / steps.max(1) as f64,
    );
    put("workload.generator_lag_ms", l.generator_lag_ns as f64 / 1e6);

    RepOutcome {
        sim,
        errors,
        attempted,
        failed,
        setup_ns,
        run_ns,
    }
}
