//! # daosim-tools — `daosctl`, a snapshot-backed archive tool
//!
//! Command implementations for a small field-archive CLI over the
//! embedded object store and the field I/O layer. Archives persist as
//! pool snapshot files ([`daosim_objstore::snapshot`]); each command
//! loads the archive, operates through the same field I/O functions the
//! benchmarks exercise, and (for mutations) writes the snapshot back.
//!
//! The command layer is a library so it is directly testable; `main.rs`
//! is a thin argv adapter.

use std::fs;
use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;

use daosim_cluster::fuzz::{fuzz_corpus, FuzzReport};
use daosim_cluster::{
    AggregationConfig, ClusterSpec, FaultPlan, NvmeSpec, RetryPolicy, ScmSpec, TierPolicy,
};
use daosim_core::cycle::{run_nwp_cycle, CycleConfig, CycleOutcome, IndexLayout};
use daosim_core::fieldio::{FieldIoConfig, FieldIoMode, FieldStore};
use daosim_core::key::FieldKey;
use daosim_core::metrics::anchored_bandwidth_timeline;
use daosim_core::obs::{chrome_trace_json, json_is_wellformed, validate_spans};
use daosim_core::request::{retrieve, Request};
use daosim_core::trace::{replay, replay_detailed, replay_traced, Pacing, ReplayStats, Trace};
use daosim_ior::{run_ior, Api, FileMode, IorParams};
use daosim_kernel::SchedPolicy;
use daosim_kernel::{AdmissionPolicy, Sim, SimDuration, SimTime};
use daosim_objstore::api::EmbeddedClient;
use daosim_objstore::array::MAX_READ_LEN;
use daosim_objstore::{load_pool, save_pool, ObjectClass, Pool, Uuid};

/// Everything a command can report back.
#[derive(Debug)]
pub enum Outcome {
    Created {
        targets: u32,
    },
    Put {
        key: String,
        bytes: u64,
    },
    Got {
        key: String,
        data: Vec<u8>,
    },
    Listing(Vec<String>),
    Retrieved {
        found: usize,
        missing: usize,
        bytes: u64,
    },
    Wiped {
        removed: usize,
    },
    Info {
        containers: usize,
        used: u64,
        targets: u32,
        arrays: usize,
        kv_entries: usize,
        array_bytes: u64,
    },
    TraceWritten {
        path: String,
        ops: usize,
        gib: f64,
    },
    Simulated(Box<ReplayStats>),
    Traced {
        /// Where the Chrome trace-event JSON landed.
        json_path: String,
        /// Where the metrics CSV landed.
        metrics_path: String,
        spans: usize,
        instants: usize,
        categories: Vec<String>,
    },
    Drilled {
        stats: Box<ReplayStats>,
        /// `(t_ms, write_gib_s, read_gib_s)` per bucket.
        timeline: Vec<(u64, f64, f64)>,
    },
    Fuzzed {
        seeds_run: usize,
        policies_per_seed: usize,
        /// Pre-formatted failure reports (empty on a clean corpus).
        failures: Vec<String>,
    },
    Cycled {
        /// One outcome per (index layout, admission policy) pair, in the
        /// order requested (layout-major). Each outcome records its own
        /// layout and admission policy.
        outcomes: Vec<CycleOutcome>,
        /// Whether a fault campaign rode on the cycle.
        faults: bool,
    },
    Interfaces {
        /// One row per swept transfer size, in the order requested.
        rows: Vec<InterfaceRow>,
    },
    Tiered {
        /// One row per {scm-only, tiered} × {aggregation off, on} grid
        /// point, media-major.
        rows: Vec<TieringRow>,
    },
}

/// One grid point from [`cmd_tiering`].
#[derive(Debug)]
pub struct TieringRow {
    /// `"scm-only"` or `"tiered"`.
    pub media: &'static str,
    /// Whether the background aggregation service ran.
    pub aggregation: bool,
    pub outcome: CycleOutcome,
}

/// One `api=DAOS` vs `api=DFS` comparison point from
/// [`cmd_ior_interfaces`]. Bandwidths are GiB/s; the overhead ratios
/// are `daos_bw / dfs_bw` (>= 1 when the namespace costs anything).
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceRow {
    pub transfer_kib: u64,
    pub daos_write_bw: f64,
    pub dfs_write_bw: f64,
    pub daos_read_bw: f64,
    pub dfs_read_bw: f64,
}

impl InterfaceRow {
    pub fn write_overhead(&self) -> f64 {
        self.daos_write_bw / self.dfs_write_bw
    }
    pub fn read_overhead(&self) -> f64 {
        self.daos_read_bw / self.dfs_read_bw
    }
}

/// Errors from archive commands.
#[derive(Debug)]
pub enum ToolError {
    Io(std::io::Error),
    Snapshot(daosim_objstore::SnapshotError),
    Field(daosim_core::fieldio::FieldIoError),
    BadArgs(String),
}

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolError::Io(e) => write!(f, "i/o error: {e}"),
            ToolError::Snapshot(e) => write!(f, "{e}"),
            ToolError::Field(e) => write!(f, "{e}"),
            ToolError::BadArgs(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ToolError {}

impl From<std::io::Error> for ToolError {
    fn from(e: std::io::Error) -> Self {
        ToolError::Io(e)
    }
}

impl From<daosim_objstore::SnapshotError> for ToolError {
    fn from(e: daosim_objstore::SnapshotError) -> Self {
        ToolError::Snapshot(e)
    }
}

impl From<daosim_core::fieldio::FieldIoError> for ToolError {
    fn from(e: daosim_core::fieldio::FieldIoError) -> Self {
        ToolError::Field(e)
    }
}

pub type ToolResult = Result<Outcome, ToolError>;

fn load(path: &Path) -> Result<Arc<Pool>, ToolError> {
    let mut f = fs::File::open(path)?;
    Ok(load_pool(&mut f)?)
}

fn store(path: &Path, pool: &Pool) -> Result<(), ToolError> {
    // Write-then-rename so a crash never corrupts the archive.
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        save_pool(pool, &mut f)?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Distinct oid namespace per mutation so successive tool invocations
/// never collide: derived from the archive's current usage counter.
fn client_id(pool: &Pool) -> u32 {
    (pool.used() as u32) ^ ((pool.cont_count() as u32) << 16) | 0x8000_0000
}

fn with_fieldstore<T>(
    pool: Arc<Pool>,
    f: impl FnOnce(&FieldStore<EmbeddedClient>) -> Result<T, ToolError> + 'static,
) -> Result<T, ToolError>
where
    T: 'static,
{
    let sim = Sim::new();
    let id = client_id(&pool);
    let result: std::rc::Rc<std::cell::RefCell<Option<Result<T, ToolError>>>> =
        std::rc::Rc::default();
    let r2 = std::rc::Rc::clone(&result);
    sim.block_on(async move {
        let fs = FieldStore::connect(EmbeddedClient::new(pool), FieldIoConfig::default(), id)
            .await
            .map_err(ToolError::from);
        let out = match fs {
            Ok(fs) => f(&fs),
            Err(e) => Err(e),
        };
        *r2.borrow_mut() = Some(out);
    });
    std::rc::Rc::try_unwrap(result)
        .ok()
        .expect("executor done")
        .into_inner()
        .expect("command ran")
}

/// `daosctl init <archive> [targets]`
pub fn cmd_init(path: &Path, targets: u32) -> ToolResult {
    if path.exists() {
        return Err(ToolError::BadArgs(format!(
            "{} already exists",
            path.display()
        )));
    }
    let pool = Pool::new(
        Uuid::from_name(path.to_string_lossy().as_bytes()),
        targets,
        daosim_objstore::store::DEFAULT_POOL_CAPACITY,
    );
    store(path, &pool)?;
    Ok(Outcome::Created { targets })
}

/// `daosctl put <archive> <key> <data...>`
pub fn cmd_put(path: &Path, key_text: &str, data: Vec<u8>) -> ToolResult {
    let key = FieldKey::parse(key_text).map_err(ToolError::BadArgs)?;
    let pool = load(path)?;
    let bytes = data.len() as u64;
    let kc = key.canonical().to_owned();
    {
        let key = key.clone();
        with_fieldstore(Arc::clone(&pool), move |fs| {
            block_here(fs.write_field(&key, Bytes::from(data)))?;
            Ok(())
        })?;
    }
    store(path, &pool)?;
    Ok(Outcome::Put { key: kc, bytes })
}

/// `daosctl get <archive> <key>`
pub fn cmd_get(path: &Path, key_text: &str) -> ToolResult {
    let key = FieldKey::parse(key_text).map_err(ToolError::BadArgs)?;
    let pool = load(path)?;
    let kc = key.canonical().to_owned();
    let data = with_fieldstore(
        pool,
        move |fs| Ok(block_here(fs.read_field(&key))?.to_vec()),
    )?;
    Ok(Outcome::Got { key: kc, data })
}

/// `daosctl list <archive> <forecast-key>`
pub fn cmd_list(path: &Path, forecast_text: &str) -> ToolResult {
    let key = FieldKey::parse(forecast_text).map_err(ToolError::BadArgs)?;
    let pool = load(path)?;
    let listing = with_fieldstore(pool, move |fs| Ok(block_here(fs.list_fields(&key))?))?;
    Ok(Outcome::Listing(listing))
}

/// `daosctl retrieve <archive> <request>`
pub fn cmd_retrieve(path: &Path, request_text: &str) -> ToolResult {
    let req = Request::parse(request_text).map_err(ToolError::BadArgs)?;
    let pool = load(path)?;
    let (found, missing, bytes) = with_fieldstore(pool, move |fs| {
        let r = block_here(retrieve(fs, &req))?;
        Ok((r.fields.len(), r.missing.len(), r.total_bytes()))
    })?;
    Ok(Outcome::Retrieved {
        found,
        missing,
        bytes,
    })
}

/// `daosctl wipe <archive> <forecast-key>`
pub fn cmd_wipe(path: &Path, forecast_text: &str) -> ToolResult {
    let key = FieldKey::parse(forecast_text).map_err(ToolError::BadArgs)?;
    let pool = load(path)?;
    let removed = {
        let pool = Arc::clone(&pool);
        with_fieldstore(pool, move |fs| Ok(block_here(fs.wipe_forecast(&key))?))?
    };
    store(path, &pool)?;
    Ok(Outcome::Wiped { removed })
}

/// `daosctl synth-trace <out.csv> [procs steps fields_per_step mib interval_ms]`
#[allow(clippy::too_many_arguments)]
pub fn cmd_synth_trace(
    path: &Path,
    procs: u32,
    steps: u32,
    fields_per_step: u32,
    field_mib: u64,
    interval_ms: u64,
) -> ToolResult {
    if procs == 0 || steps == 0 || fields_per_step == 0 || field_mib == 0 {
        return Err(ToolError::BadArgs(
            "all trace parameters must be positive".into(),
        ));
    }
    let trace = Trace::synthesize_operational(
        procs,
        steps,
        fields_per_step,
        field_mib * 1024 * 1024,
        SimDuration::from_millis(interval_ms),
    );
    fs::write(path, trace.to_csv())?;
    Ok(Outcome::TraceWritten {
        path: path.display().to_string(),
        ops: trace.len(),
        gib: trace.total_write_bytes() as f64 / (1u64 << 30) as f64,
    })
}

/// Builds the replay field I/O config from the CLI's `--mode` and
/// `--window` arguments.
fn fieldio_for(mode: &str, window: u32) -> Result<FieldIoConfig, ToolError> {
    let mode = match mode {
        "full" => FieldIoMode::Full,
        "no-containers" => FieldIoMode::NoContainers,
        "no-index" => FieldIoMode::NoIndex,
        other => return Err(ToolError::BadArgs(format!("unknown mode {other:?}"))),
    };
    Ok(FieldIoConfig::builder().mode(mode).window(window).build())
}

/// `daosctl simulate <trace.csv> [--servers N] [--clients N] [--paced]
/// [--mode M] [--window W]`
pub fn cmd_simulate(
    trace_path: &Path,
    servers: u16,
    clients: u16,
    paced: bool,
    mode: &str,
    window: u32,
) -> ToolResult {
    let text = fs::read_to_string(trace_path)?;
    let trace = Trace::from_csv(&text).map_err(ToolError::BadArgs)?;
    if trace.is_empty() {
        return Err(ToolError::BadArgs("trace holds no operations".into()));
    }
    let stats = replay(
        ClusterSpec::tcp(servers.max(1), clients.max(1)),
        fieldio_for(mode, window)?,
        &trace,
        if paced { Pacing::Paced } else { Pacing::AsFast },
    );
    Ok(Outcome::Simulated(Box::new(stats)))
}

/// `daosctl trace <trace.csv> [--servers N] [--clients N] [--paced]
/// [--mode M] [--window W] [--out trace.json] [--metrics metrics.csv]`
///
/// Replays the schedule with span tracing enabled and writes a Chrome
/// trace-event JSON (loadable in Perfetto or `chrome://tracing`) plus a
/// metrics CSV. The span stream is validated (balanced ends, parents
/// closing after children) before anything is written; replays are
/// deterministic, so re-running the command reproduces both artifacts
/// byte for byte.
#[allow(clippy::too_many_arguments)]
pub fn cmd_trace(
    trace_path: &Path,
    servers: u16,
    clients: u16,
    paced: bool,
    mode: &str,
    window: u32,
    json_out: &Path,
    metrics_out: &Path,
) -> ToolResult {
    let text = fs::read_to_string(trace_path)?;
    let trace = Trace::from_csv(&text).map_err(ToolError::BadArgs)?;
    if trace.is_empty() {
        return Err(ToolError::BadArgs("trace holds no operations".into()));
    }
    let traced = replay_traced(
        ClusterSpec::tcp(servers.max(1), clients.max(1)),
        fieldio_for(mode, window)?,
        &trace,
        if paced { Pacing::Paced } else { Pacing::AsFast },
        None,
    );
    let summary = validate_spans(&traced.spans)
        .map_err(|e| ToolError::BadArgs(format!("recorded trace is malformed: {e}")))?;
    if summary.unclosed > 0 {
        return Err(ToolError::BadArgs(format!(
            "recorded trace left {} span(s) unclosed",
            summary.unclosed
        )));
    }
    let json = chrome_trace_json(&traced.spans);
    debug_assert!(json_is_wellformed(&json));
    fs::write(json_out, &json)?;
    fs::write(metrics_out, traced.metrics.to_csv())?;
    Ok(Outcome::Traced {
        json_path: json_out.display().to_string(),
        metrics_path: metrics_out.display().to_string(),
        spans: summary.spans,
        instants: summary.instants,
        categories: summary.categories,
    })
}

/// `daosctl failure-drill <trace.csv> [--servers N] [--clients N]
/// [--kill-ms N] [--restart-ms N]`
///
/// Replays the trace *paced* with replicated fields (RP2 arrays and
/// index) and the operational retry policy while engine 0 is killed,
/// rebuilt, and later restarted. Reports the availability timeline and
/// the resilience counters; failed operations are counted, not fatal.
pub fn cmd_failure_drill(
    trace_path: &Path,
    servers: u16,
    clients: u16,
    kill_ms: u64,
    restart_ms: u64,
) -> ToolResult {
    let text = fs::read_to_string(trace_path)?;
    let trace = Trace::from_csv(&text).map_err(ToolError::BadArgs)?;
    if trace.is_empty() {
        return Err(ToolError::BadArgs("trace holds no operations".into()));
    }
    if restart_ms <= kill_ms {
        return Err(ToolError::BadArgs(
            "--restart-ms must come after --kill-ms".into(),
        ));
    }
    let mut spec = ClusterSpec::tcp(servers.max(1), clients.max(1));
    spec.retry = RetryPolicy::builder().operational().build();
    let fieldio = FieldIoConfig {
        array_class: ObjectClass::RP2,
        kv_class: ObjectClass::RP2,
        ..Default::default()
    };
    let plan = FaultPlan::new()
        .kill_and_rebuild(SimDuration::from_millis(kill_ms), 0)
        .restart(SimDuration::from_millis(restart_ms), 0);
    let out = replay_detailed(spec, fieldio, &trace, Pacing::Paced, Some(&plan));
    let bucket = SimDuration::from_millis(50);
    let end = SimTime::from_nanos((out.stats.end_secs * 1e9) as u64);
    let writes = anchored_bandwidth_timeline(&out.write_events, bucket, end);
    let reads = anchored_bandwidth_timeline(&out.read_events, bucket, end);
    let timeline = writes
        .iter()
        .zip(&reads)
        .map(|(w, r)| (w.t_ns / 1_000_000, w.bw_gib, r.bw_gib))
        .collect();
    Ok(Outcome::Drilled {
        stats: Box::new(out.stats),
        timeline,
    })
}

/// `daosctl fuzz --seeds N [--start S] [--policy all|lifo|random|wake-delay|fifo]`
///
/// Differential schedule-perturbation fuzzing (see
/// [`daosim_cluster::fuzz`]): every seed in `start..start + seeds` is run
/// under FIFO (the reference) plus the selected perturbed policies, and
/// any divergence in per-event outcomes, final pool state, byte
/// conservation or quiescence is reported with a shrunk repro. Seeds are
/// fanned out over `jobs` threads; the report order is deterministic, so
/// reruns of the same corpus print byte-identical output.
pub fn cmd_fuzz(seeds: u64, start: u64, policy: &str, jobs: usize) -> ToolResult {
    fn sel_all(_: &SchedPolicy) -> bool {
        true
    }
    fn sel_none(_: &SchedPolicy) -> bool {
        false
    }
    fn sel_lifo(p: &SchedPolicy) -> bool {
        matches!(p, SchedPolicy::Lifo)
    }
    fn sel_random(p: &SchedPolicy) -> bool {
        matches!(p, SchedPolicy::Random { .. })
    }
    fn sel_wake_delay(p: &SchedPolicy) -> bool {
        matches!(p, SchedPolicy::WakeDelay { .. })
    }
    let select: fn(&SchedPolicy) -> bool = match policy {
        "all" => sel_all,
        "fifo" => sel_none,
        "lifo" => sel_lifo,
        "random" => sel_random,
        "wake-delay" => sel_wake_delay,
        other => {
            return Err(ToolError::BadArgs(format!(
                "unknown --policy {other} (expected all|fifo|lifo|random|wake-delay)"
            )))
        }
    };
    if seeds == 0 {
        return Err(ToolError::BadArgs("--seeds must be positive".into()));
    }

    let corpus: Vec<u64> = (start..start.saturating_add(seeds)).collect();
    let jobs = jobs
        .max(1)
        .min(corpus.len())
        .min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let per_chunk = corpus.len().div_ceil(jobs);
    let reports: Vec<FuzzReport> = std::thread::scope(|s| {
        let handles: Vec<_> = corpus
            .chunks(per_chunk)
            .map(|chunk| s.spawn(move || fuzz_corpus(chunk.iter().copied(), select)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fuzz worker panicked"))
            .collect()
    });

    let mut seeds_run = 0;
    let mut policies_per_seed = 0;
    let mut failures = Vec::new();
    for r in reports {
        seeds_run += r.seeds_run;
        policies_per_seed = policies_per_seed.max(r.policies_per_seed);
        for f in &r.failures {
            failures.push(format!(
                "seed {} diverged under {:?} (admission {}): {}\n  minimized to {} op(s): {:?}\n  repro: {}",
                f.seed,
                f.policy,
                f.admission.name(),
                f.detail,
                f.minimized.ops.len(),
                f.minimized.ops,
                f.repro()
            ));
        }
    }
    Ok(Outcome::Fuzzed {
        seeds_run,
        policies_per_seed,
        failures,
    })
}

/// `daosctl nwp-cycle [--writers N] [--readers N] [--steps N] [--fields N]
/// [--kib N] [--interval-ms N] [--layout shared|per-process|both]
/// [--admission fifo|writer-priority|both] [--seed S] [--faults]`
///
/// Runs the operational contention cycle ([`daosim_core::cycle`]) on a
/// simulated `tcp(1, 2)` cluster: deadline-carrying writers stream
/// fields each step while a reader fleet fetches the previous step's
/// fields from the same pool. With `--layout both` the shared-index and
/// index-per-process runs share every other parameter, so the printed
/// rows are directly comparable; `--admission both` likewise crosses
/// FIFO against writer-priority admission at the target queues.
/// `--faults` seeds a random engine-fault campaign over the first half
/// of the cycle (with the operational retry policy, so the cycle
/// degrades instead of failing).
#[allow(clippy::too_many_arguments)]
pub fn cmd_nwp_cycle(
    writers: u32,
    readers: u32,
    steps: u32,
    fields: u32,
    kib: u64,
    interval_ms: u64,
    layout: &str,
    admission: &str,
    seed: u64,
    faults: bool,
) -> ToolResult {
    let layouts: Vec<IndexLayout> = match layout {
        "shared" => vec![IndexLayout::Shared],
        "per-process" => vec![IndexLayout::PerProcess],
        "both" => IndexLayout::all().to_vec(),
        other => {
            return Err(ToolError::BadArgs(format!(
                "unknown --layout {other} (expected shared|per-process|both)"
            )))
        }
    };
    let admissions: Vec<AdmissionPolicy> = match admission {
        "both" => vec![AdmissionPolicy::Fifo, AdmissionPolicy::writer_priority()],
        one => match AdmissionPolicy::parse(one) {
            Some(p) => vec![p],
            None => {
                return Err(ToolError::BadArgs(format!(
                    "unknown --admission {one} (expected fifo|writer-priority|both)"
                )))
            }
        },
    };
    let mut outcomes = Vec::with_capacity(layouts.len() * admissions.len());
    for l in layouts {
        for &adm in &admissions {
            // The builder's build() validates the shape: any zero flag
            // comes back as a typed CycleConfigError instead of a panic
            // deep inside the cycle.
            let cfg = CycleConfig::builder(l)
                .writers(writers)
                .readers(readers)
                .steps(steps)
                .fields_per_step(fields)
                .field_bytes(kib * 1024)
                .step_interval(SimDuration::from_millis(interval_ms))
                .seed(seed)
                .admission(adm)
                .build()
                .map_err(|e| ToolError::BadArgs(e.to_string()))?;
            let mut spec = ClusterSpec::tcp(1, 2);
            let plan = faults.then(|| {
                spec.retry = RetryPolicy::builder().operational().build();
                let horizon =
                    SimDuration::from_nanos(cfg.step_interval.as_nanos() * cfg.steps as u64 / 2);
                FaultPlan::random_campaign(seed, spec.engines(), horizon)
            });
            let outcome = run_nwp_cycle(spec, &cfg, plan.as_ref())
                .map_err(|e| ToolError::BadArgs(e.to_string()))?;
            outcomes.push(outcome);
        }
    }
    Ok(Outcome::Cycled { outcomes, faults })
}

/// `daosctl tiering [--writers N] [--readers N] [--steps N] [--fields N]
/// [--kib N] [--interval-ms N] [--scm-mib N] [--threshold-kib N] [--seed S]`
///
/// Runs the shared-index NWP cycle over the {scm-only, tiered} ×
/// {aggregation off, on} media grid on a simulated `tcp(1, 2)` cluster.
/// Tiered points shrink the per-socket SCM write buffer to `--scm-mib`
/// and add the `NvmeSpec::p4510_gen1()` capacity tier (30%/10%
/// watermarks, placement threshold `--threshold-kib`), so spill and
/// background aggregation actually engage; scm-only points keep the
/// paper's NEXTGenIO media. Purely sim-driven and seed-fixed: reruns
/// print byte-identical output.
#[allow(clippy::too_many_arguments)]
pub fn cmd_tiering(
    writers: u32,
    readers: u32,
    steps: u32,
    fields: u32,
    kib: u64,
    interval_ms: u64,
    scm_mib: u64,
    threshold_kib: u64,
    seed: u64,
) -> ToolResult {
    if scm_mib == 0 {
        return Err(ToolError::BadArgs("--scm-mib must be positive".into()));
    }
    if threshold_kib == 0 {
        return Err(ToolError::BadArgs(
            "--threshold-kib must be positive".into(),
        ));
    }
    let base = CycleConfig::builder(IndexLayout::Shared)
        .writers(writers)
        .readers(readers)
        .steps(steps)
        .fields_per_step(fields)
        .field_bytes(kib * 1024)
        .step_interval(SimDuration::from_millis(interval_ms))
        .seed(seed)
        .admission(AdmissionPolicy::Fifo)
        .build()
        .map_err(|e| ToolError::BadArgs(e.to_string()))?;
    // The cycle is backlogged under contention; the aggregation horizon
    // runs 4x the nominal span so the service outlives the congested
    // tail where most writes are actually serviced.
    let horizon =
        SimDuration::from_nanos(base.step_interval.as_nanos() * (base.steps as u64 + 1) * 4);
    let mut rows = Vec::with_capacity(4);
    for tiered in [false, true] {
        for aggregation in [false, true] {
            let mut spec = ClusterSpec::tcp(1, 2);
            if tiered {
                spec.calibration.scm = ScmSpec {
                    capacity: scm_mib * 1024 * 1024,
                    ..spec.calibration.scm
                };
                spec.tiering = TierPolicy {
                    nvme: Some(NvmeSpec::p4510_gen1()),
                    scm_threshold: threshold_kib * 1024,
                    high_watermark: 0.30,
                    low_watermark: 0.10,
                };
            }
            let cfg = CycleConfig {
                aggregation: aggregation.then(|| AggregationConfig::operational(horizon, seed)),
                ..base
            };
            let outcome =
                run_nwp_cycle(spec, &cfg, None).map_err(|e| ToolError::BadArgs(e.to_string()))?;
            rows.push(TieringRow {
                media: if tiered { "tiered" } else { "scm-only" },
                aggregation,
                outcome,
            });
        }
    }
    Ok(Outcome::Tiered { rows })
}

/// `daosctl ior-interfaces [--segments N] [--ppn N] [--transfer-kib A,B,...]`
///
/// Runs the IOR interface comparison on a simulated `tcp(1, 2)` cluster:
/// each swept transfer size is written and read twice — once against raw
/// DAOS Arrays (`api=DAOS`), once through the `daosim-dfs` POSIX
/// namespace (`api=DFS`) — with every other parameter shared, so the
/// `daos_bw / dfs_bw` ratio isolates the namespace overhead (dirent
/// create, path walk, size update per file). Files use the SX class so
/// both runs share one data-path shape. Purely sim-driven: reruns print
/// byte-identical output.
pub fn cmd_ior_interfaces(transfers_kib: &[u64], segments: u32, ppn: u32) -> ToolResult {
    if transfers_kib.is_empty() {
        return Err(ToolError::BadArgs("--transfer-kib list is empty".into()));
    }
    if let Some(zero) = transfers_kib.iter().find(|&&t| t == 0) {
        return Err(ToolError::BadArgs(format!(
            "--transfer-kib {zero} must be positive"
        )));
    }
    if segments == 0 {
        return Err(ToolError::BadArgs("--segments must be positive".into()));
    }
    if ppn == 0 {
        return Err(ToolError::BadArgs("--ppn must be positive".into()));
    }
    // Each process reads its file back with one `array_read`, which
    // rejects more than `MAX_READ_LEN` bytes.
    let per_proc = |t: u64| t.checked_mul(1024 * segments as u64);
    if let Some(t) = transfers_kib
        .iter()
        .find(|&&t| per_proc(t).is_none_or(|b| b > MAX_READ_LEN))
    {
        return Err(ToolError::BadArgs(format!(
            "--transfer-kib {t} x --segments {segments} is more than 1 GiB per process"
        )));
    }
    let spec = ClusterSpec::tcp(1, 2);
    let point = |transfer_kib: u64, api: Api| IorParams {
        transfer_bytes: transfer_kib * 1024,
        segments,
        procs_per_node: ppn,
        class: ObjectClass::SX,
        iterations: 1,
        file_mode: FileMode::FilePerProcess,
        inflight: 1,
        api,
    };
    let rows = transfers_kib
        .iter()
        .map(|&t| {
            let daos = run_ior(spec, point(t, Api::Daos));
            let dfs = run_ior(spec, point(t, Api::Dfs));
            InterfaceRow {
                transfer_kib: t,
                daos_write_bw: daos.write_bw(),
                dfs_write_bw: dfs.write_bw(),
                daos_read_bw: daos.read_bw(),
                dfs_read_bw: dfs.read_bw(),
            }
        })
        .collect();
    Ok(Outcome::Interfaces { rows })
}

/// `daosctl info <archive>`
pub fn cmd_info(path: &Path) -> ToolResult {
    let pool = load(path)?;
    let stats = pool.stats();
    Ok(Outcome::Info {
        containers: pool.cont_count(),
        used: pool.used(),
        targets: pool.targets(),
        arrays: stats.array_objects,
        kv_entries: stats.kv_entries,
        array_bytes: stats.array_bytes,
    })
}

/// The embedded backend never suspends; poll the future to completion in
/// place (panics if it ever pends, which would be a bug).
fn block_here<F: std::future::Future>(fut: F) -> F::Output {
    let waker = std::task::Waker::noop();
    let mut cx = std::task::Context::from_waker(waker);
    let mut fut = std::pin::pin!(fut);
    match fut.as_mut().poll(&mut cx) {
        std::task::Poll::Ready(v) => v,
        std::task::Poll::Pending => unreachable!("embedded backend suspended"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempArchive(std::path::PathBuf);
    impl TempArchive {
        fn new(name: &str) -> Self {
            let p =
                std::env::temp_dir().join(format!("daosctl-test-{name}-{}", std::process::id()));
            let _ = fs::remove_file(&p);
            TempArchive(p)
        }
    }
    impl Drop for TempArchive {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
        }
    }

    const KEY: &str = "class=od,date=20290101,expver=0001,param=t,step=24";

    #[test]
    fn full_cli_lifecycle() {
        let a = TempArchive::new("lifecycle");
        assert!(matches!(
            cmd_init(&a.0, 24).unwrap(),
            Outcome::Created { targets: 24 }
        ));

        let put = cmd_put(&a.0, KEY, b"grib-payload".to_vec()).unwrap();
        match put {
            Outcome::Put { bytes, .. } => assert_eq!(bytes, 12),
            other => panic!("{other:?}"),
        }

        match cmd_get(&a.0, KEY).unwrap() {
            Outcome::Got { data, .. } => assert_eq!(data, b"grib-payload"),
            other => panic!("{other:?}"),
        }

        match cmd_list(&a.0, "class=od,date=20290101,expver=0001").unwrap() {
            Outcome::Listing(l) => assert_eq!(l, vec!["param=t,step=24"]),
            other => panic!("{other:?}"),
        }

        match cmd_info(&a.0).unwrap() {
            Outcome::Info {
                containers,
                used,
                targets,
                arrays,
                kv_entries,
                array_bytes,
            } => {
                assert_eq!(containers, 3);
                assert!(used > 0);
                assert_eq!(targets, 24);
                assert_eq!(arrays, 1);
                assert!(kv_entries >= 2, "main + forecast index entries");
                assert_eq!(array_bytes, 12);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn puts_across_invocations_do_not_collide() {
        let a = TempArchive::new("multi-put");
        cmd_init(&a.0, 8).unwrap();
        for step in 0..5 {
            let key = format!("class=od,date=20290101,param=t,step={step}");
            cmd_put(&a.0, &key, format!("v{step}").into_bytes()).unwrap();
        }
        for step in 0..5 {
            let key = format!("class=od,date=20290101,param=t,step={step}");
            match cmd_get(&a.0, &key).unwrap() {
                Outcome::Got { data, .. } => assert_eq!(data, format!("v{step}").into_bytes()),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn rewrite_returns_latest_across_invocations() {
        let a = TempArchive::new("rewrite");
        cmd_init(&a.0, 8).unwrap();
        cmd_put(&a.0, KEY, b"one".to_vec()).unwrap();
        cmd_put(&a.0, KEY, b"two".to_vec()).unwrap();
        match cmd_get(&a.0, KEY).unwrap() {
            Outcome::Got { data, .. } => assert_eq!(data, b"two"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn retrieve_reports_partial_hits() {
        let a = TempArchive::new("retrieve");
        cmd_init(&a.0, 8).unwrap();
        cmd_put(&a.0, "class=od,date=20290101,param=t,step=0", b"x".to_vec()).unwrap();
        match cmd_retrieve(&a.0, "class=od,date=20290101,param=t,step=0/24").unwrap() {
            Outcome::Retrieved {
                found,
                missing,
                bytes,
            } => {
                assert_eq!((found, missing, bytes), (1, 1, 1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wipe_clears_a_forecast_from_the_archive() {
        let a = TempArchive::new("wipe");
        cmd_init(&a.0, 8).unwrap();
        cmd_put(&a.0, KEY, b"x".to_vec()).unwrap();
        match cmd_wipe(&a.0, "class=od,date=20290101,expver=0001").unwrap() {
            Outcome::Wiped { removed } => assert_eq!(removed, 1),
            other => panic!("{other:?}"),
        }
        // Wipe persisted: a fresh invocation no longer finds the field.
        assert!(matches!(cmd_get(&a.0, KEY), Err(ToolError::Field(_))));
        match cmd_list(&a.0, "class=od,date=20290101,expver=0001").unwrap() {
            Outcome::Listing(l) => assert!(l.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn synth_trace_and_simulate_roundtrip() {
        let a = TempArchive::new("trace");
        match cmd_synth_trace(&a.0, 4, 2, 3, 1, 40).unwrap() {
            Outcome::TraceWritten { ops, gib, .. } => {
                assert_eq!(ops, 4 * 2 * 3 * 2);
                assert!(gib > 0.0);
            }
            other => panic!("{other:?}"),
        }
        match cmd_simulate(&a.0, 1, 1, true, "no-containers", 1).unwrap() {
            Outcome::Simulated(stats) => {
                assert_eq!(stats.writes.io_count, 24);
                assert_eq!(stats.reads.io_count, 24);
                assert!(stats.end_secs > 0.0);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            cmd_simulate(&a.0, 1, 1, false, "bogus", 1),
            Err(ToolError::BadArgs(_))
        ));
    }

    #[test]
    fn simulate_with_window_pipelines_deterministically() {
        let a = TempArchive::new("window");
        cmd_synth_trace(&a.0, 4, 2, 3, 1, 40).unwrap();
        let run = |window| match cmd_simulate(&a.0, 1, 1, false, "full", window).unwrap() {
            Outcome::Simulated(stats) => *stats,
            other => panic!("{other:?}"),
        };
        let sequential = run(1);
        let pipelined = run(8);
        assert_eq!(pipelined.writes.io_count, sequential.writes.io_count);
        assert_eq!(pipelined.reads.io_count, sequential.reads.io_count);
        assert!(pipelined.end_secs <= sequential.end_secs);
        let again = run(8);
        assert_eq!(pipelined.end_secs.to_bits(), again.end_secs.to_bits());
    }

    #[test]
    fn trace_command_writes_validated_byte_identical_artifacts() {
        let a = TempArchive::new("chrome");
        cmd_synth_trace(&a.0, 4, 1, 2, 1, 40).unwrap();
        let json1 = TempArchive::new("chrome-json1");
        let json2 = TempArchive::new("chrome-json2");
        let met1 = TempArchive::new("chrome-met1");
        let met2 = TempArchive::new("chrome-met2");
        let run = |json: &Path, met: &Path| {
            match cmd_trace(&a.0, 1, 1, false, "no-containers", 1, json, met).unwrap() {
                Outcome::Traced {
                    spans, categories, ..
                } => {
                    assert!(spans > 0);
                    // The acceptance bar: at least 4 distinct categories.
                    assert!(categories.len() >= 4, "categories: {categories:?}");
                }
                other => panic!("{other:?}"),
            }
        };
        run(&json1.0, &met1.0);
        run(&json2.0, &met2.0);
        let j1 = fs::read(&json1.0).unwrap();
        assert_eq!(
            j1,
            fs::read(&json2.0).unwrap(),
            "trace JSON must be byte-identical"
        );
        assert_eq!(
            fs::read(&met1.0).unwrap(),
            fs::read(&met2.0).unwrap(),
            "metrics CSV must be byte-identical"
        );
        let text = String::from_utf8(j1).unwrap();
        assert!(json_is_wellformed(&text));
        assert!(text.contains("\"ph\":\"X\""));
    }

    #[test]
    fn failure_drill_rides_out_a_kill_and_rebuild() {
        let a = TempArchive::new("drill");
        cmd_synth_trace(&a.0, 4, 3, 2, 1, 60).unwrap();
        match cmd_failure_drill(&a.0, 1, 2, 59, 170).unwrap() {
            Outcome::Drilled { stats, timeline } => {
                let r = stats.resilience;
                assert_eq!(r.faults_injected, 2, "kill+rebuild and restart");
                assert_eq!(
                    (r.failed_writes, r.failed_reads),
                    (0, 0),
                    "replicated fields must survive the drill: {r:?}"
                );
                assert!(r.retries > 0, "the kill must force retries: {r:?}");
                assert!(!timeline.is_empty());
                assert_eq!(stats.writes.io_count, 4 * 3 * 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            cmd_failure_drill(&a.0, 1, 2, 170, 59),
            Err(ToolError::BadArgs(_))
        ));
    }

    #[test]
    fn synth_trace_rejects_zero_parameters() {
        let a = TempArchive::new("trace-zero");
        assert!(matches!(
            cmd_synth_trace(&a.0, 0, 2, 3, 1, 40),
            Err(ToolError::BadArgs(_))
        ));
    }

    #[test]
    fn init_refuses_to_clobber() {
        let a = TempArchive::new("clobber");
        cmd_init(&a.0, 8).unwrap();
        assert!(matches!(cmd_init(&a.0, 8), Err(ToolError::BadArgs(_))));
    }

    #[test]
    fn get_missing_field_is_a_field_error() {
        let a = TempArchive::new("missing");
        cmd_init(&a.0, 8).unwrap();
        assert!(matches!(cmd_get(&a.0, KEY), Err(ToolError::Field(_))));
    }

    #[test]
    fn bad_key_is_bad_args() {
        let a = TempArchive::new("badkey");
        cmd_init(&a.0, 8).unwrap();
        assert!(matches!(
            cmd_put(&a.0, "no-equals", vec![]),
            Err(ToolError::BadArgs(_))
        ));
    }

    #[test]
    fn nwp_cycle_runs_both_layouts_with_closed_accounting() {
        let out = cmd_nwp_cycle(2, 4, 2, 2, 64, 40, "both", "fifo", 7, false).unwrap();
        match out {
            Outcome::Cycled { outcomes, faults } => {
                assert!(!faults);
                assert_eq!(outcomes.len(), 2);
                for o in &outcomes {
                    assert_eq!(o.admission, AdmissionPolicy::Fifo);
                    assert_eq!(o.deadlines_met + o.deadlines_missed, 2 * 2);
                    assert_eq!(o.fields_written, 2 * 2 * 2);
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nwp_cycle_crosses_layouts_with_admission_policies() {
        let out = cmd_nwp_cycle(2, 4, 2, 2, 64, 40, "both", "both", 7, false).unwrap();
        match out {
            Outcome::Cycled { outcomes, .. } => {
                // Layout-major, admission-minor ordering.
                let want = [
                    (IndexLayout::Shared, AdmissionPolicy::Fifo),
                    (IndexLayout::Shared, AdmissionPolicy::writer_priority()),
                    (IndexLayout::PerProcess, AdmissionPolicy::Fifo),
                    (IndexLayout::PerProcess, AdmissionPolicy::writer_priority()),
                ];
                assert_eq!(outcomes.len(), want.len());
                for (o, (layout, adm)) in outcomes.iter().zip(want) {
                    assert_eq!(o.layout, layout);
                    assert_eq!(o.admission, adm);
                    assert_eq!(o.deadlines_met + o.deadlines_missed, 2 * 2);
                    assert_eq!(o.fields_written, 2 * 2 * 2);
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nwp_cycle_rejects_bad_layout_bad_admission_and_zero_shapes() {
        assert!(matches!(
            cmd_nwp_cycle(2, 4, 2, 2, 64, 40, "triple", "fifo", 7, false),
            Err(ToolError::BadArgs(_))
        ));
        assert!(matches!(
            cmd_nwp_cycle(2, 4, 2, 2, 64, 40, "both", "lifo", 7, false),
            Err(ToolError::BadArgs(_))
        ));
        // Every numeric shape flag is validated, not just the fleet.
        for zeroed in [
            cmd_nwp_cycle(0, 4, 2, 2, 64, 40, "both", "fifo", 7, false),
            cmd_nwp_cycle(2, 0, 2, 2, 64, 40, "both", "fifo", 7, false),
            cmd_nwp_cycle(2, 4, 0, 2, 64, 40, "both", "fifo", 7, false),
            cmd_nwp_cycle(2, 4, 2, 0, 64, 40, "both", "fifo", 7, false),
            cmd_nwp_cycle(2, 4, 2, 2, 0, 40, "both", "fifo", 7, false),
            cmd_nwp_cycle(2, 4, 2, 2, 64, 0, "both", "fifo", 7, false),
        ] {
            assert!(matches!(zeroed, Err(ToolError::BadArgs(_))), "{zeroed:?}");
        }
    }

    #[test]
    fn tiering_covers_the_media_grid_with_closed_accounting() {
        let out = cmd_tiering(2, 4, 2, 3, 512, 16, 12, 1024, 7).unwrap();
        match out {
            Outcome::Tiered { rows } => {
                let want = [
                    ("scm-only", false),
                    ("scm-only", true),
                    ("tiered", false),
                    ("tiered", true),
                ];
                assert_eq!(rows.len(), want.len());
                for (r, (media, agg)) in rows.iter().zip(want) {
                    assert_eq!(r.media, media);
                    assert_eq!(r.aggregation, agg);
                    assert_eq!(r.outcome.fields_written, 2 * 2 * 3);
                    assert!(r.outcome.scm_used > 0);
                }
                // The paper's SCM-only media never touches a capacity
                // tier, with or without the (inert) service running.
                for r in &rows[..2] {
                    assert_eq!(r.outcome.nvme_used, 0, "{r:?}");
                    assert_eq!(r.outcome.aggregated_bytes, 0, "{r:?}");
                }
                // With the service off nothing migrates; on, it moves
                // real bytes and leaves the write buffer no fuller.
                assert_eq!(rows[2].outcome.aggregated_bytes, 0);
                assert!(rows[3].outcome.aggregated_bytes > 0, "{:?}", rows[3]);
                assert!(rows[3].outcome.scm_used <= rows[2].outcome.scm_used);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tiering_is_deterministic() {
        let run = || match cmd_tiering(2, 4, 2, 3, 512, 16, 12, 1024, 7).unwrap() {
            Outcome::Tiered { rows } => rows
                .into_iter()
                .map(|r| {
                    (
                        r.media,
                        r.aggregation,
                        r.outcome.end_secs.to_bits(),
                        r.outcome.scm_used,
                        r.outcome.nvme_used,
                        r.outcome.aggregated_bytes,
                    )
                })
                .collect::<Vec<_>>(),
            other => panic!("{other:?}"),
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tiering_rejects_zero_shapes() {
        // Cycle-shape zeros come back typed from the builder; the
        // media knobs are validated in the command itself.
        for zeroed in [
            cmd_tiering(0, 4, 2, 3, 512, 16, 12, 1024, 7),
            cmd_tiering(2, 0, 2, 3, 512, 16, 12, 1024, 7),
            cmd_tiering(2, 4, 0, 3, 512, 16, 12, 1024, 7),
            cmd_tiering(2, 4, 2, 0, 512, 16, 12, 1024, 7),
            cmd_tiering(2, 4, 2, 3, 0, 16, 12, 1024, 7),
            cmd_tiering(2, 4, 2, 3, 512, 0, 12, 1024, 7),
            cmd_tiering(2, 4, 2, 3, 512, 16, 0, 1024, 7),
            cmd_tiering(2, 4, 2, 3, 512, 16, 12, 0, 7),
        ] {
            assert!(matches!(zeroed, Err(ToolError::BadArgs(_))), "{zeroed:?}");
        }
    }

    #[test]
    fn ior_interfaces_reports_positive_overhead_and_is_deterministic() {
        let out = cmd_ior_interfaces(&[16, 1024], 2, 2).unwrap();
        match &out {
            Outcome::Interfaces { rows } => {
                assert_eq!(rows.len(), 2);
                for r in rows {
                    assert!(r.daos_write_bw > 0.0 && r.dfs_write_bw > 0.0);
                    // Same data path plus extra dirent traffic: the DFS
                    // run never beats the raw-array run.
                    assert!(r.write_overhead() >= 1.0, "{r:?}");
                    assert!(r.read_overhead() >= 1.0, "{r:?}");
                }
                // Small transfers pay more of the namespace tax.
                assert!(rows[0].write_overhead() > rows[1].write_overhead());
            }
            other => panic!("{other:?}"),
        }
        let again = cmd_ior_interfaces(&[16, 1024], 2, 2).unwrap();
        match (out, again) {
            (Outcome::Interfaces { rows: a }, Outcome::Interfaces { rows: b }) => {
                assert_eq!(a, b)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ior_interfaces_rejects_empty_and_zero_shapes() {
        for bad in [
            cmd_ior_interfaces(&[], 2, 2),
            cmd_ior_interfaces(&[16, 0], 2, 2),
            cmd_ior_interfaces(&[16], 0, 2),
            cmd_ior_interfaces(&[16], 2, 0),
            // More than 1 GiB read back per process, or a u64 overflow.
            cmd_ior_interfaces(&[16, 1 << 20], 2, 2),
            cmd_ior_interfaces(&[u64::MAX / 1024], 2, 2),
        ] {
            assert!(matches!(bad, Err(ToolError::BadArgs(_))), "{bad:?}");
        }
    }

    #[test]
    fn nwp_cycle_with_faults_still_accounts_every_step() {
        let out = cmd_nwp_cycle(2, 2, 2, 2, 64, 40, "shared", "writer-priority", 3, true).unwrap();
        match out {
            Outcome::Cycled { outcomes, faults } => {
                assert!(faults);
                assert_eq!(outcomes.len(), 1);
                let o = &outcomes[0];
                assert_eq!(o.admission, AdmissionPolicy::writer_priority());
                assert_eq!(o.deadlines_met + o.deadlines_missed, 2 * 2);
            }
            other => panic!("{other:?}"),
        }
    }
}
