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
use std::rc::Rc;

use bytes::Bytes;

use daosim_cluster::{ClusterSpec, FaultPlan, RetryPolicy};
use daosim_core::fieldio::{FieldIoConfig, FieldIoMode, FieldStore};
use daosim_core::key::FieldKey;
use daosim_core::metrics::bandwidth_timeline;
use daosim_core::obs::write_chrome_trace;
use daosim_core::request::{retrieve, Request};
use daosim_core::trace::{replay, replay_traced, Pacing, ReplayStats, Trace};
use daosim_kernel::{Sim, SimDuration, SimTime};
use daosim_objstore::api::EmbeddedClient;
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

fn load(path: &Path) -> Result<Rc<Pool>, ToolError> {
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
    pool: Rc<Pool>,
    f: impl FnOnce(&FieldStore<EmbeddedClient>) -> Result<T, ToolError> + 'static,
) -> Result<T, ToolError>
where
    T: 'static,
{
    let sim = Sim::new();
    let id = client_id(&pool);
    let result: Rc<std::cell::RefCell<Option<Result<T, ToolError>>>> = Rc::default();
    let r2 = Rc::clone(&result);
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
    Rc::try_unwrap(result)
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
        daosim_objstore::DEFAULT_POOL_CAPACITY,
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
        with_fieldstore(Rc::clone(&pool), move |fs| {
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
        let pool = Rc::clone(&pool);
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
    // The trace's byte total and its last timestamp must fit in u64.
    let fields = (u64::from(procs) * u64::from(steps)).saturating_mul(u64::from(fields_per_step));
    let field_bytes = field_mib
        .checked_mul(1 << 20)
        .filter(|b| b.checked_mul(fields).is_some())
        .ok_or_else(|| overflow("--mib", field_mib))?;
    let interval = millis("--interval-ms", interval_ms)?;
    let spans = u64::from(steps.max(fields_per_step)) + 1;
    if interval.as_nanos().checked_mul(spans).is_none() {
        return Err(overflow("--interval-ms", interval_ms));
    }
    let trace = Trace::synthesize_operational(procs, steps, fields_per_step, field_bytes, interval);
    fs::write(path, trace.to_csv())?;
    Ok(Outcome::TraceWritten {
        path: path.display().to_string(),
        ops: trace.len(),
        gib: trace.total_write_bytes() as f64 / (1u64 << 30) as f64,
    })
}

fn overflow(flag: &str, value: u64) -> ToolError {
    ToolError::BadArgs(format!("{flag} {value} is too large"))
}

/// A millisecond flag as a duration, rejected by name when its
/// nanosecond count overflows.
fn millis(flag: &str, ms: u64) -> Result<SimDuration, ToolError> {
    ms.checked_mul(1_000_000)
        .map(SimDuration::from_nanos)
        .ok_or_else(|| overflow(flag, ms))
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
    let out = replay(
        ClusterSpec::tcp(servers.max(1), clients.max(1)),
        fieldio_for(mode, window)?,
        &trace,
        if paced { Pacing::Paced } else { Pacing::AsFast },
        None,
    );
    Ok(Outcome::Simulated(Box::new(out.stats)))
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
    let summary = write_chrome_trace(&traced.spans, json_out)?;
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
    // A fault after the last scheduled operation has no I/O left to
    // disturb, and the timeline (one row per 50 ms) would run on to it.
    let horizon = trace.entries.last().map_or(0, |e| e.t_ns);
    let within = |flag: &str, ms: u64| {
        let at = millis(flag, ms)?;
        if at.as_nanos() > horizon {
            return Err(ToolError::BadArgs(format!(
                "{flag} {ms} is past the trace's last operation at {} ms",
                horizon / 1_000_000
            )));
        }
        Ok(at)
    };
    let plan = FaultPlan::new()
        .kill_and_rebuild(within("--kill-ms", kill_ms)?, 0)
        .restart(within("--restart-ms", restart_ms)?, 0);
    let out = replay(spec, fieldio, &trace, Pacing::Paced, Some(&plan));
    let bucket = SimDuration::from_millis(50);
    let end = SimTime::from_nanos((out.stats.end_secs * 1e9) as u64);
    let writes = bandwidth_timeline(&out.write_events, bucket, end);
    let reads = bandwidth_timeline(&out.read_events, bucket, end);
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
        assert!(daosim_core::obs::json_is_wellformed(&text));
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
        assert!(matches!(
            cmd_failure_drill(&a.0, 1, 2, 59, u64::MAX),
            Err(ToolError::BadArgs(m)) if m.contains("--restart-ms")
        ));
    }

    /// A restart long after the trace ends used to stretch the timeline
    /// with a zero row per 50 ms up to it (2,004 rows at 100,000 ms on
    /// the default trace) and report its instant as the run's total. An
    /// instant past the trace's last operation is now rejected by name.
    #[test]
    fn failure_drill_rejects_faults_past_the_trace() {
        let a = TempArchive::new("drill-horizon");
        cmd_synth_trace(&a.0, 4, 3, 2, 1, 60).unwrap();
        let last_ms = {
            let text = fs::read_to_string(&a.0).unwrap();
            Trace::from_csv(&text).unwrap().entries.last().unwrap().t_ns / 1_000_000
        };
        assert!(matches!(
            cmd_failure_drill(&a.0, 1, 2, 59, 100_000),
            Err(ToolError::BadArgs(m)) if m.contains("--restart-ms 100000")
        ));
        assert!(matches!(
            cmd_failure_drill(&a.0, 1, 2, 100_000, 100_001),
            Err(ToolError::BadArgs(m)) if m.contains("--kill-ms 100000")
        ));
        // A restart at the last operation is still a drill.
        assert!(matches!(
            cmd_failure_drill(&a.0, 1, 2, 59, last_ms),
            Ok(Outcome::Drilled { .. })
        ));
    }

    #[test]
    fn synth_trace_rejects_zero_parameters() {
        let a = TempArchive::new("trace-zero");
        assert!(matches!(
            cmd_synth_trace(&a.0, 0, 2, 3, 1, 40),
            Err(ToolError::BadArgs(_))
        ));
        // Units that overflow u64 are rejected by flag name, not wrapped
        // or panicked on.
        for (mib, interval_ms, flag) in [
            (u64::MAX, 40, "--mib"),
            (1 << 43, 40, "--mib"),
            (1, u64::MAX, "--interval-ms"),
            (1, u64::MAX / 1_000_000, "--interval-ms"),
        ] {
            assert!(
                matches!(
                    cmd_synth_trace(&a.0, 1, 2, 3, mib, interval_ms),
                    Err(ToolError::BadArgs(ref m)) if m.contains(flag)
                ),
                "mib {mib}, interval {interval_ms} ms"
            );
        }
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
    fn put_past_u64_max_usage_is_an_error_not_a_panic() {
        // An archive with capacity u64::MAX and 5 bytes left: the charge
        // `used + bytes` used to overflow (a panic in debug builds).
        let a = TempArchive::new("overflow");
        cmd_init(&a.0, 8).unwrap();
        let mut bytes = fs::read(&a.0).unwrap();
        // magic (8) | pool uuid (16) | targets (4) | capacity | used
        bytes[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
        bytes[36..44].copy_from_slice(&(u64::MAX - 5).to_le_bytes());
        fs::write(&a.0, &bytes).unwrap();
        assert!(matches!(
            cmd_put(&a.0, KEY, b"hello-world".to_vec()),
            Err(ToolError::Field(_))
        ));
        assert_eq!(
            fs::read(&a.0).unwrap(),
            bytes,
            "a failed put rewrote the archive"
        );
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
}
