//! `bench`: the daosim benchmark. See README.md for the workloads, the
//! metrics and how to run and compare.
//!
//! ```text
//! bench [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
//! bench compare BASE NEW
//! ```
//!
//! A run repeats each workload, every repetition in a child process of
//! its own (a fresh heap and its own peak RSS), until `--seconds` have
//! passed, and prints one JSON line per metric followed by the result
//! line. `--trace 1` alternates untraced and traced repetitions and
//! reports the per-layer metrics instead of the end-to-end ones.

mod catalogue;
mod churn;
mod cycle;
mod ior;
mod json;
mod speed;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use daosim_cluster::SimClient;

use crate::catalogue::{end_to_end, find, per_layer, Metric, CLIENT_OPS};
use crate::json::Value;
use crate::stats::{median, nearest_rank, quartiles, verdict, Verdict};
use crate::trace::{take_profile, Op, Site, Timed};
use crate::workload::{RepOutcome, Workload};

/// Hidden subcommand: one repetition, run in a child process.
const REP: &str = "__rep";
/// Fewest repetitions a run reports on.
const MIN_REPS: usize = 3;
const MAX_SECONDS: u64 = 3600;

const USAGE: &str = "usage: bench [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
       bench compare BASE NEW
workloads: ior-bulk nwp-cycle dfs-churn nwp-cycle-degraded";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some(REP) => return repetition(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => parse_run(&args).and_then(run),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload")?;
                out.workloads
                    .push(Workload::parse(w).ok_or(format!("unknown workload `{w}`"))?);
            }
            "--seed" => {
                let s = value("a number")?;
                out.seed = s.parse().map_err(|_| format!("bad seed `{s}`"))?;
            }
            "--seconds" => {
                let s = value("a number")?;
                out.seconds = s
                    .parse()
                    .ok()
                    .filter(|n| (1..=MAX_SECONDS).contains(n))
                    .ok_or(format!("--seconds must be 1..={MAX_SECONDS}, got `{s}`"))?;
            }
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") | Some("1") => out.trace = it.next().is_some_and(|s| s == "1"),
                _ => out.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.workloads.is_empty() {
        out.workloads = Workload::ALL.to_vec();
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// One repetition (child process)

fn repetition(args: &[String]) -> ExitCode {
    let t0 = Instant::now();
    let parsed = match args {
        [w, seed, traced] => Workload::parse(w)
            .zip(seed.parse::<u64>().ok())
            .zip(matches!(traced.as_str(), "0" | "1").then(|| traced == "1")),
        _ => None,
    };
    let Some(((workload, seed), traced)) = parsed else {
        eprintln!("bench: bad {REP} arguments {args:?}");
        return ExitCode::from(2);
    };
    let out = if traced {
        drive::<Timed<SimClient>>(workload, seed, t0)
    } else {
        drive::<SimClient>(workload, seed, t0)
    };
    let mut errors = out.errors;
    let mut host = vec![
        ("setup_s".to_string(), out.setup_ns as f64 / 1e9),
        ("kernel.run_wall_s".to_string(), out.run_ns as f64 / 1e9),
    ];
    let mut trace_sim = Vec::new();
    if traced {
        match layer_metrics(out.run_ns) {
            Ok((h, s)) => {
                host.extend(h);
                trace_sim = s;
            }
            Err(e) => errors.push(format!("{}: {e}", workload.name())),
        }
    }
    match peak_rss_mib() {
        Some(mib) => host.push(("peak_rss_mib".to_string(), mib)),
        None => errors.push("VmHWM unavailable in /proc/self/status".to_string()),
    }
    let nums = |kv: Vec<(String, f64)>| {
        Value::Obj(kv.into_iter().map(|(k, v)| (k, Value::Num(v))).collect())
    };
    let record = Value::Obj(vec![
        ("attempted".into(), Value::Num(out.attempted as f64)),
        ("failed".into(), Value::Num(out.failed as f64)),
        (
            "errors".into(),
            Value::Arr(errors.into_iter().map(Value::Str).collect()),
        ),
        ("host".into(), nums(host)),
        ("sim".into(), nums(out.sim)),
        ("trace_sim".into(), nums(trace_sim)),
    ]);
    println!("{}", record.render());
    ExitCode::SUCCESS
}

fn drive<D: trace::BenchClient>(w: Workload, seed: u64, t0: Instant) -> RepOutcome {
    match w {
        Workload::IorBulk => ior::run::<D>(seed, t0),
        Workload::NwpCycle => cycle::run::<D>(&cycle::BENCH, false, seed, t0),
        Workload::DfsChurn => churn::run::<D>(seed, t0),
        Workload::NwpCycleDegraded => cycle::run::<D>(&cycle::BENCH, true, seed, t0),
    }
}

type Pairs = Vec<(String, f64)>;

/// The traced repetition's layer breakdown: host self times (varying run
/// to run) and call counts and simulated latencies (deterministic).
fn layer_metrics(run_ns: u64) -> Result<(Pairs, Pairs), String> {
    let p = take_profile();
    let kernel_ns = p.kernel_self_ns(run_ns)?;
    for op in Op::ALL {
        if !CLIENT_OPS.contains(&op) && p.site(Site::Client(op)).calls > 0 {
            return Err(format!(
                "client op {} is missing from the catalogue",
                op.name()
            ));
        }
    }
    let secs = |ns: u64| ns as f64 / 1e9;
    let per_call = |ns: u64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            ns as f64 / 1e3 / calls as f64
        }
    };
    let mut host = vec![
        ("kernel.self_wall_s".to_string(), secs(kernel_ns)),
        (
            "workload.self_wall_s".to_string(),
            secs(p.site(Site::Workload).self_ns),
        ),
    ];
    let mut sim = Vec::new();
    let client_ns: u64 = CLIENT_OPS
        .iter()
        .map(|op| p.site(Site::Client(*op)).self_ns)
        .sum();
    let client_calls: u64 = CLIENT_OPS
        .iter()
        .map(|op| p.site(Site::Client(*op)).calls)
        .sum();
    for (layer, ns, calls) in [
        (
            "objstore.eq",
            p.site(Site::Eq).self_ns,
            p.site(Site::Eq).calls,
        ),
        ("client", client_ns, client_calls),
        (
            "fieldio",
            p.site(Site::Fieldio).self_ns,
            p.site(Site::Fieldio).calls,
        ),
        ("dfs", p.site(Site::Dfs).self_ns, p.site(Site::Dfs).calls),
    ] {
        host.push((format!("{layer}.self_wall_s"), secs(ns)));
        host.push((format!("{layer}.self_us_per_call"), per_call(ns, calls)));
        sim.push((format!("{layer}.calls"), calls as f64));
    }
    for op in CLIENT_OPS {
        let s = p.site(Site::Client(op));
        let name = op.name();
        let mut lat = s.sim_lat_ns.clone();
        lat.sort_unstable();
        let ms = |pct| nearest_rank(&lat, pct).unwrap_or(0) as f64 / 1e6;
        host.push((
            format!("client.{name}.host_us_per_call"),
            per_call(s.self_ns, s.calls),
        ));
        sim.push((format!("client.{name}.calls"), s.calls as f64));
        sim.push((format!("client.{name}.sim_p50_ms"), ms(50)));
        sim.push((format!("client.{name}.sim_p99_ms"), ms(99)));
        sim.push((format!("client.{name}.failed"), s.failed as f64));
    }
    Ok((host, sim))
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

// ---------------------------------------------------------------------------
// A run (parent process)

/// One child repetition as the parent sees it.
struct Rep {
    /// Process start to exit, at the reference host speed.
    wall_s: f64,
    /// The same, as the host clock read it.
    unscaled_wall_s: f64,
    /// Host speed probe around this repetition, mean of before and after.
    probe_ms: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    host: BTreeMap<String, f64>,
    sim: BTreeMap<String, f64>,
    trace_sim: BTreeMap<String, f64>,
}

fn spawn_rep(w: Workload, seed: u64, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating bench: {e}"))?;
    let t = Instant::now();
    let out = Command::new(exe)
        .args([
            REP,
            w.name(),
            &seed.to_string(),
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a {} repetition: {e}", w.name()))?;
    let wall_s = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("{}: repetition failed ({})", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let record = text
        .lines()
        .last()
        .ok_or(format!("{}: repetition printed nothing", w.name()))
        .and_then(|l| {
            json::parse(l).map_err(|e| format!("{}: repetition output: {e}", w.name()))
        })?;
    let map = |key: &str| -> BTreeMap<String, f64> {
        match record.get(key) {
            Some(Value::Obj(kv)) => kv
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => BTreeMap::new(),
        }
    };
    let count = |key: &str| record.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let errors = match record.get("errors") {
        Some(Value::Arr(items)) => items
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect(),
        _ => vec![format!(
            "{}: repetition record has no errors list",
            w.name()
        )],
    };
    Ok(Rep {
        wall_s,
        unscaled_wall_s: wall_s,
        probe_ms: f64::NAN,
        attempted: count("attempted"),
        failed: count("failed"),
        errors,
        host: map("host"),
        sim: map("sim"),
        trace_sim: map("trace_sim"),
    })
}

impl Rep {
    /// Rescales the host times to the reference speed, given the probe
    /// times just before and just after the repetition.
    fn rescale(&mut self, before_ns: f64, after_ns: f64) {
        let k = speed::scale(before_ns, after_ns);
        self.probe_ms = (before_ns + after_ns) / 2e6;
        self.wall_s = self.unscaled_wall_s * k;
        for (key, v) in &mut self.host {
            if key != "peak_rss_mib" {
                *v *= k;
            }
        }
    }
}

/// Why two repetitions of one seed disagree on a deterministic value.
fn diverges(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} vs {} values", a.len(), b.len()));
    }
    a.iter().zip(b).find_map(|((ka, va), (kb, vb))| {
        (ka != kb || va.to_bits() != vb.to_bits()).then(|| format!("{ka}={va} vs {kb}={vb}"))
    })
}

struct Measured {
    metrics: Vec<(Metric, f64)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn measure(w: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Measured, String> {
    let start = Instant::now();
    let mut probe = speed::probe_ns();
    let mut next = |traced: bool| -> Result<Rep, String> {
        let mut r = spawn_rep(w, seed, traced)?;
        let after = speed::probe_ns();
        r.rescale(probe, after);
        probe = after;
        Ok(r)
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < MIN_REPS || start.elapsed().as_secs() < seconds {
        plain.push(next(false)?);
        if trace {
            traced.push(next(true)?);
        }
    }
    let name = w.name();
    let mut errors: Vec<String> = plain
        .iter()
        .chain(&traced)
        .flat_map(|r| r.errors.clone())
        .collect();
    let first = &plain[0];
    for (i, r) in plain.iter().chain(&traced).enumerate().skip(1) {
        let kind = if i < plain.len() {
            "untraced"
        } else {
            "traced"
        };
        if let Some(why) = diverges(&first.sim, &r.sim) {
            errors.push(format!(
                "{name}: simulated metrics of {kind} repetition {i} differ from the first: {why}"
            ));
        }
        if (r.attempted, r.failed) != (first.attempted, first.failed) {
            errors.push(format!("{name}: op counts differ between repetitions"));
        }
    }
    for r in traced.iter().skip(1) {
        if let Some(why) = diverges(&traced[0].trace_sim, &r.trace_sim) {
            errors.push(format!("{name}: traced layer counts differ: {why}"));
        }
    }

    let host = |reps: &[Rep], key: &str| -> Option<Vec<f64>> {
        let v: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.host.get(key).copied())
            .collect();
        (!v.is_empty() && v.len() == reps.len()).then_some(v)
    };
    let host_median = |reps: &[Rep], key: &str| host(reps, key).map(|v| median(&v));
    let rep_median = |f: fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let wanted = if trace { per_layer() } else { end_to_end() };
    let mut metrics = Vec::new();
    for m in wanted {
        let value = match m.name.as_str() {
            "wall_s" => Some(rep_median(|r| r.wall_s)),
            "host.unscaled_wall_s" => Some(rep_median(|r| r.unscaled_wall_s)),
            "host.probe_ms" => Some(rep_median(|r| r.probe_ms)),
            "setup_s" | "peak_rss_mib" => host_median(&plain, &m.name),
            "trace.overhead_ratio" => host_median(&traced, "kernel.run_wall_s")
                .zip(host_median(&plain, "kernel.run_wall_s"))
                .map(|(t, u)| t / u),
            key => first
                .sim
                .get(key)
                .copied()
                .or_else(|| traced.first().and_then(|t| t.trace_sim.get(key).copied()))
                .or_else(|| host_median(&traced, key)),
        };
        match value {
            Some(v) if v.is_finite() => metrics.push((m, v)),
            Some(v) => errors.push(format!("{name}: {} is {v}", m.name)),
            None => errors.push(format!("{name}: {} was not measured", m.name)),
        }
    }
    let reps = (plain.len() + traced.len()) as u64;
    Ok(Measured {
        metrics,
        attempted: first.attempted * reps,
        failed: first.failed * reps,
        errors,
    })
}

fn run(args: RunArgs) -> Result<ExitCode, String> {
    if let Err(e) = speed::pin_to_current_cpu() {
        eprintln!("bench: running unpinned, so host times are noisier: {e}");
    }
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut result = Vec::new();
    let several = args.workloads.len() > 1;
    for &w in &args.workloads {
        let m = match measure(w, args.seed, args.seconds, args.trace) {
            Ok(m) => m,
            Err(e) => Measured {
                metrics: Vec::new(),
                attempted: 0,
                failed: 0,
                errors: vec![e],
            },
        };
        for e in &m.errors {
            eprintln!("bench: correctness check failed: {e}");
        }
        correct &= m.errors.is_empty();
        attempted += m.attempted;
        failed += m.failed;
        for (metric, v) in m.metrics {
            let line = Value::Obj(vec![
                ("workload".into(), Value::Str(w.name().into())),
                ("seed".into(), Value::Num(args.seed as f64)),
                ("metric".into(), Value::Str(metric.name.clone())),
                ("value".into(), Value::Num(v)),
                ("unit".into(), Value::Str(metric.unit.into())),
            ]);
            println!("{}", line.render());
            let key = if several {
                format!("{}.{}", w.name(), metric.name)
            } else {
                metric.name
            };
            let entry = vec![
                ("value".into(), Value::Num(v)),
                ("unit".into(), Value::Str(metric.unit.into())),
            ];
            result.push((key, Value::Obj(entry)));
        }
    }
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), Value::Obj(result)),
    ]);
    println!("{}", line.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---------------------------------------------------------------------------
// compare

/// Values of each (workload, metric) in a recorded run set, in run order.
type RunSet = Vec<((String, String), Vec<f64>)>;

fn load_run_set(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut set: RunSet = Vec::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let v = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let (Some(w), Some(m), Some(x)) = (
            v.get("workload").and_then(Value::as_str),
            v.get("metric").and_then(Value::as_str),
            v.get("value").and_then(Value::as_f64),
        ) else {
            continue;
        };
        let key = (w.to_string(), m.to_string());
        match set.iter_mut().find(|(k, _)| *k == key) {
            Some((_, values)) => values.push(x),
            None => set.push((key, vec![x])),
        }
    }
    if set.is_empty() {
        return Err(format!("{path} holds no metric lines"));
    }
    Ok(set)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare needs BASE and NEW".into());
    };
    let (base, new) = (load_run_set(base)?, load_run_set(new)?);
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    println!(
        "{:<20} {:<36} {:>6} {:>30} {:>30}  verdict",
        "workload", "metric", "better", "base median [q1, q3]", "new median [q1, q3]"
    );
    for ((w, name), b) in &base {
        let Some((_, n)) = new.iter().find(|(k, _)| k.0 == *w && k.1 == *name) else {
            continue;
        };
        let Some(metric) = find(name) else {
            continue;
        };
        let v = verdict(b, n, metric.better, metric.bound);
        *tally.entry(v.name()).or_default() += 1;
        let show = |x: &[f64]| {
            let (q1, q3) = quartiles(x);
            format!("{:.6} [{:.6}, {:.6}]", median(x), q1, q3)
        };
        println!(
            "{w:<20} {name:<36} {:>6} {:>30} {:>30}  {}",
            metric.better.name(),
            show(b),
            show(n),
            v.name()
        );
    }
    let summary: Vec<String> = tally.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!("{}", summary.join(", "));
    Ok(if tally.contains_key(Verdict::Regressed.name()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
