//! # daosim-experiments — regenerating the paper's evaluation
//!
//! One runner per table and figure of the evaluation section, each
//! printing the same rows/series the paper reports (with the paper's
//! values alongside where the artifact is a table). The `xp` binary
//! drives them; host timing of the simulator itself lives in the
//! separate `benchmark/` package. The four extension experiments with knobs
//! (`nwp-cycle`, `tiering`, `ior-interfaces`, `sched-fuzz`) take one
//! typed parameter struct each, which `xp <name> --flag value` overrides
//! through the one parser in [`params`].

pub mod ablations;
pub mod failure_drill_xp;
pub mod figures;
pub mod harness;
pub mod ior_interfaces_xp;
pub mod kernel_bench_xp;
pub mod nwp_cycle_xp;
pub mod params;
pub mod pipeline;
pub mod rebuild_xp;
pub mod replication;
pub mod sched_fuzz_xp;
pub mod tables;
pub mod tiering_xp;
pub mod window_sweep;

use std::io::Write;
use std::path::Path;

use daosim_cluster::ClusterSpec;
use daosim_core::fieldio::{FieldIoConfig, FieldIoMode};
use daosim_core::obs::write_chrome_trace;
use daosim_core::trace::{replay_traced, Pacing, Trace};
use daosim_kernel::SimDuration;
use harness::{Report, Scale};
use params::{parse, unknown, ArgError, Flags};

/// Every experiment by name.
pub const EXPERIMENTS: [&str; 18] = [
    "table1",
    "table2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "ablations",
    "pipeline",
    "pipeline-window",
    "ior-interfaces",
    "replication",
    "rebuild",
    "failure-drill",
    "sched-fuzz",
    "kernel-bench",
    "nwp-cycle",
    "tiering",
];

/// Runs one experiment by name at its committed shape.
pub fn run_experiment(name: &str, scale: &Scale) -> Vec<Report> {
    match name {
        "table1" => vec![tables::table1(scale)],
        "table2" => vec![tables::table2(scale)],
        "fig3" => vec![figures::fig3(scale)],
        "fig4" => vec![figures::fig4(scale)],
        "fig5" => vec![figures::fig5(scale)],
        "fig6" => vec![figures::fig6(scale)],
        "fig7" => vec![figures::fig7(scale)],
        "ablations" => ablations::all(scale),
        "pipeline" => vec![pipeline::pipeline(scale)],
        "pipeline-window" => vec![window_sweep::window_sweep(scale)],
        "ior-interfaces" => vec![ior_interfaces_xp::run(&Flags::at(scale))],
        "replication" => vec![replication::replication(scale)],
        "rebuild" => vec![rebuild_xp::rebuild(scale)],
        "failure-drill" => vec![failure_drill_xp::failure_drill(scale)],
        "sched-fuzz" => vec![sched_fuzz_xp::run(&Flags::at(scale))],
        "kernel-bench" => vec![kernel_bench_xp::kernel_bench(scale)],
        "nwp-cycle" => vec![nwp_cycle_xp::run(&Flags::at(scale))],
        "tiering" => vec![tiering_xp::run(&Flags::at(scale))],
        other => panic!("unknown experiment {other:?}; known: {EXPERIMENTS:?}"),
    }
}

/// One experiment as `xp` will run it: at its committed shape, or with
/// typed parameters overridden by flags.
#[derive(Clone, Debug)]
pub enum Job {
    Default(&'static str),
    NwpCycle(nwp_cycle_xp::Params),
    Tiering(tiering_xp::Params),
    IorInterfaces(ior_interfaces_xp::Params),
    SchedFuzz(sched_fuzz_xp::Params),
}

impl Job {
    /// Parses the `--flag value` pairs that followed experiment `name`
    /// on the command line. Only the four parameterised experiments
    /// take flags; without any, every experiment runs its committed
    /// shape.
    pub fn parse(name: &'static str, scale: &Scale, flags: &[String]) -> Result<Job, ArgError> {
        if flags.is_empty() {
            return Ok(Job::Default(name));
        }
        Ok(match name {
            "nwp-cycle" => Job::NwpCycle(parse(scale, flags)?),
            "tiering" => Job::Tiering(parse(scale, flags)?),
            "ior-interfaces" => Job::IorInterfaces(parse(scale, flags)?),
            "sched-fuzz" => Job::SchedFuzz(parse(scale, flags)?),
            _ => return Err(unknown(&flags[0])),
        })
    }

    /// Whether flags overrode the committed shape. `xp` saves an
    /// overridden run only to an explicit `--out`, so `results/` keeps
    /// only committed-shape artifacts.
    pub fn overridden(&self) -> bool {
        !matches!(self, Job::Default(_))
    }

    pub fn run(&self, scale: &Scale) -> Vec<Report> {
        match self {
            Job::Default(name) => run_experiment(name, scale),
            Job::NwpCycle(p) => vec![nwp_cycle_xp::run(p)],
            Job::Tiering(p) => vec![tiering_xp::run(p)],
            Job::IorInterfaces(p) => vec![ior_interfaces_xp::run(p)],
            Job::SchedFuzz(p) => vec![sched_fuzz_xp::run(p)],
        }
    }
}

/// Runs `job`, writing each rendered report to `out` and each failed
/// check to `err`, and saving report files under `save_to` if given.
/// The sinks are caller-supplied so library users (tests, harnesses
/// capturing output) are not forced onto the process's stdout/stderr.
/// Returns whether every check passed.
pub fn run_job(
    job: &Job,
    scale: &Scale,
    save_to: Option<&Path>,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> bool {
    let mut ok = true;
    for rep in job.run(scale) {
        let _ = writeln!(out, "{}", rep.render());
        for f in rep.failures() {
            let _ = writeln!(err, "FAIL: {f}");
            ok = false;
        }
        if let Some(dir) = save_to {
            if let Err(e) = rep.save(dir) {
                let _ = writeln!(err, "warning: could not save {}: {e}", rep.name);
            }
        }
    }
    ok
}

/// Runs a downscaled Field I/O replay with span tracing and writes the
/// validated Chrome trace-event JSON to `path` (the `xp --trace-out`
/// artifact; CI loads it as a smoke test). Returns an error if the
/// recorded span stream violates its invariants, renders to malformed
/// JSON, or covers fewer than four categories.
pub fn write_fieldio_trace(path: &Path, err: &mut dyn Write) -> std::io::Result<()> {
    let trace = Trace::synthesize_operational(4, 2, 3, 256 * 1024, SimDuration::from_millis(20));
    let traced = replay_traced(
        ClusterSpec::tcp(1, 1),
        FieldIoConfig::builder().mode(FieldIoMode::Full).build(),
        &trace,
        Pacing::Paced,
        None,
    );
    let summary = write_chrome_trace(&traced.spans, path)?;
    if summary.categories.len() < 4 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "only {} span categories: {:?}",
                summary.categories.len(),
                summary.categories
            ),
        ));
    }
    let _ = writeln!(
        err,
        "[trace] {}: {} spans, {} instants; categories: {}",
        path.display(),
        summary.spans,
        summary.instants,
        summary.categories.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    //! The `xp` surface of the parameterised experiments: argv through
    //! [`Job::parse`] into the typed runners.

    use super::*;
    use daosim_core::obs::json_is_wellformed;

    fn job(name: &'static str, flags: &str) -> Result<Job, ArgError> {
        let flags: Vec<String> = flags.split_whitespace().map(String::from).collect();
        Job::parse(name, &Scale::quick(), &flags)
    }

    /// The report and its artifact JSON.
    fn run_one(name: &'static str, flags: &str) -> (Report, String) {
        let rep = job(name, flags).unwrap().run(&Scale::quick()).remove(0);
        let json = rep.artifacts()[0].1.clone();
        assert!(json_is_wellformed(&json), "{json}");
        (rep, json)
    }

    /// Every `"key": N` in an artifact, in order.
    fn values(json: &str, key: &str) -> Vec<u64> {
        let needle = format!("\"{key}\": ");
        let found = json.lines().filter_map(|l| l.trim().strip_prefix(&needle));
        found
            .map(|v| v.trim_end_matches(',').parse().unwrap())
            .collect()
    }

    /// Each `(flags, exit status, text)` is refused with that status by
    /// a message containing the text.
    fn assert_refused(name: &'static str, cases: &[(&str, i32, &str)]) {
        for &(flags, code, needle) in cases {
            match job(name, flags) {
                Err(e) => assert!(
                    e.exit_code() == code && e.to_string().contains(needle),
                    "{e}"
                ),
                Ok(_) => panic!("{name} {flags} was accepted"),
            }
        }
    }

    /// Every row closes its deadline ledger: met + missed = writers x steps.
    fn assert_closed(json: &str, rows: usize, writer_steps: u64) {
        let (met, missed) = (
            values(json, "deadlines_met"),
            values(json, "deadlines_missed"),
        );
        assert_eq!((met.len(), missed.len()), (rows, rows));
        assert!(met.iter().zip(&missed).all(|(m, x)| m + x == writer_steps));
    }

    const SMALL_CYCLE: &str =
        "--writers 2 --readers 4 --steps 2 --fields 2 --kib 64 --interval-ms 40";

    #[test]
    fn no_flags_is_the_committed_shape() {
        for name in EXPERIMENTS {
            assert!(matches!(job(name, ""), Ok(Job::Default(n)) if n == name));
        }
        assert!(job("nwp-cycle", "--seed 7").unwrap().overridden());
    }

    #[test]
    fn nwp_cycle_runs_both_layouts_with_closed_accounting() {
        let flags = format!("{SMALL_CYCLE} --admission fifo --faults off");
        let (rep, json) = run_one("nwp-cycle", &flags);
        assert!(rep.rows().iter().all(|r| r[1] == "fifo" && r[2] == "false"));
        assert_closed(&json, 2, 2 * 2);
        assert_eq!(values(&json, "fields_written"), [2 * 2 * 2; 2]);
        assert_eq!(values(&json, "step_interval_ms"), [40]);
        // Both clean FIFO layouts ran, so the crossover is reported; the
        // writer-priority row the enforcement block needs did not.
        assert!(json.contains("\"crossover\"") && !json.contains("\"enforcement\""));
    }

    #[test]
    fn nwp_cycle_crosses_layouts_with_admission_policies() {
        let flags = format!("{SMALL_CYCLE} --layout both --admission both --faults off");
        let (rep, json) = run_one("nwp-cycle", &flags);
        // Layout-major, admission-minor ordering.
        let order: Vec<String> = rep.rows().iter().map(|r| r[..2].join("/")).collect();
        let want = ["shared-index/fifo", "shared-index/writer-priority"];
        let want = [
            &want[..],
            &[
                "index-per-process/fifo",
                "index-per-process/writer-priority",
            ],
        ];
        assert_eq!(order, want.concat());
        assert_closed(&json, 4, 2 * 2);
        assert!(json.contains("\"crossover\"") && json.contains("\"enforcement\""));
        // A single row has neither comparison, and its JSON still parses.
        let (_, json) = run_one("nwp-cycle", &format!("{SMALL_CYCLE} --layout per-process"));
        assert!(!json.contains("\"crossover\""), "{json}");
    }

    #[test]
    fn nwp_cycle_rejects_bad_layout_bad_admission_and_zero_shapes() {
        assert_refused(
            "nwp-cycle",
            &[
                ("--layout triple", 2, "--layout"),
                ("--admission lifo", 2, "--admission"),
                ("--faults maybe", 2, "--faults"),
                ("--writers 0", 1, "writers"),
                ("--readers 0", 1, "readers"),
                ("--steps 0", 1, "steps"),
                ("--fields 0", 1, "fields_per_step"),
                ("--kib 0", 1, "field_bytes"),
                ("--interval-ms 0", 1, "step_interval"),
            ],
        );
    }

    #[test]
    fn nwp_cycle_with_faults_still_accounts_every_step() {
        // Later flags win: two readers and seed 3 over the small cycle.
        let axes = "--layout shared --admission writer-priority --faults on";
        let (rep, json) = run_one(
            "nwp-cycle",
            &format!("{SMALL_CYCLE} --readers 2 --seed 3 {axes}"),
        );
        assert_eq!(
            rep.rows()[0][..3],
            ["shared-index", "writer-priority", "true"]
        );
        assert_closed(&json, 1, 2 * 2);
    }

    const SMALL_TIERING: &str = "--writers 2 --readers 4 --steps 2 --fields 3 --kib 512 \
        --interval-ms 16 --scm-mib 12 --threshold-kib 1024 --seed 7";

    #[test]
    fn tiering_covers_the_media_grid_with_closed_accounting() {
        let (rep, json) = run_one("tiering", SMALL_TIERING);
        let grid: Vec<String> = rep.rows().iter().map(|r| r[..2].join("/")).collect();
        assert_eq!(
            grid,
            [
                "scm-only/false",
                "scm-only/true",
                "tiered/false",
                "tiered/true"
            ]
        );
        assert_eq!(values(&json, "fields_written"), [2 * 2 * 3; 4]);
        // Row values come first; the summary block repeats some keys.
        let scm = &values(&json, "scm_used")[..4];
        let nvme = &values(&json, "nvme_used")[..4];
        let moved = &values(&json, "aggregated_bytes")[..4];
        assert!(scm.iter().all(|&b| b > 0), "{scm:?}");
        // SCM-only media never touches a capacity tier; with the service
        // off nothing migrates; on, it moves real bytes and leaves the
        // write buffer no fuller.
        assert_eq!((&nvme[..2], &moved[..3]), (&[0, 0][..], &[0, 0, 0][..]));
        assert!(moved[3] > 0 && scm[3] <= scm[2], "{moved:?} {scm:?}");
        // The header describes the overridden shape.
        assert_eq!(values(&json, "tiered_scm_per_socket"), [12 << 20]);
        assert_eq!(values(&json, "writers"), [2]);
    }

    #[test]
    fn tiering_is_deterministic() {
        let (a, json_a) = run_one("tiering", SMALL_TIERING);
        let (b, json_b) = run_one("tiering", SMALL_TIERING);
        assert_eq!((a.render(), json_a), (b.render(), json_b));
    }

    #[test]
    fn tiering_rejects_zero_shapes() {
        // Cycle-shape and media zeros are both refused by the parser.
        let cycle = [
            "writers",
            "readers",
            "steps",
            "fields_per_step",
            "field_bytes",
        ];
        let flags = ["--writers", "--readers", "--steps", "--fields", "--kib"];
        for (flag, field) in flags.iter().zip(cycle) {
            assert_refused("tiering", &[(&format!("{flag} 0"), 1, field)]);
        }
        assert_refused(
            "tiering",
            &[
                ("--interval-ms 0", 1, "step_interval"),
                ("--scm-mib 0", 1, "--scm-mib"),
                ("--threshold-kib 0", 1, "--threshold-kib"),
                // A unit conversion that overflows is a usage error.
                ("--scm-mib 18446744073709551615", 2, "--scm-mib"),
            ],
        );
    }

    #[test]
    fn ior_interfaces_reports_positive_overhead_and_is_deterministic() {
        let flags = "--transfer-kib 16,1024 --segments 2 --ppn 2";
        let (rep, json) = run_one("ior-interfaces", flags);
        let cell = |r: usize, c: usize| rep.rows()[r][c].parse::<f64>().unwrap();
        for r in 0..2 {
            // Same data path plus extra dirent traffic: the DFS run
            // never beats the raw-array run.
            assert!(cell(r, 2) > 0.0 && cell(r, 3) >= 1.0 && cell(r, 6) >= 1.0);
        }
        // Small transfers pay more of the namespace tax.
        assert!(cell(0, 3) > cell(1, 3));
        // The header describes the shape that ran.
        assert_eq!(
            (values(&json, "procs_per_node"), values(&json, "segments")),
            (vec![2], vec![2])
        );
        let (again, json_again) = run_one("ior-interfaces", flags);
        assert_eq!((rep.rows(), json), (again.rows(), json_again));
    }

    #[test]
    fn ior_interfaces_rejects_empty_and_zero_shapes() {
        let huge = format!("--transfer-kib {} --segments 2", u64::MAX / 1024);
        assert_refused(
            "ior-interfaces",
            &[
                ("--transfer-kib ,", 2, "--transfer-kib"),
                ("--transfer-kib 16,0", 1, "--transfer-kib"),
                ("--segments 0", 1, "--segments"),
                ("--ppn 0", 1, "--ppn"),
                ("--ppn 4000000000", 1, "--ppn"),
                // More than 1 GiB read back per process, or a u64 overflow.
                ("--transfer-kib 16,1048576 --segments 2", 1, "1 GiB"),
                (&huge, 1, "1 GiB"),
            ],
        );
    }
}
