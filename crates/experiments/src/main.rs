//! `xp` — regenerate the paper's tables and figures.
//!
//! ```text
//! xp <experiment> [flags]... [--quick] [--out DIR] [--trace-out FILE]
//! xp all [--quick] [--out DIR]
//! xp --trace-out FILE            # only write the trace artifact
//! ```
//!
//! Results are printed and saved as `.txt`/`.csv` under `--out`
//! (default `results/`). Flags after `nwp-cycle`, `tiering`,
//! `ior-interfaces` or `sched-fuzz` override that experiment's committed
//! shape; an overridden run is printed, and saved only to an explicit
//! `--out`. Exit status: 2 for a usage error, 1 for an invalid shape or
//! a failed check (e.g. a fuzz divergence).

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use daosim_experiments::harness::Scale;
use daosim_experiments::params::ArgError;
use daosim_experiments::{run_job, write_fieldio_trace, Job, EXPERIMENTS};

fn usage() -> ! {
    eprintln!(
        "usage: xp <experiment> [flags]... [--quick] [--out DIR] [--trace-out FILE]\n       \
         experiments: {} | all\n\
         \n\
         nwp-cycle      [--writers N] [--readers N] [--steps N] [--fields N] [--kib N]\n                \
         [--interval-ms N] [--layout shared|per-process|both]\n                \
         [--admission fifo|writer-priority|both] [--faults off|on|both] [--seed S]\n\
         tiering        [--writers N] [--readers N] [--steps N] [--fields N] [--kib N]\n                \
         [--interval-ms N] [--scm-mib N] [--threshold-kib N] [--seed S]\n\
         ior-interfaces [--segments N] [--ppn N] [--transfer-kib A,B,...]\n\
         sched-fuzz     [--seeds N] [--start S] [--policy all|fifo|lifo|random|wake-delay]\n\
         \n\
         Flags override the experiment's committed shape; an overridden run is\n\
         printed, and saved only to an explicit --out.",
        EXPERIMENTS.join(" ")
    );
    exit(2);
}

/// Reports a refused argv, naming the experiment it was for (if any),
/// and exits with its status.
fn refuse(experiment: &str, e: ArgError) -> ! {
    if experiment.is_empty() {
        eprintln!("xp: {e}");
    } else {
        eprintln!("xp {experiment}: {e}");
    }
    match e {
        ArgError::Usage(_) => usage(),
        ArgError::Invalid(_) => exit(e.exit_code()),
    }
}

fn main() {
    // Each named experiment with the `--flag value` pairs that follow it.
    let mut runs: Vec<(&'static str, Vec<String>)> = Vec::new();
    // Whether a flag may attach to the last experiment (`all` takes none).
    let mut takes_flags = false;
    let mut scale = Scale::full();
    let mut out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => scale = Scale::quick(),
            "--out" => out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--trace-out" => {
                trace_out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "all" => {
                runs.extend(EXPERIMENTS.iter().map(|&n| (n, Vec::new())));
                takes_flags = false;
            }
            "-h" | "--help" => usage(),
            flag if flag.starts_with("--") => {
                let Some((name, flags)) = runs.last_mut().filter(|_| takes_flags) else {
                    refuse(
                        "",
                        ArgError::Usage(format!("{flag} must follow the experiment it overrides")),
                    );
                };
                let value = args.next().unwrap_or_else(|| {
                    refuse(name, ArgError::Usage(format!("{flag} needs a value")))
                });
                flags.extend([a, value]);
            }
            other => match EXPERIMENTS.iter().find(|&&n| n == other) {
                Some(&name) => {
                    runs.push((name, Vec::new()));
                    takes_flags = true;
                }
                None => usage(),
            },
        }
    }
    if runs.is_empty() && trace_out.is_none() {
        usage();
    }
    runs.dedup();
    // Parse every experiment's flags before running any of them.
    let jobs: Vec<(&str, Job)> = runs
        .iter()
        .map(|(name, flags)| {
            let job = Job::parse(name, &scale, flags).unwrap_or_else(|e| refuse(name, e));
            (*name, job)
        })
        .collect();
    let results = PathBuf::from("results");
    let (mut stdout, mut stderr) = (std::io::stdout(), std::io::stderr());
    let mut ok = true;
    for (name, job) in &jobs {
        let save_to = match &out {
            Some(dir) => Some(dir.as_path()),
            None if job.overridden() => {
                eprintln!("[{name}] overridden shape: printed, not saved (pass --out DIR to save)");
                None
            }
            None => Some(results.as_path()),
        };
        let t0 = Instant::now();
        ok &= run_job(job, &scale, save_to, &mut stdout, &mut stderr);
        eprintln!("[{name}] completed in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if let Some(path) = trace_out {
        let t0 = Instant::now();
        if let Err(e) = write_fieldio_trace(&path, &mut stderr) {
            eprintln!("trace export failed: {e}");
            exit(1);
        }
        eprintln!("[trace] completed in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if !ok {
        exit(1);
    }
}
