//! The `xp` command line, end to end through the binary: every refused
//! argv exits with the right status and names what it refused, nothing
//! runs before the whole argv parses, and an overridden run is
//! deterministic and leaves `results/` alone.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn xp(argv: &str, dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(argv.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("xp runs")
}

/// A scratch working directory, so a run that wrongly saves would leave
/// a `results/` behind to detect.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("xp-argv-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// (argv, exit status, text stderr must contain). Per-experiment
/// shape checks are unit tests beside `Job::parse`; these are the
/// cross-cutting ones.
const REFUSED: &[(&str, i32, &str)] = &[
    // Overflow and garbage are usage errors naming the flag.
    ("tiering --writers 5000000000", 2, "--writers"),
    ("tiering --kib lots", 2, "--kib"),
    ("sched-fuzz --start 1e3", 2, "--start"),
    // Zero shapes are invalid and name the field.
    ("tiering --scm-mib 0", 1, "--scm-mib"),
    ("tiering --steps 0", 1, "steps"),
    ("sched-fuzz --seeds 0", 1, "--seeds"),
    // Unknown flags, flags meant for another experiment, dropped flags.
    ("tiering --bogus 1", 2, "--bogus"),
    ("nwp-cycle --scm-mib 4", 2, "--scm-mib"),
    ("ior-interfaces --writers 2", 2, "--writers"),
    ("table1 --writers 2", 2, "--writers"),
    ("sched-fuzz --jobs 4", 2, "--jobs"),
    // Flags with nothing to attach to, or no value; unknown experiments.
    ("--writers 2 tiering", 2, "--writers"),
    ("all --writers 2", 2, "--writers"),
    ("tiering --writers", 2, "needs a value"),
    ("fig99", 2, "usage"),
    // Nothing runs before the whole argv parses.
    ("table2 tiering --scm-mib 0", 1, "--scm-mib"),
];

#[test]
fn refused_argv_exits_with_its_status_and_names_the_culprit() {
    let dir = Scratch::new("refused");
    for &(argv, status, needle) in REFUSED {
        let out = xp(argv, &dir.0);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(status), "{argv}: {stderr}");
        assert!(
            stderr.contains(needle),
            "{argv} must name {needle}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{argv}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv} ran before refusing");
    }
    assert!(!dir.0.join("results").exists());
}

#[test]
fn overridden_runs_are_deterministic_and_save_only_to_an_explicit_out() {
    let dir = Scratch::new("override");
    let argv = "tiering --writers 2 --readers 6 --steps 2 --kib 512 --quick";
    let (a, b) = (xp(argv, &dir.0), xp(argv, &dir.0));
    let stderr = String::from_utf8_lossy(&a.stderr);
    assert_eq!(a.status.code(), Some(0), "{stderr}");
    assert_eq!(a.stdout, b.stdout, "an overridden run is not deterministic");
    assert!(String::from_utf8_lossy(&a.stdout).contains("2 writers x 2 steps"));
    assert!(stderr.contains("not saved"), "{stderr}");
    assert!(
        !dir.0.join("results").exists(),
        "an overridden run wrote results/"
    );

    let out = dir.0.join("explicit");
    let with_out = format!("{argv} --out {}", out.display());
    assert_eq!(xp(&with_out, &dir.0).status.code(), Some(0));
    let json = std::fs::read_to_string(out.join("BENCH_tiering.json")).unwrap();
    assert!(json.contains("\"writers\": 2,") && json.contains("\"readers\": 6,"));
}
