//! Beyond-paper extension: schedule-perturbation fuzzing as an
//! experiment.
//!
//! Runs the fuzz corpus (`daosim_cluster::fuzz`, seeds `0..N` by
//! default) under the full policy roster — FIFO reference, LIFO, two
//! random-pick streams, two wake-delay magnitudes, plus one
//! writer-priority admission slot on the FIFO schedule — and reports,
//! per policy family, how many seeds were checked and how many diverged.
//! A healthy kernel reports zero divergences everywhere; any non-zero
//! cell is a schedule-invariance bug: the row's detail column carries
//! the first shrunk repro, every shrunk repro goes to stderr, and `xp`
//! exits 1. Everything is seed-derived, so reruns are byte-identical.
//!
//! `xp sched-fuzz --seeds N --start S --policy all|fifo|lifo|random|wake-delay`
//! narrows the corpus and the roster; the gate CI runs is
//! `--seeds 256 --policy all`.

use daosim_cluster::fuzz::{fuzz_corpus, FuzzReport};
use daosim_kernel::SchedPolicy;

use crate::harness::{json_array, json_object, parallel_map, quoted, Report, Scale};
use crate::params::{num, pick, positive, unknown, ArgError, Flags};

/// A `--policy` family: its name, and which perturbed schedule
/// policies its row runs besides the FIFO slots (the reference and the
/// writer-priority admission slot) that every row keeps.
pub type Family = (&'static str, fn(&SchedPolicy) -> bool);

/// Every family. Without `--policy` the report has one row for each of
/// the first four.
pub const FAMILIES: [Family; 5] = [
    ("lifo", |p| matches!(p, SchedPolicy::Lifo)),
    ("random", |p| matches!(p, SchedPolicy::Random { .. })),
    ("wake-delay", |p| matches!(p, SchedPolicy::WakeDelay { .. })),
    ("all", |_| true),
    ("fifo", |_| false),
];

/// `xp sched-fuzz` parameters: the corpus `start..start + seeds` and
/// the families, one report row each.
#[derive(Clone, Debug)]
pub struct Params {
    pub seeds: u64,
    pub start: u64,
    pub families: Vec<Family>,
}

impl Flags for Params {
    /// Quick keeps CI smoke cheap; full is the 256-seed acceptance
    /// corpus. One row per perturbation family plus the combined roster.
    fn at(scale: &Scale) -> Self {
        Params {
            seeds: if scale.ops_per_proc >= 60 { 256 } else { 64 },
            start: 0,
            families: FAMILIES[..4].to_vec(),
        }
    }

    fn set(&mut self, flag: &str, value: &str) -> Result<(), ArgError> {
        match flag {
            "--seeds" => self.seeds = num(flag, value)?,
            "--start" => self.start = num(flag, value)?,
            "--policy" => self.families = vec![pick(flag, value, &FAMILIES.map(|f| (f.0, f)))?],
            _ => return Err(unknown(flag)),
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), String> {
        positive(&[("--seeds", self.seeds)])?;
        self.start
            .checked_add(self.seeds)
            .map(|_| ())
            .ok_or_else(|| "--start + --seeds overflows u64".into())
    }
}

/// Seeds per work item: each family's corpus is cut into chunks that
/// run on all cores, so a single-family run is as parallel as four.
const SEEDS_PER_CHUNK: u64 = 16;

/// Runs every family over the corpus and reports one row each.
/// Divergences are report failures, in seed order per family.
pub fn run(p: &Params) -> Report {
    let end = p.start + p.seeds;
    let mut work = Vec::new();
    for (i, family) in p.families.iter().enumerate() {
        for lo in (p.start..end).step_by(SEEDS_PER_CHUNK as usize) {
            work.push((i, family.1, lo..lo.saturating_add(SEEDS_PER_CHUNK).min(end)));
        }
    }
    let chunks = parallel_map(work, |(i, select, seeds)| {
        (*i, fuzz_corpus(seeds.clone(), select))
    });
    let mut results: Vec<FuzzReport> = p.families.iter().map(|_| FuzzReport::default()).collect();
    for (i, chunk) in chunks {
        let r = &mut results[i];
        r.seeds_run += chunk.seeds_run;
        r.failures.extend(chunk.failures);
    }

    let mut rep = Report::new(
        "sched-fuzz",
        "Extension: differential schedule-perturbation fuzzing of the kernel executor",
        &["policies", "seeds", "divergences", "first_failure"],
    );
    let mut rows = Vec::new();
    for (family, r) in p.families.iter().zip(&results) {
        let first = r
            .failures
            .first()
            .map(|f| f.repro())
            .unwrap_or_else(|| "-".into());
        rep.row(vec![
            family.0.to_string(),
            r.seeds_run.to_string(),
            r.failures.len().to_string(),
            first,
        ]);
        for f in &r.failures {
            rep.fail(format!(
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
        rows.push(format!(
            "{{\"policies\": \"{}\", \"seeds\": {}, \"divergences\": {}}}",
            family.0,
            r.seeds_run,
            r.failures.len()
        ));
    }
    let json = json_object(
        0,
        &[
            ("experiment", quoted("sched-fuzz")),
            ("corpus", quoted(&format!("seeds {}..{end}", p.start))),
            ("rows", json_array(1, &rows)),
        ],
    );
    rep.note(format!(
        "fixed corpus seeds {}..{end}; FIFO is the reference in every row and \
         every row also runs the writer-priority admission slot; divergence \
         = per-event outcome, final pool state, byte conservation or \
         quiescence differing from FIFO",
        p.start
    ));
    rep.artifact("BENCH_sched_fuzz.json", json + "\n");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::parse;
    use daosim_cluster::fuzz::{generate_program, FuzzFailure};
    use daosim_kernel::AdmissionPolicy;

    fn parsed(argv: &[&str]) -> Result<Params, ArgError> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        parse(&Scale::full(), &argv)
    }

    #[test]
    fn quick_corpus_reports_every_family_clean() {
        let rep = run(&Params::at(&Scale::quick()));
        assert_eq!(rep.rows().len(), 4);
        for row in rep.rows() {
            assert_eq!(row[2], "0", "family {} diverged: {}", row[0], row[3]);
        }
        assert!(rep.failures().is_empty());
    }

    #[test]
    fn chunked_corpus_matches_one_pass() {
        // The chunks straddle boundaries a single pass does not have.
        let p = parsed(&["--seeds", "19", "--start", "5", "--policy", "lifo"]).unwrap();
        let rep = run(&p);
        let whole = fuzz_corpus(5..24, FAMILIES[0].1);
        assert_eq!(rep.rows()[0][1], whole.seeds_run.to_string());
        assert_eq!(rep.rows()[0][2], whole.failures.len().to_string());
        assert!(rep.render().contains("seeds 5..24"));
    }

    #[test]
    fn repro_argv_parses_back_to_its_seed_and_policy() {
        let failure = FuzzFailure {
            seed: 1234,
            policy: SchedPolicy::Lifo,
            admission: AdmissionPolicy::Fifo,
            detail: "synthetic".into(),
            minimized: generate_program(1234),
        };
        let repro = failure.repro();
        let argv: Vec<&str> = repro
            .split('#')
            .next()
            .unwrap()
            .split_whitespace()
            .collect();
        assert_eq!(argv[..2], ["xp", "sched-fuzz"]);
        let p = parsed(&argv[2..]).unwrap();
        assert_eq!((p.start, p.seeds, p.families.len()), (1234, 1, 1));
        assert_eq!(p.families[0].0, "all");
    }

    #[test]
    fn policy_selector_names_every_family() {
        for (name, _) in FAMILIES {
            assert_eq!(parsed(&["--policy", name]).unwrap().families[0].0, name);
        }
        assert!(matches!(
            parsed(&["--policy", "sideways"]),
            Err(ArgError::Usage(_))
        ));
    }
}
