//! The operational NWP contention cycle: mixed writer/reader fleets
//! under shared-index vs index-per-process layouts and FIFO vs
//! writer-priority admission, with an optional fault campaign on top.
//!
//! Reproduces the central comparison of "Reducing the Impact of I/O
//! Contention in NWP Workflows at Scale Using DAOS" (arXiv 2404.03107):
//! deadline-carrying model writers stream fields every step while a
//! larger product-generation reader fleet fetches the previous step's
//! fields from the same pool. The report compares writer/reader p99 op
//! latency, missed-deadline counts and target-queue backlog depth
//! across the two index layouts and the two admission policies, clean
//! and under a seeded fault campaign; `BENCH_nwp_cycle.json` carries
//! the full rows including the backlog time series, plus an
//! `enforcement` block quantifying what writer-priority admission buys
//! the saturated shared-index cycle (and what the readers pay).
//! Everything is sim-derived and seed-fixed, so reruns are
//! byte-identical. `xp nwp-cycle` flags override the cycle shape and
//! narrow the three axes ([`Params`]).

use std::fmt::Write as _;

use daosim_cluster::{ClusterSpec, FaultPlan, RetryPolicy};
use daosim_core::cycle::{run_nwp_cycle, CycleConfig, CycleOutcome, IndexLayout};
use daosim_kernel::{AdmissionPolicy, SimDuration};

use crate::harness::{json_array, json_object, parallel_map, quoted, Report, Scale};
use crate::params::{num, one_or_both, scaled, unknown, ArgError, Flags};

/// The experiment's deployment: one dual-engine server node, clients on
/// two nodes — small enough for CI, contended enough to separate the
/// layouts.
fn spec(faults: bool) -> ClusterSpec {
    let mut spec = ClusterSpec::tcp(1, 2);
    if faults {
        spec.retry = RetryPolicy::builder().operational().build();
    }
    spec
}

/// Cycle shape at `scale`, shared by `nwp-cycle` and `tiering` (each
/// row sets its own layout and admission). Both shapes are
/// *reader-saturated*: the writer fleet alone fits comfortably inside
/// the step interval, but the much larger reader fleet waking at every
/// step boundary floods the service queues — so under FIFO admission
/// writer completions queue behind reader ops and blow the deadline, and
/// the admission policy (not raw bandwidth) decides the writer tail. The
/// full shape doubles the fleet and adds a step so the separation is
/// unmistakable.
pub(crate) fn cycle_at(scale: &Scale) -> CycleConfig {
    let full = scale.ops_per_proc >= 30;
    CycleConfig {
        writers: if full { 8 } else { 6 },
        readers: if full { 48 } else { 32 },
        steps: if full { 4 } else { 3 },
        fields_per_step: if full { 4 } else { 3 },
        field_bytes: 512 * 1024,
        step_interval: SimDuration::from_millis(if full { 25 } else { 16 }),
        write_window: if full { 8 } else { 4 },
        read_window: 8,
        reads_per_step: 8,
        ..CycleConfig::small(IndexLayout::Shared)
    }
}

/// Applies one cycle-shape flag. The pipeline windows and reads per step
/// have no flag and stay as committed.
pub(crate) fn set_cycle(cfg: &mut CycleConfig, flag: &str, value: &str) -> Result<(), ArgError> {
    match flag {
        "--writers" => cfg.writers = num(flag, value)?,
        "--readers" => cfg.readers = num(flag, value)?,
        "--steps" => cfg.steps = num(flag, value)?,
        "--fields" => cfg.fields_per_step = num(flag, value)?,
        "--kib" => cfg.field_bytes = scaled(flag, value, 1024)?,
        "--interval-ms" => {
            cfg.step_interval = SimDuration::from_nanos(scaled(flag, value, 1_000_000)?)
        }
        "--seed" => cfg.seed = num(flag, value)?,
        _ => return Err(unknown(flag)),
    }
    Ok(())
}

/// Rejects zero shapes, naming the field, and cycles whose span (with
/// the tiering grid's 4x aggregation horizon) overflows the clock.
pub(crate) fn validate_cycle(cfg: &CycleConfig) -> Result<(), String> {
    cfg.validate().map_err(|e| e.to_string())?;
    match cfg
        .step_interval
        .as_nanos()
        .checked_mul((cfg.steps as u64 + 1) * 4)
    {
        Some(_) => Ok(()),
        None => Err("--interval-ms x --steps overflows the simulated clock".into()),
    }
}

/// `xp nwp-cycle` parameters: the cycle shape plus the three axes the
/// report crosses, each one value or `both`.
#[derive(Clone, Debug)]
pub struct Params {
    pub cycle: CycleConfig,
    /// `--layout shared|per-process|both`.
    pub layouts: Vec<IndexLayout>,
    /// `--admission fifo|writer-priority|both`.
    pub admissions: Vec<AdmissionPolicy>,
    /// `--faults off|on|both`.
    pub faults: Vec<bool>,
}

impl Flags for Params {
    fn at(scale: &Scale) -> Self {
        Params {
            cycle: cycle_at(scale),
            layouts: IndexLayout::all().to_vec(),
            admissions: vec![AdmissionPolicy::Fifo, AdmissionPolicy::writer_priority()],
            faults: vec![false, true],
        }
    }

    fn set(&mut self, flag: &str, value: &str) -> Result<(), ArgError> {
        use IndexLayout::{PerProcess, Shared};
        let admissions = [AdmissionPolicy::Fifo, AdmissionPolicy::writer_priority()];
        match flag {
            "--layout" => {
                self.layouts = one_or_both(
                    flag,
                    value,
                    &[("shared", Shared), ("per-process", PerProcess)],
                )?
            }
            "--admission" => {
                self.admissions = one_or_both(flag, value, &admissions.map(|a| (a.name(), a)))?
            }
            "--faults" => self.faults = one_or_both(flag, value, &[("off", false), ("on", true)])?,
            _ => set_cycle(&mut self.cycle, flag, value)?,
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), String> {
        validate_cycle(&self.cycle)
    }
}

/// The optional contention + failure axis: a seeded random campaign over
/// the first half of the cycle.
fn campaign(cfg: &CycleConfig, engines: u32) -> FaultPlan {
    let horizon = SimDuration::from_nanos(cfg.step_interval.as_nanos() * cfg.steps as u64 / 2);
    FaultPlan::random_campaign(11, engines, horizon)
}

/// A latency summary's (p50, p99) in µs, zeros when nothing completed.
pub(crate) fn p50_p99(lat: &Option<daosim_core::metrics::LatencyStats>) -> (f64, f64) {
    lat.as_ref().map_or((0.0, 0.0), |l| (l.p50_us, l.p99_us))
}

/// One configuration of the three-way axis, in row order.
type Config = (IndexLayout, AdmissionPolicy, bool);

/// Runs every selected configuration (layouts × admission × faults,
/// layout-major) and renders the report plus the
/// `BENCH_nwp_cycle.json` artifact. The crossover and enforcement
/// blocks appear when the rows they compare were run.
pub fn run(p: &Params) -> Report {
    let mut configs: Vec<Config> = Vec::new();
    for &layout in &p.layouts {
        for &admission in &p.admissions {
            for &faults in &p.faults {
                configs.push((layout, admission, faults));
            }
        }
    }
    let results: Vec<(Config, CycleOutcome)> = parallel_map(configs, |&(layout, adm, faults)| {
        let spec = spec(faults);
        let cfg = CycleConfig {
            layout,
            admission: adm,
            ..p.cycle
        };
        let plan = faults.then(|| campaign(&cfg, spec.engines()));
        let out = run_nwp_cycle(spec, &cfg, plan.as_ref()).expect("valid cycle config");
        ((layout, adm, faults), out)
    });
    let clean = |layout: IndexLayout, adm: AdmissionPolicy| {
        results
            .iter()
            .find(|(c, _)| *c == (layout, adm, false))
            .map(|(_, out)| out)
    };

    let cfg = &p.cycle;
    let mut rep = Report::new(
        "nwp-cycle",
        "Extension: operational NWP cycle — writer deadlines vs reader fleet, shared vs split index, FIFO vs writer-priority admission",
        &[
            "layout",
            "admission",
            "faults",
            "writer_p99_us",
            "reader_p99_us",
            "missed_deadlines",
            "aged_grants",
            "backlog_peak",
            "failed_reads",
            "secs",
        ],
    );
    let mut rows = Vec::new();
    for ((_, adm, faults), out) in &results {
        let (wp50, wp99) = p50_p99(&out.writer_lat);
        let (rp50, rp99) = p50_p99(&out.reader_lat);
        rep.row(vec![
            out.layout.name().to_string(),
            adm.name().to_string(),
            faults.to_string(),
            format!("{wp99:.1}"),
            format!("{rp99:.1}"),
            out.deadlines_missed.to_string(),
            out.aged_grants.to_string(),
            out.backlog_peak.to_string(),
            out.resilience.failed_reads.to_string(),
            format!("{:.4}", out.end_secs),
        ]);
        let series: Vec<String> = out
            .backlog_series
            .iter()
            .map(|(t, d)| format!("[{t}, {d}]"))
            .collect();
        let r = &out.resilience;
        rows.push(json_object(
            2,
            &[
                ("layout", quoted(out.layout.name())),
                ("admission", quoted(adm.name())),
                ("faults", faults.to_string()),
                ("end_secs", out.end_secs.to_string()),
                ("writer_p50_us", wp50.to_string()),
                ("writer_p99_us", wp99.to_string()),
                ("reader_p50_us", rp50.to_string()),
                ("reader_p99_us", rp99.to_string()),
                ("writer_class_p99_us", out.writer_p99_us.to_string()),
                ("reader_class_p99_us", out.reader_p99_us.to_string()),
                ("deadlines_met", out.deadlines_met.to_string()),
                ("deadlines_missed", out.deadlines_missed.to_string()),
                ("worst_lateness_ms", out.worst_lateness_ms.to_string()),
                ("aged_grants", out.aged_grants.to_string()),
                ("backlog_peak", out.backlog_peak.to_string()),
                ("backlog_series", format!("[{}]", series.join(", "))),
                ("fields_written", out.fields_written.to_string()),
                ("fields_read", out.fields_read.to_string()),
                ("failed_writes", r.failed_writes.to_string()),
                ("failed_reads", r.failed_reads.to_string()),
                ("retries", r.retries.to_string()),
            ],
        ));
    }
    let mut fields = vec![
        ("experiment", quoted("nwp-cycle")),
        ("cluster", quoted("tcp(server_nodes=1, client_nodes=2)")),
        ("writers", cfg.writers.to_string()),
        ("readers", cfg.readers.to_string()),
        ("steps", cfg.steps.to_string()),
        ("fields_per_step", cfg.fields_per_step.to_string()),
        ("field_bytes", cfg.field_bytes.to_string()),
        (
            "step_interval_ms",
            (cfg.step_interval.as_nanos() / 1_000_000).to_string(),
        ),
        ("rows", json_array(1, &rows)),
    ];

    let mut note = format!(
        "{} writers ({} steps x {} fields, deadline = step interval) vs {} readers x {} reads/step",
        cfg.writers, cfg.steps, cfg.fields_per_step, cfg.readers, cfg.reads_per_step,
    );
    // The crossover figure: shared-index cost relative to split, clean,
    // both under FIFO admission.
    if let (Some(shared), Some(split)) = (
        clean(IndexLayout::Shared, AdmissionPolicy::Fifo),
        clean(IndexLayout::PerProcess, AdmissionPolicy::Fifo),
    ) {
        let end_ratio = shared.end_secs / split.end_secs;
        let (_, shared_p99) = p50_p99(&shared.writer_lat);
        let (_, split_p99) = p50_p99(&split.writer_lat);
        let p99_ratio = if split_p99 > 0.0 {
            shared_p99 / split_p99
        } else {
            0.0
        };
        let crossover = [
            ("shared_over_split_end_ratio", end_ratio.to_string()),
            ("shared_over_split_writer_p99_ratio", p99_ratio.to_string()),
        ];
        fields.push(("crossover", json_object(1, &crossover)));
        let _ = write!(
            note,
            "; shared index is {end_ratio:.2}x split on cycle end, {p99_ratio:.2}x on writer p99"
        );
    }

    // The enforcement figure: what writer-priority admission buys the
    // saturated shared-index cycle (fifo vs writer-priority, both clean)
    // — and what the readers pay for it. Readers must still complete
    // every op: barging degrades them, never starves them.
    if let (Some(fifo), Some(prio)) = (
        clean(IndexLayout::Shared, AdmissionPolicy::Fifo),
        clean(IndexLayout::Shared, AdmissionPolicy::writer_priority()),
    ) {
        let reader_ops = cfg.readers as u64 * cfg.steps as u64 * cfg.reads_per_step as u64;
        let resolved = prio.fields_read + prio.resilience.failed_reads;
        let enforcement = [
            ("layout", quoted(fifo.layout.name())),
            ("writer_class_p99_us_fifo", fifo.writer_p99_us.to_string()),
            (
                "writer_class_p99_us_writer_priority",
                prio.writer_p99_us.to_string(),
            ),
            ("deadlines_missed_fifo", fifo.deadlines_missed.to_string()),
            (
                "deadlines_missed_writer_priority",
                prio.deadlines_missed.to_string(),
            ),
            ("reader_class_p99_us_fifo", fifo.reader_p99_us.to_string()),
            (
                "reader_class_p99_us_writer_priority",
                prio.reader_p99_us.to_string(),
            ),
            ("aged_grants", prio.aged_grants.to_string()),
            ("reader_ops_expected", reader_ops.to_string()),
            ("reader_ops_resolved", resolved.to_string()),
        ];
        fields.push(("enforcement", json_object(1, &enforcement)));
        let _ = write!(
            note,
            "; writer-priority admission on shared/clean: writer p99 {:.0} -> {:.0} us, \
             deadlines missed {} -> {}",
            fifo.writer_p99_us, prio.writer_p99_us, fifo.deadlines_missed, prio.deadlines_missed
        );
    }

    rep.note(note);
    rep.artifact("BENCH_nwp_cycle.json", json_object(0, &fields) + "\n");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_every_layout_admission_fault_combination() {
        let rep = run(&Params::at(&Scale::quick()));
        assert_eq!(rep.rows().len(), 8, "2 layouts x 2 admissions x faults");
        assert_eq!(rep.artifacts().len(), 1);
        assert_eq!(rep.artifacts()[0].0, "BENCH_nwp_cycle.json");
        // Clean shared-index must never beat split on cycle end time
        // (FIFO admission rows 0 and 4).
        let secs: Vec<f64> = rep.rows().iter().map(|r| r[9].parse().unwrap()).collect();
        assert!(
            secs[0] >= secs[4],
            "shared {} vs split {}",
            secs[0],
            secs[4]
        );
    }

    #[test]
    fn writer_priority_improves_saturated_shared_writers() {
        // The tentpole claim: on the saturated shared-index cycle,
        // writer-priority admission improves the writer class p99 and
        // misses no more deadlines than FIFO, while every reader op
        // still resolves (degraded, not starved).
        let rep = run(&Params::at(&Scale::quick()));
        let rows = rep.rows();
        let (fifo, prio) = (&rows[0], &rows[2]);
        assert_eq!(fifo[0], "shared-index");
        assert_eq!(fifo[1], "fifo");
        assert_eq!(prio[1], "writer-priority");
        let (fifo_p99, prio_p99): (f64, f64) = (fifo[3].parse().unwrap(), prio[3].parse().unwrap());
        assert!(
            prio_p99 < fifo_p99,
            "writer p99 must improve: fifo {fifo_p99} vs prio {prio_p99}"
        );
        let (fifo_missed, prio_missed): (u64, u64) =
            (fifo[5].parse().unwrap(), prio[5].parse().unwrap());
        assert!(
            prio_missed <= fifo_missed,
            "deadlines: fifo {fifo_missed} vs prio {prio_missed}"
        );
        // Readers degrade but finish: no starved (unresolved) reader op.
        let artifact = &rep.artifacts()[0].1;
        assert!(artifact.contains("\"reader_ops_resolved\""));
        let expected = artifact
            .lines()
            .find(|l| l.contains("reader_ops_expected"))
            .unwrap();
        let resolved = artifact
            .lines()
            .find(|l| l.contains("reader_ops_resolved"))
            .unwrap();
        let num = |l: &str| -> u64 {
            l.trim()
                .trim_end_matches(',')
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(num(expected), num(resolved), "a reader op never resolved");
    }

    #[test]
    fn cycle_experiment_is_deterministic() {
        let a = run(&Params::at(&Scale::quick()));
        let b = run(&Params::at(&Scale::quick()));
        assert_eq!(a.render(), b.render());
        assert_eq!(a.artifacts(), b.artifacts());
    }
}
