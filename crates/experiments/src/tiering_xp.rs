//! Two-tier media under the saturated NWP cycle: SCM-only vs SCM+NVMe,
//! with the background aggregation service on and off.
//!
//! The paper's NEXTGenIO testbed is SCM-only, but production DAOS pairs
//! the persistent-memory write buffer with an NVMe capacity tier and a
//! per-target aggregation service that migrates cold extents down once
//! the buffer fills past a watermark (DESIGN.md §14). This experiment
//! reruns the saturated shared-index `nwp-cycle` workload over the
//! {scm-only, tiered} × {aggregation on, off} grid with the write
//! buffer shrunk far below the cycle's foreground volume, so the tier
//! split actually engages: spill writes pay NVMe media time, reads pay
//! the occupancy-weighted NVMe mixture, and with aggregation on the
//! migration traffic contends with foreground I/O on the same target
//! service queues — the *aggregation-induced tail inflation* the
//! artifact quantifies. Everything is sim-derived and seed-fixed, so
//! reruns are byte-identical. `xp tiering` flags override the cycle
//! shape and the tiered rows' media ([`Params`]).

use daosim_cluster::{AggregationConfig, ClusterSpec, NvmeSpec, ScmSpec, TierPolicy};
use daosim_core::cycle::{run_nwp_cycle, CycleConfig, CycleOutcome, IndexLayout};
use daosim_kernel::{AdmissionPolicy, SimDuration};

use crate::harness::{json_array, json_object, parallel_map, quoted, Report, Scale};
use crate::nwp_cycle_xp::{cycle_at, p50_p99, set_cycle, validate_cycle};
use crate::params::{positive, scaled, ArgError, Flags};

const MIB: u64 = 1024 * 1024;

/// `xp tiering` parameters: the saturated shared-index cycle shape of
/// `nwp-cycle` plus the tiered rows' media knobs.
#[derive(Clone, Debug)]
pub struct Params {
    /// The cycle shape; every row runs it shared-index under FIFO.
    pub cycle: CycleConfig,
    /// Per-socket SCM budget for the tiered rows (`--scm-mib`). 12 MiB
    /// per socket = 1 MiB per target (12 targets/engine), far below the
    /// cycle's foreground volume so the write buffer fills and the
    /// watermark machinery runs.
    pub scm_per_socket: u64,
    /// Placement threshold for the tiered rows (`--threshold-kib`): at
    /// 1 MiB every cycle shard prefers the write buffer (production
    /// small-I/O behaviour); NVMe fills by spill and by aggregation, not
    /// by direct placement.
    pub scm_threshold: u64,
}

impl Flags for Params {
    fn at(scale: &Scale) -> Self {
        Params {
            cycle: cycle_at(scale),
            scm_per_socket: 12 * MIB,
            scm_threshold: MIB,
        }
    }

    fn set(&mut self, flag: &str, value: &str) -> Result<(), ArgError> {
        match flag {
            "--scm-mib" => self.scm_per_socket = scaled(flag, value, MIB)?,
            "--threshold-kib" => self.scm_threshold = scaled(flag, value, 1024)?,
            _ => set_cycle(&mut self.cycle, flag, value)?,
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), String> {
        validate_cycle(&self.cycle)?;
        positive(&[
            ("--scm-mib", self.scm_per_socket),
            ("--threshold-kib", self.scm_threshold),
        ])
    }
}

/// The experiment's deployment — same one-server/two-client-node shape
/// as `nwp-cycle`; the tiered rows swap the media configuration only.
fn spec(p: &Params, tiered: bool) -> ClusterSpec {
    let mut spec = ClusterSpec::tcp(1, 2);
    if tiered {
        spec.calibration.scm = ScmSpec {
            capacity: p.scm_per_socket,
            ..spec.calibration.scm
        };
        // Aggressive watermarks: a single 512 KiB field parks a target
        // slice at 50% occupancy — under the default 75% high mark the
        // service would never activate while every further write
        // spills. 30%/10% makes any resident field eligible for
        // migration, which is the regime the experiment measures.
        spec.tiering = TierPolicy {
            nvme: Some(NvmeSpec::p4510_gen1()),
            scm_threshold: p.scm_threshold,
            high_watermark: 0.30,
            low_watermark: 0.10,
        };
    }
    spec
}

/// The saturated shared-index cycle (FIFO admission), with the
/// aggregation service optionally enabled. The cycle is backlogged — it
/// finishes steps well past the nominal `steps × interval` — so the
/// aggregation horizon runs 4× that span: the service must outlive the
/// congested tail of the workload, where most writes are actually
/// serviced (and most SCM fills happen), and still leave the simulation
/// quiescent-terminating. Aggregation-on rows therefore report
/// `end_secs` = the horizon when it exceeds the workload's own end.
fn cycle_config(p: &Params, aggregation: bool) -> CycleConfig {
    let cfg = p.cycle;
    let horizon =
        SimDuration::from_nanos(cfg.step_interval.as_nanos() * (cfg.steps as u64 + 1) * 4);
    CycleConfig {
        layout: IndexLayout::Shared,
        admission: AdmissionPolicy::Fifo,
        aggregation: aggregation.then(|| AggregationConfig::operational(horizon, 0xA66)),
        ..cfg
    }
}

/// One grid point: `(tiered media, aggregation service on)`.
type Config = (bool, bool);

fn configs() -> Vec<Config> {
    vec![(false, false), (false, true), (true, false), (true, true)]
}

fn media_name(tiered: bool) -> &'static str {
    if tiered {
        "tiered"
    } else {
        "scm-only"
    }
}

/// Runs the four grid points and renders the report plus the
/// `BENCH_tiering.json` artifact.
pub fn run(p: &Params) -> Report {
    let results: Vec<(Config, CycleOutcome)> = parallel_map(configs(), |&(tiered, agg)| {
        let cfg = cycle_config(p, agg);
        let out = run_nwp_cycle(spec(p, tiered), &cfg, None).expect("valid cycle config");
        ((tiered, agg), out)
    });

    let cfg = cycle_config(p, false);
    let mut rep = Report::new(
        "tiering",
        "Extension: two-tier SCM+NVMe media — write-buffer spill and background aggregation under the saturated shared-index cycle",
        &[
            "media",
            "aggregation",
            "writer_p99_us",
            "reader_p99_us",
            "missed_deadlines",
            "scm_used_mib",
            "nvme_used_mib",
            "aggregated_mib",
            "secs",
        ],
    );
    let mut rows = Vec::new();
    for ((tiered, agg), out) in &results {
        let (wp50, wp99) = p50_p99(&out.writer_lat);
        let (rp50, rp99) = p50_p99(&out.reader_lat);
        rep.row(vec![
            media_name(*tiered).to_string(),
            agg.to_string(),
            format!("{wp99:.1}"),
            format!("{rp99:.1}"),
            out.deadlines_missed.to_string(),
            format!("{:.2}", out.scm_used as f64 / MIB as f64),
            format!("{:.2}", out.nvme_used as f64 / MIB as f64),
            format!("{:.2}", out.aggregated_bytes as f64 / MIB as f64),
            format!("{:.4}", out.end_secs),
        ]);
        rows.push(json_object(
            2,
            &[
                ("media", quoted(media_name(*tiered))),
                ("aggregation", agg.to_string()),
                ("end_secs", out.end_secs.to_string()),
                ("writer_p50_us", wp50.to_string()),
                ("writer_p99_us", wp99.to_string()),
                ("reader_p50_us", rp50.to_string()),
                ("reader_p99_us", rp99.to_string()),
                ("writer_class_p99_us", out.writer_p99_us.to_string()),
                ("reader_class_p99_us", out.reader_p99_us.to_string()),
                ("deadlines_met", out.deadlines_met.to_string()),
                ("deadlines_missed", out.deadlines_missed.to_string()),
                ("backlog_peak", out.backlog_peak.to_string()),
                ("scm_used", out.scm_used.to_string()),
                ("nvme_used", out.nvme_used.to_string()),
                ("aggregated_bytes", out.aggregated_bytes.to_string()),
                ("fields_written", out.fields_written.to_string()),
                ("fields_read", out.fields_read.to_string()),
                ("failed_writes", out.resilience.failed_writes.to_string()),
                ("failed_reads", out.resilience.failed_reads.to_string()),
            ],
        ));
    }

    // The headline figures. Tier cost: tiered/agg-off vs scm-only (both
    // clean FIFO) — what the shrunken write buffer plus NVMe spill does
    // to the writer tail. Aggregation tail inflation: tiered/agg-on vs
    // tiered/agg-off — what the migration traffic's service-queue grants
    // add on top.
    let scm_only = &results[0].1;
    let agg_off = &results[2].1;
    let agg_on = &results[3].1;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (_, scm_wp99) = p50_p99(&scm_only.writer_lat);
    let (_, off_wp99) = p50_p99(&agg_off.writer_lat);
    let (_, on_wp99) = p50_p99(&agg_on.writer_lat);
    let (_, off_rp99) = p50_p99(&agg_off.reader_lat);
    let (_, on_rp99) = p50_p99(&agg_on.reader_lat);
    let tier_cost = ratio(off_wp99, scm_wp99);
    let w_inflation = ratio(on_wp99, off_wp99);
    let r_inflation = ratio(on_rp99, off_rp99);
    let tail = [
        ("tiered_over_scm_writer_p99_ratio", tier_cost.to_string()),
        ("agg_on_over_off_writer_p99_ratio", w_inflation.to_string()),
        ("agg_on_over_off_reader_p99_ratio", r_inflation.to_string()),
        ("aggregated_bytes", agg_on.aggregated_bytes.to_string()),
        ("scm_used_agg_on", agg_on.scm_used.to_string()),
        ("scm_used_agg_off", agg_off.scm_used.to_string()),
    ];
    let json = json_object(
        0,
        &[
            ("experiment", quoted("tiering")),
            ("cluster", quoted("tcp(server_nodes=1, client_nodes=2)")),
            ("layout", quoted("shared-index")),
            ("admission", quoted("fifo")),
            ("writers", cfg.writers.to_string()),
            ("readers", cfg.readers.to_string()),
            ("steps", cfg.steps.to_string()),
            ("fields_per_step", cfg.fields_per_step.to_string()),
            ("field_bytes", cfg.field_bytes.to_string()),
            (
                "step_interval_ms",
                (cfg.step_interval.as_nanos() / 1_000_000).to_string(),
            ),
            ("tiered_scm_per_socket", p.scm_per_socket.to_string()),
            ("tiered_scm_threshold", p.scm_threshold.to_string()),
            ("rows", json_array(1, &rows)),
            ("aggregation_tail", json_object(1, &tail)),
        ],
    );

    rep.note(format!(
        "{} writers x {} steps x {} fields ({} KiB) vs {} readers on a {} MiB/socket write buffer; \
         tiered/agg-off writer p99 is {tier_cost:.2}x scm-only; aggregation migrates {:.2} MiB \
         and inflates writer p99 {w_inflation:.2}x, reader p99 {r_inflation:.2}x over agg-off",
        cfg.writers,
        cfg.steps,
        cfg.fields_per_step,
        cfg.field_bytes / 1024,
        cfg.readers,
        p.scm_per_socket / MIB,
        agg_on.aggregated_bytes as f64 / MIB as f64,
    ));
    rep.artifact("BENCH_tiering.json", json + "\n");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_media_by_aggregation_grid() {
        let rep = run(&Params::at(&Scale::quick()));
        assert_eq!(rep.rows().len(), 4, "2 media x aggregation on/off");
        assert_eq!(rep.artifacts().len(), 1);
        assert_eq!(rep.artifacts()[0].0, "BENCH_tiering.json");
        // scm-only rows must never touch the capacity tier; the
        // aggregation service without an NVMe tier is inert.
        for row in &rep.rows()[..2] {
            assert_eq!(row[0], "scm-only");
            assert_eq!(row[6], "0.00", "scm-only row used NVMe: {row:?}");
            assert_eq!(row[7], "0.00", "scm-only row aggregated: {row:?}");
        }
    }

    #[test]
    fn tiered_rows_spill_and_aggregation_migrates() {
        let rep = run(&Params::at(&Scale::quick()));
        let rows = rep.rows();
        let mib = |s: &str| s.parse::<f64>().unwrap();
        // The write buffer is sized far below the cycle's foreground
        // volume: both tiered rows must land bytes on NVMe.
        assert!(mib(&rows[2][6]) > 0.0, "agg-off spilled nothing: {rows:?}");
        assert!(mib(&rows[3][6]) > 0.0, "agg-on spilled nothing: {rows:?}");
        // With the service off nothing migrates; on, it must move real
        // bytes and leave SCM no fuller than the agg-off run.
        assert_eq!(mib(&rows[2][7]), 0.0);
        assert!(mib(&rows[3][7]) > 0.0, "aggregation never ran: {rows:?}");
        assert!(
            mib(&rows[3][5]) <= mib(&rows[2][5]),
            "aggregation must drain the write buffer: {rows:?}"
        );
    }

    #[test]
    fn tiering_experiment_is_deterministic() {
        let a = run(&Params::at(&Scale::quick()));
        let b = run(&Params::at(&Scale::quick()));
        assert_eq!(a.render(), b.render());
        assert_eq!(a.artifacts(), b.artifacts());
    }
}
