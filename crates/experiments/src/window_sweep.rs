//! Beyond-paper extension: the in-flight window ablation for pipelined
//! field writes.
//!
//! The paper's FDB backend issues field writes synchronously; the DAOS
//! event-queue API (`daos_eq_*`) makes asynchronous pipelining natural.
//! This experiment sweeps the writer's in-flight window W over the same
//! workload and reports the achieved write throughput, isolating what
//! overlapping the index KV put with the array data write (and keeping W
//! fields in flight) buys on the default simulated deployment.
//!
//! Unlike the paper-replication experiments, *every* point here — W = 1
//! included — goes through [`FieldStore::pipelined_writer`], so the sweep
//! measures the window alone, not the writer implementation.

use std::rc::Rc;

use daosim_cluster::{ClusterSpec, Deployment, SimClient};
use daosim_core::fieldio::{FieldIoConfig, FieldStore};
use daosim_core::key::FieldKey;
use daosim_core::workload::payload;
use daosim_kernel::Sim;
use daosim_net::GIB;

use crate::harness::{gib, json_array, json_object, parallel_map, quoted, Report, Scale};

const MIB: u64 = 1024 * 1024;

/// Windows swept; W = 1 is the synchronous baseline.
pub const WINDOWS: [u32; 5] = [1, 2, 4, 8, 16];

fn field_key(proc_id: u32, op: u32) -> FieldKey {
    FieldKey::from_pairs([
        ("class", "od".to_string()),
        ("stream", "oper".to_string()),
        ("expver", "0001".to_string()),
        ("date", "20290101".to_string()),
        ("time", "0000".to_string()),
        ("number", proc_id.to_string()),
        ("step", (op / 8).to_string()),
        ("field", (op % 8).to_string()),
    ])
}

/// One sweep point: `procs` writers, each pushing `fields` payloads of
/// `field_bytes` through a pipelined writer with window `w`. Returns
/// (simulated seconds, aggregate GiB/s).
fn run_window(w: u32, procs: u32, fields: u32, field_bytes: u64) -> (f64, f64) {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 2));
    let data = payload(field_bytes, 17);
    for p in 0..procs {
        let (d, data) = (Rc::clone(&d), data.clone());
        sim.spawn(async move {
            let client = SimClient::for_process(&d, (p % 2) as u16, p / 2);
            let fs = FieldStore::connect(client, FieldIoConfig::default(), p + 1)
                .await
                .expect("connect failed");
            let mut writer = fs.pipelined_writer(w);
            for op in 0..fields {
                writer
                    .submit(&field_key(p, op), data.clone())
                    .await
                    .expect("write failed");
            }
            writer.flush().await.expect("flush failed");
        });
    }
    let end = sim.run().expect_quiescent().as_secs_f64();
    let total = procs as u64 * fields as u64 * field_bytes;
    (end, total as f64 / GIB / end)
}

/// Runs the window sweep and renders the report plus the
/// `BENCH_pipeline.json` artifact (attached to the report, saved next to
/// its CSV). All numbers are sim-derived, so reruns are byte-identical.
pub fn window_sweep(scale: &Scale) -> Report {
    let procs = 2u32;
    let fields = scale.ops_per_proc.max(8) * 2;
    let field_bytes = MIB;
    let results = parallel_map(WINDOWS.to_vec(), |&w| {
        let (secs, gib_s) = run_window(w, procs, fields, field_bytes);
        (w, secs, gib_s)
    });
    let base = results[0].2;
    let mut rep = Report::new(
        "pipeline-window",
        "Extension: pipelined field-write throughput vs in-flight window W",
        &["window", "write_GiB/s", "speedup_vs_W1", "secs"],
    );
    let mut rows = Vec::new();
    for (w, secs, gib_s) in &results {
        let speedup = gib_s / base;
        rep.row(vec![
            w.to_string(),
            gib(*gib_s),
            format!("{speedup:.2}"),
            format!("{secs:.4}"),
        ]);
        rows.push(format!(
            "{{\"window\": {w}, \"secs\": {secs}, \"gib_s\": {gib_s}, \"speedup_vs_w1\": {speedup}}}"
        ));
    }
    let json = json_object(
        0,
        &[
            ("experiment", quoted("pipeline-window")),
            ("cluster", quoted("tcp(server_nodes=1, client_nodes=2)")),
            ("procs", procs.to_string()),
            ("fields_per_proc", fields.to_string()),
            ("field_bytes", field_bytes.to_string()),
            ("rows", json_array(1, &rows)),
        ],
    );
    rep.note(format!(
        "{procs} writer procs x {fields} x 1 MiB fields, Full mode, every W through the pipelined writer"
    ));
    rep.artifact("BENCH_pipeline.json", json + "\n");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_every_window_and_monotone_gain() {
        let rep = window_sweep(&Scale::quick());
        assert_eq!(rep.rows().len(), WINDOWS.len());
        let speedups: Vec<f64> = rep.rows().iter().map(|r| r[2].parse().unwrap()).collect();
        assert_eq!(speedups[0], 1.0, "W=1 is its own baseline");
        assert!(
            speedups.iter().all(|&s| s >= 0.99),
            "pipelining should never lose throughput: {speedups:?}"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let (s1, g1) = run_window(4, 2, 16, MIB);
        let (s2, g2) = run_window(4, 2, 16, MIB);
        assert_eq!(s1.to_bits(), s2.to_bits());
        assert_eq!(g1.to_bits(), g2.to_bits());
    }
}
