//! Beyond-paper extension: IOR `api=DFS` vs `api=DAOS` interface
//! overhead per transfer size.
//!
//! The interface studies around the source paper run IOR twice per
//! configuration — once against raw DAOS Arrays, once through the DFS
//! POSIX emulation — and report how much the namespace costs. The data
//! path is identical (DFS files *are* Arrays); the delta is purely
//! dirent traffic: a conditional dirent insert per create, a path walk
//! per open, a size update per dirty close. This experiment sweeps the
//! transfer size at a fixed segment count and reports the
//! `DAOS_bw / DFS_bw` overhead ratio for writes and reads, reproducing
//! the papers' ranking: the metadata tax is visible on small transfers
//! and vanishes (ratio → 1) once transfers are large enough to amortize
//! it.
//!
//! All numbers are sim-derived, so reruns are byte-identical. `xp
//! ior-interfaces` flags override the sweep ([`Params`]).

use daosim_cluster::ClusterSpec;
use daosim_ior::{run_ior, Api, FileMode, IorParams};
use daosim_objstore::array::MAX_READ_LEN;
use daosim_objstore::prelude::ObjectClass;

use crate::harness::{gib, json_array, json_object, parallel_map, quoted, Report, Scale};
use crate::params::{list, num, positive, unknown, ArgError, Flags};

const KIB: u64 = 1024;

/// The `tcp(1, 2)` deployment every point runs on.
fn deployment() -> ClusterSpec {
    ClusterSpec::tcp(1, 2)
}

/// `xp ior-interfaces` parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Transfer sizes swept (`-t = -b`, `--transfer-kib A,B,...`), small
    /// enough that dirent traffic shows, large enough that it drowns.
    pub transfers_kib: Vec<u64>,
    /// Segments per process (`--segments`).
    pub segments: u32,
    /// Processes per client node (`--ppn`).
    pub ppn: u32,
}

impl Flags for Params {
    fn at(scale: &Scale) -> Self {
        Params {
            transfers_kib: vec![16, 64, 256, 1024, 4096],
            // Few segments per point: the per-file dirent cost is fixed,
            // so a small byte total keeps it visible at the
            // small-transfer end.
            segments: scale.segments.clamp(2, 8),
            ppn: 4,
        }
    }

    fn set(&mut self, flag: &str, value: &str) -> Result<(), ArgError> {
        match flag {
            "--transfer-kib" => self.transfers_kib = list(flag, value)?,
            "--segments" => self.segments = num(flag, value)?,
            "--ppn" => self.ppn = num(flag, value)?,
            _ => return Err(unknown(flag)),
        }
        Ok(())
    }

    /// The IOR rank count must fit its `u32`, and each process reads
    /// its file back with one `array_read`, which rejects more than
    /// `MAX_READ_LEN` bytes.
    fn validate(&self) -> Result<(), String> {
        positive(&[
            ("--segments", self.segments as u64),
            ("--ppn", self.ppn as u64),
        ])?;
        if self
            .ppn
            .checked_mul(deployment().client_nodes as u32)
            .is_none()
        {
            return Err(format!("--ppn {} overflows the rank count", self.ppn));
        }
        for &t in &self.transfers_kib {
            positive(&[("--transfer-kib", t)])?;
            let per_proc = t.checked_mul(KIB * self.segments as u64);
            if per_proc.is_none_or(|b| b > MAX_READ_LEN) {
                return Err(format!(
                    "--transfer-kib {t} x --segments {} is more than 1 GiB per process",
                    self.segments
                ));
            }
        }
        Ok(())
    }
}

fn point(p: &Params, transfer_kib: u64, api: Api) -> IorParams {
    // SX striping: every file spreads over all targets, so the two runs
    // share one data-path shape and the measured delta is purely the
    // namespace (S1 would add single-stripe placement luck per oid draw).
    IorParams {
        transfer_bytes: transfer_kib * KIB,
        segments: p.segments,
        procs_per_node: p.ppn,
        class: ObjectClass::SX,
        iterations: 1,
        file_mode: FileMode::FilePerProcess,
        inflight: 1,
        api,
    }
}

/// Runs the interface sweep and renders the report plus the
/// `BENCH_ior_interfaces.json` artifact.
pub fn run(p: &Params) -> Report {
    let spec = deployment();
    let results = parallel_map(p.transfers_kib.clone(), |&t| {
        let daos = run_ior(spec, point(p, t, Api::Daos));
        let dfs = run_ior(spec, point(p, t, Api::Dfs));
        (t, daos, dfs)
    });
    let mut rep = Report::new(
        "ior-interfaces",
        "Extension: IOR api=DFS vs api=DAOS — namespace overhead vs transfer size",
        &[
            "transfer_KiB",
            "daos_write_GiB/s",
            "dfs_write_GiB/s",
            "write_overhead",
            "daos_read_GiB/s",
            "dfs_read_GiB/s",
            "read_overhead",
        ],
    );
    let mut rows = Vec::new();
    for (t, daos, dfs) in &results {
        let w_over = daos.write_bw() / dfs.write_bw();
        let r_over = daos.read_bw() / dfs.read_bw();
        rep.row(vec![
            t.to_string(),
            gib(daos.write_bw()),
            gib(dfs.write_bw()),
            format!("{w_over:.3}"),
            gib(daos.read_bw()),
            gib(dfs.read_bw()),
            format!("{r_over:.3}"),
        ]);
        rows.push(format!(
            "{{\"transfer_kib\": {t}, \"daos_write_gib_s\": {}, \"dfs_write_gib_s\": {}, \"write_overhead\": {w_over}, \"daos_read_gib_s\": {}, \"dfs_read_gib_s\": {}, \"read_overhead\": {r_over}}}",
            daos.write_bw(),
            dfs.write_bw(),
            daos.read_bw(),
            dfs.read_bw(),
        ));
    }
    let json = json_object(
        0,
        &[
            ("experiment", quoted("ior-interfaces")),
            ("cluster", quoted("tcp(server_nodes=1, client_nodes=2)")),
            ("procs_per_node", p.ppn.to_string()),
            ("segments", p.segments.to_string()),
            ("file_mode", quoted("file-per-process")),
            ("overhead", quoted("daos_bw / dfs_bw")),
            ("rows", json_array(1, &rows)),
        ],
    );
    rep.note(format!(
        "{} procs x {} segments per point, inflight 1; DFS adds per-file dirent create/walk/update inside the measured window",
        p.ppn as u64 * spec.client_nodes as u64,
        p.segments
    ));
    rep.artifact("BENCH_ior_interfaces.json", json + "\n");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_shrinks_with_transfer_size() {
        let rep = run(&Params::at(&Scale::quick()));
        assert_eq!(rep.rows().len(), 5);
        let write_over: Vec<f64> = rep.rows().iter().map(|r| r[3].parse().unwrap()).collect();
        let read_over: Vec<f64> = rep.rows().iter().map(|r| r[6].parse().unwrap()).collect();
        // DFS never beats raw DAOS (same data path plus extra metadata).
        assert!(
            write_over.iter().chain(&read_over).all(|&o| o >= 1.0),
            "overhead below 1: {write_over:?} {read_over:?}"
        );
        // The papers' ranking: the smallest transfer pays the most, the
        // largest has amortized the namespace almost completely away.
        let (w_first, w_last) = (write_over[0], *write_over.last().unwrap());
        assert!(
            w_first > w_last,
            "small-transfer write overhead {w_first} should exceed large-transfer {w_last}"
        );
        assert!(
            w_last < 1.10,
            "large transfers should amortize DFS write overhead, got {w_last}"
        );
        let (r_first, r_last) = (read_over[0], *read_over.last().unwrap());
        assert!(
            r_first > r_last,
            "small-transfer read overhead {r_first} should exceed large-transfer {r_last}"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run(&Params::at(&Scale::quick()));
        let b = run(&Params::at(&Scale::quick()));
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.artifacts(), b.artifacts());
    }
}
