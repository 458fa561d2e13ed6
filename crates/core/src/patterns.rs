//! Access patterns A and B (paper §5.3) over the simulated cluster.
//!
//! * **Pattern A** — *unique writes then unique reads*: every process
//!   writes its own new fields; once all writers on all nodes finish, an
//!   equally shaped process set reads them back. No contention for the
//!   same field, never mixed read/write traffic.
//! * **Pattern B** — *repeated writes while repeated reads*: after a
//!   setup phase populates designated fields, half the processes re-write
//!   them while the other half simultaneously reads them — the shape of
//!   real NWP output concurrent with product generation.
//!
//! Field I/O processes are deliberately *unsynchronised* within a phase
//! (no barriers), which is why results are reported as global timing
//! bandwidth (Eq. 2) rather than synchronous bandwidth.

use std::rc::Rc;

use daosim_cluster::{ClusterSpec, Deployment, SimClient};
use daosim_kernel::sync::channel;
use daosim_kernel::Sim;

use crate::fieldio::{FieldIoConfig, FieldStore};
use crate::metrics::{phase_stats, EventKind, PhaseStats, Recorder};
use crate::workload::{payload, Contention, KeyGen};

/// Parameters of one pattern run.
#[derive(Clone, Debug)]
pub struct PatternConfig {
    pub cluster: ClusterSpec,
    pub fieldio: FieldIoConfig,
    pub contention: Contention,
    pub procs_per_node: u32,
    pub ops_per_proc: u32,
    pub field_bytes: u64,
    /// Verify read payload length/content markers (cheap checks).
    pub verify: bool,
}

impl PatternConfig {
    pub fn total_procs(&self) -> u32 {
        self.cluster.client_nodes as u32 * self.procs_per_node
    }
}

/// Outcome of one pattern run.
#[derive(Clone, Copy, Debug)]
pub struct PatternResult {
    pub write: PhaseStats,
    pub read: PhaseStats,
    /// Simulated seconds for the whole run, including setup.
    pub end_secs: f64,
}

impl PatternResult {
    /// Aggregate application throughput — the figure of merit for mixed
    /// workloads (paper: "write and read bandwidth should be aggregated").
    pub fn aggregate_gib(&self) -> f64 {
        self.write.global_bw_gib + self.read.global_bw_gib
    }
}

fn proc_location(cfg: &PatternConfig, process: u32) -> (u16, u32) {
    (
        (process / cfg.procs_per_node) as u16,
        process % cfg.procs_per_node,
    )
}

async fn connect_store_as(
    d: &Rc<Deployment>,
    cfg: &PatternConfig,
    process: u32,
    client_id: u32,
) -> FieldStore<SimClient> {
    let (node, rank) = proc_location(cfg, process);
    let client = SimClient::for_process(d, node, rank);
    FieldStore::connect(client, cfg.fieldio.clone(), client_id)
        .await
        .expect("connect failed")
}

async fn connect_store(
    d: &Rc<Deployment>,
    cfg: &PatternConfig,
    process: u32,
) -> FieldStore<SimClient> {
    connect_store_as(d, cfg, process, process + 1).await
}

/// Runs access pattern A. Returns write-phase and read-phase statistics.
pub fn run_pattern_a(cfg: &PatternConfig) -> PatternResult {
    let sim = Sim::new();
    let d = Deployment::new(&sim, cfg.cluster);
    let gen = KeyGen::new(cfg.contention);
    let data = payload(cfg.field_bytes, 42);
    let write_rec = Recorder::new();
    let read_rec = Recorder::new();
    let procs = cfg.total_procs();

    let (done_tx, mut done_rx) = channel::<()>();
    for p in 0..procs {
        let (d, cfg, data, rec, done) = (
            Rc::clone(&d),
            cfg.clone(),
            data.clone(),
            write_rec.clone(),
            done_tx.clone(),
        );
        let sim2 = sim.clone();
        sim.spawn(async move {
            let fs = connect_store(&d, &cfg, p).await;
            let (node, _) = proc_location(&cfg, p);
            for op in 0..cfg.ops_per_proc {
                let key = gen.field_key(p, op);
                rec.record(node, p, op, EventKind::IoStart, sim2.now(), 0);
                fs.write_field(&key, data.clone())
                    .await
                    .expect("write failed");
                rec.record(node, p, op, EventKind::IoEnd, sim2.now(), cfg.field_bytes);
            }
            done.send(());
        });
    }
    drop(done_tx);

    // Orchestrator: wait for every writer, then launch the reader set.
    {
        let (d, cfg, sim2, read_rec) = (Rc::clone(&d), cfg.clone(), sim.clone(), read_rec.clone());
        let expected = cfg.field_bytes;
        sim.spawn(async move {
            let mut remaining = procs;
            while remaining > 0 {
                done_rx.recv().await.expect("writer vanished");
                remaining -= 1;
            }
            for p in 0..procs {
                let (d, cfg, rec, sim3) =
                    (Rc::clone(&d), cfg.clone(), read_rec.clone(), sim2.clone());
                sim2.spawn(async move {
                    let fs = connect_store(&d, &cfg, p).await;
                    let (node, _) = proc_location(&cfg, p);
                    for op in 0..cfg.ops_per_proc {
                        let key = gen.field_key(p, op);
                        rec.record(node, p, op, EventKind::IoStart, sim3.now(), 0);
                        let got = fs.read_field(&key).await.expect("read failed");
                        rec.record(node, p, op, EventKind::IoEnd, sim3.now(), got.len() as u64);
                        if cfg.verify {
                            assert_eq!(got.len() as u64, expected, "short read for {key}");
                        }
                    }
                });
            }
        });
    }

    let end = sim.run().expect_quiescent();
    PatternResult {
        write: phase_stats(&write_rec.take(), false),
        read: phase_stats(&read_rec.take(), false),
        end_secs: end.as_secs_f64(),
    }
}

/// Runs access pattern B. Half the processes re-write their designated
/// field while the other half reads it; stats cover the main phase only.
pub fn run_pattern_b(cfg: &PatternConfig) -> PatternResult {
    assert!(
        cfg.total_procs() >= 2,
        "pattern B needs at least one writer/reader pair"
    );
    let sim = Sim::new();
    let d = Deployment::new(&sim, cfg.cluster);
    let gen = KeyGen::new(cfg.contention);
    let data = payload(cfg.field_bytes, 42);
    let write_rec = Recorder::new();
    let read_rec = Recorder::new();
    let procs = cfg.total_procs();
    let writers = procs / 2;

    // Setup phase: each writer populates its designated field (op 0 key).
    let (setup_tx, mut setup_rx) = channel::<()>();
    for w in 0..writers {
        let (d, cfg, data, done) = (Rc::clone(&d), cfg.clone(), data.clone(), setup_tx.clone());
        sim.spawn(async move {
            let fs = connect_store(&d, &cfg, w).await;
            fs.write_field(&gen.field_key(w, 0), data.clone())
                .await
                .expect("setup write failed");
            done.send(());
        });
    }
    drop(setup_tx);

    // Orchestrator: once setup completes, run writers and readers
    // simultaneously with no further synchronisation.
    {
        let (d, cfg, sim2) = (Rc::clone(&d), cfg.clone(), sim.clone());
        let (write_rec, read_rec, data) = (write_rec.clone(), read_rec.clone(), data.clone());
        sim.spawn(async move {
            let mut remaining = writers;
            while remaining > 0 {
                setup_rx.recv().await.expect("setup writer vanished");
                remaining -= 1;
            }
            for w in 0..writers {
                let (d, cfg, rec, sim3, data) = (
                    Rc::clone(&d),
                    cfg.clone(),
                    write_rec.clone(),
                    sim2.clone(),
                    data.clone(),
                );
                sim2.spawn(async move {
                    // Distinct oid namespace from the setup-phase store
                    // this "process" used (same process, fresh handle).
                    let fs = connect_store_as(&d, &cfg, w, procs + w + 1).await;
                    let (node, _) = proc_location(&cfg, w);
                    let key = gen.field_key(w, 0);
                    for op in 0..cfg.ops_per_proc {
                        rec.record(node, w, op, EventKind::IoStart, sim3.now(), 0);
                        fs.write_field(&key, data.clone())
                            .await
                            .expect("re-write failed");
                        rec.record(node, w, op, EventKind::IoEnd, sim3.now(), cfg.field_bytes);
                    }
                });
            }
            for r in 0..(procs - writers) {
                // Reader process ids continue after the writers'.
                let pid = writers + r;
                let target_writer = r % writers;
                let (d, cfg, rec, sim3) =
                    (Rc::clone(&d), cfg.clone(), read_rec.clone(), sim2.clone());
                sim2.spawn(async move {
                    let fs = connect_store(&d, &cfg, pid).await;
                    let (node, _) = proc_location(&cfg, pid);
                    let key = gen.field_key(target_writer, 0);
                    for op in 0..cfg.ops_per_proc {
                        rec.record(node, pid, op, EventKind::IoStart, sim3.now(), 0);
                        let got = fs.read_field(&key).await.expect("read failed");
                        rec.record(
                            node,
                            pid,
                            op,
                            EventKind::IoEnd,
                            sim3.now(),
                            got.len() as u64,
                        );
                        if cfg.verify {
                            assert_eq!(got.len() as u64, cfg.field_bytes);
                        }
                    }
                });
            }
        });
    }

    let end = sim.run().expect_quiescent();
    PatternResult {
        write: phase_stats(&write_rec.take(), false),
        read: phase_stats(&read_rec.take(), false),
        end_secs: end.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fieldio::FieldIoMode;
    use crate::workload::MIB;

    fn tiny(mode: FieldIoMode, contention: Contention) -> PatternConfig {
        PatternConfig {
            cluster: ClusterSpec::tcp(1, 2),
            fieldio: FieldIoConfig::builder().mode(mode).build(),
            contention,
            procs_per_node: 4,
            ops_per_proc: 6,
            field_bytes: MIB,
            verify: true,
        }
    }

    #[test]
    fn pattern_a_runs_all_modes() {
        for mode in FieldIoMode::all() {
            for contention in [Contention::High, Contention::Low] {
                let cfg = tiny(mode, contention);
                let r = run_pattern_a(&cfg);
                let expect = (cfg.total_procs() * cfg.ops_per_proc) as u64 * MIB;
                assert_eq!(r.write.total_bytes, expect, "{mode}/{}", contention.name());
                assert_eq!(r.read.total_bytes, expect);
                assert!(r.write.global_bw_gib > 0.0);
                assert!(r.read.global_bw_gib > 0.0);
            }
        }
    }

    #[test]
    fn pattern_b_runs_all_modes() {
        for mode in FieldIoMode::all() {
            let cfg = tiny(mode, Contention::Low);
            let r = run_pattern_b(&cfg);
            let half = (cfg.total_procs() / 2 * cfg.ops_per_proc) as u64 * MIB;
            assert_eq!(r.write.total_bytes, half);
            assert_eq!(r.read.total_bytes, half);
            assert!(r.aggregate_gib() > 0.0);
        }
    }

    #[test]
    fn pattern_runs_are_deterministic() {
        let cfg = tiny(FieldIoMode::Full, Contention::Low);
        let a = run_pattern_a(&cfg);
        let b = run_pattern_a(&cfg);
        assert_eq!(a.end_secs, b.end_secs);
        assert_eq!(a.write.global_bw_gib, b.write.global_bw_gib);
        assert_eq!(a.read.global_bw_gib, b.read.global_bw_gib);
    }

    #[test]
    fn no_index_contention_hurts_pattern_b() {
        // Re-writes to md5-stable oids contend with readers on the same
        // object; indexed re-writes (fresh arrays) do not. This is the
        // mechanism behind Fig. 5's pattern-B ordering.
        let idx = run_pattern_b(&tiny(FieldIoMode::NoContainers, Contention::Low));
        let noidx = run_pattern_b(&tiny(FieldIoMode::NoIndex, Contention::Low));
        assert!(
            noidx.aggregate_gib() < idx.aggregate_gib(),
            "no-index {:.2} should trail indexed {:.2} under pattern B",
            noidx.aggregate_gib(),
            idx.aggregate_gib()
        );
    }
}
