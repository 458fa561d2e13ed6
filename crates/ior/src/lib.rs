//! # daosim-ior — IOR in segments mode over the simulated cluster
//!
//! Reimplements the IOR configuration the paper uses (§5.1): MPI-style
//! fully synchronised processes, DAOS Array backend, *file per process*
//! (`-F`), block size = transfer size (`-b = -t`), `-s` segments and one
//! repetition — so each process performs **one** object create/open, one
//! transfer of `t × s` bytes and one close per phase, bracketed by
//! barriers:
//!
//! 1. initial barrier, 2. pre-I/O barrier, 3. object create/open,
//! 4. transfer, 5. object close, 6. post-I/O barrier, 7. logging,
//! 8. final barrier.
//!
//! The reported figure is the **synchronous bandwidth** (Eq. 1): total
//! bytes over the parallel wall-clock of the synchronised iteration.

use std::rc::Rc;

use daosim_cluster::{ClusterSpec, Deployment, SimClient};
use daosim_core::metrics::{phase_stats, EventKind, PhaseStats, Recorder};
use daosim_core::workload::payload;
use daosim_dfs::{DfsConfig, DfsError, DfsHandle};
use daosim_kernel::sync::Barrier;
use daosim_kernel::{Sim, SpanEvent};
use daosim_objstore::prelude::{
    DaosApi, EventQueue, ObjectClass, Oid, OidAllocator, OpOutput, Uuid,
};

/// File layout, IOR's `-F` axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FileMode {
    /// `-F`: one object per process (what the paper runs).
    #[default]
    FilePerProcess,
    /// No `-F`: one shared object; each rank owns a disjoint extent.
    SharedFile,
}

/// Client interface, IOR's `-a` axis: the two DAOS-native backends the
/// interface studies compare.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Api {
    /// `-a DAOS`: raw Array objects addressed by oid, no namespace.
    #[default]
    Daos,
    /// `-a DFS`: testfiles resolved by path through the `daosim-dfs`
    /// namespace — every open walks dirents, every create/close updates
    /// them, on top of the same Array data path.
    Dfs,
}

/// IOR invocation parameters (the subset the paper sweeps).
#[derive(Clone, Copy, Debug)]
pub struct IorParams {
    /// `-t` and `-b`: bytes per data part.
    pub transfer_bytes: u64,
    /// `-s`: data parts per process (one transfer carries all of them).
    pub segments: u32,
    /// Processes per client node.
    pub procs_per_node: u32,
    /// Object class for the per-process Arrays (paper: `S1`).
    pub class: ObjectClass,
    /// `-i`: repetitions of the whole write/read cycle (paper: 1).
    /// Synchronous bandwidth averages over iterations per Eq. 1.
    pub iterations: u32,
    /// File-per-process (`-F`, the paper's mode) or shared-file layout.
    pub file_mode: FileMode,
    /// Async in-flight window. At 1 each process issues a single blocking
    /// transfer of `t × s` bytes (the paper's synchronous setup). Above 1
    /// the transfer is split into `segments` parts of `transfer_bytes`
    /// each, launched through a `daos_eq`-style event queue with at most
    /// `inflight` operations outstanding.
    pub inflight: u32,
    /// `-a`: raw DAOS Arrays, or DFS paths layered over them.
    pub api: Api,
}

impl IorParams {
    /// The paper's standard IOR setup: 1 MiB × 100 segments, S1.
    pub fn paper_default(procs_per_node: u32) -> Self {
        IorParams {
            transfer_bytes: 1024 * 1024,
            segments: 100,
            procs_per_node,
            class: ObjectClass::S1,
            iterations: 1,
            file_mode: FileMode::FilePerProcess,
            api: Api::Daos,
            inflight: 1,
        }
    }

    pub fn bytes_per_proc(&self) -> u64 {
        self.transfer_bytes * self.segments as u64
    }
}

/// Result of one IOR run (write phase then read phase).
#[derive(Clone, Copy, Debug)]
pub struct IorResult {
    pub write: PhaseStats,
    pub read: PhaseStats,
}

impl IorResult {
    pub fn write_bw(&self) -> f64 {
        self.write.synchronous_bw_gib.unwrap_or(0.0)
    }

    pub fn read_bw(&self) -> f64 {
        self.read.synchronous_bw_gib.unwrap_or(0.0)
    }
}

/// Runs IOR segments mode on a fresh deployment of `spec`.
pub fn run_ior(spec: ClusterSpec, params: IorParams) -> IorResult {
    run_ior_on(&Sim::new(), spec, params)
}

/// Like [`run_ior`], with span tracing enabled; returns the result plus
/// the recorded span event stream (export it with
/// `daosim_core::obs::chrome_trace_json`). Tracing is sim-time-only, so
/// the bandwidth figures are identical to an untraced run.
pub fn run_ior_traced(spec: ClusterSpec, params: IorParams) -> (IorResult, Vec<SpanEvent>) {
    let sim = Sim::new();
    sim.obs().set_enabled(true);
    let result = run_ior_on(&sim, spec, params);
    (result, sim.obs().take_events())
}

/// Like [`run_ior`], on a caller-supplied [`Sim`] — the hook for running
/// IOR under a perturbed [`daosim_kernel::SchedPolicy`] or alongside other
/// workloads sharing the same virtual clock.
pub fn run_ior_on(sim: &Sim, spec: ClusterSpec, params: IorParams) -> IorResult {
    let sim = sim.clone();
    let d = Deployment::new(&sim, spec);
    let procs = spec.client_nodes as u32 * params.procs_per_node;
    assert!(procs > 0);

    // The shared container stands in for IOR's working directory.
    let cont_uuid = Uuid::from_name(b"ior-testdir");
    let data = payload(params.bytes_per_proc(), 7);
    let write_rec = Recorder::new();
    let read_rec = Recorder::new();
    let barrier = Barrier::new(procs as usize);

    for p in 0..procs {
        let (d, barrier) = (Rc::clone(&d), barrier.clone());
        let (write_rec, read_rec) = (write_rec.clone(), read_rec.clone());
        let sim2 = sim.clone();
        let data = data.clone();
        sim.spawn(async move {
            let node = (p / params.procs_per_node) as u16;
            let rank = p % params.procs_per_node;
            let client = SimClient::for_process(&d, node, rank);
            let cont = client.cont_open_or_create(cont_uuid).await.unwrap();
            let mut alloc = OidAllocator::new(p + 1);
            let bytes = params.bytes_per_proc();
            // Rank offset within the shared object (SharedFile mode).
            let my_offset = match params.file_mode {
                FileMode::FilePerProcess => 0,
                FileMode::SharedFile => p as u64 * bytes,
            };

            if params.api == Api::Dfs {
                // `-a DFS`: every rank mounts the namespace (the
                // superblock insert race resolves to one winner) and
                // addresses its testfile by path under /ior, like the
                // IOR DFS backend's `--dfs.dir`. The data path is the
                // same Array machinery as `-a DAOS`; the delta under
                // measurement is purely dirent lookups and updates.
                let dfs = DfsHandle::mount_with(
                    client.clone(),
                    cont_uuid,
                    p + 1,
                    DfsConfig {
                        file_class: params.class,
                        ..DfsConfig::default()
                    },
                )
                .await
                .unwrap();
                match dfs.mkdir("/ior").await {
                    Ok(()) | Err(DfsError::Exists(_)) => {}
                    Err(e) => panic!("mkdir /ior: {e}"),
                }
                for iter in 0..params.iterations.max(1) {
                    let path = match params.file_mode {
                        FileMode::FilePerProcess => format!("/ior/testfile.{iter}.{p}"),
                        FileMode::SharedFile => format!("/ior/testfile.{iter}"),
                    };

                    // ---- write phase ----
                    barrier.wait().await; // initial barrier
                    barrier.wait().await; // pre-I/O barrier
                    write_rec.record(node, p, iter, EventKind::IoStart, sim2.now(), 0);
                    write_rec.record(node, p, iter, EventKind::OpenStart, sim2.now(), 0);
                    let mut file = match params.file_mode {
                        FileMode::FilePerProcess => dfs.create(&path).await.unwrap(),
                        FileMode::SharedFile => dfs.open_or_create(&path).await.unwrap(),
                    };
                    write_rec.record(node, p, iter, EventKind::OpenEnd, sim2.now(), 0);
                    write_rec.record(node, p, iter, EventKind::XferStart, sim2.now(), 0);
                    if params.inflight > 1 {
                        let mut w = dfs.writer(file, params.inflight);
                        let t = params.transfer_bytes as usize;
                        for s in 0..params.segments {
                            let chunk = data.slice(s as usize * t..(s as usize + 1) * t);
                            w.submit(my_offset + s as u64 * params.transfer_bytes, chunk)
                                .await
                                .unwrap();
                        }
                        file = w.finish().await.unwrap();
                    } else {
                        dfs.write(&mut file, my_offset, data.clone()).await.unwrap();
                    }
                    write_rec.record(node, p, iter, EventKind::XferEnd, sim2.now(), 0);
                    write_rec.record(node, p, iter, EventKind::CloseStart, sim2.now(), 0);
                    dfs.close(file).await.unwrap();
                    write_rec.record(node, p, iter, EventKind::CloseEnd, sim2.now(), 0);
                    write_rec.record(node, p, iter, EventKind::IoEnd, sim2.now(), bytes);
                    barrier.wait().await; // post-I/O barrier
                    barrier.wait().await; // final barrier

                    // ---- read phase ----
                    barrier.wait().await;
                    barrier.wait().await;
                    read_rec.record(node, p, iter, EventKind::IoStart, sim2.now(), 0);
                    read_rec.record(node, p, iter, EventKind::OpenStart, sim2.now(), 0);
                    let file = dfs.open(&path).await.unwrap();
                    read_rec.record(node, p, iter, EventKind::OpenEnd, sim2.now(), 0);
                    read_rec.record(node, p, iter, EventKind::XferStart, sim2.now(), 0);
                    if params.inflight > 1 {
                        // Pipelined reads ride the raw Array handle so the
                        // async window matches the `-a DAOS` path exactly.
                        let eq = EventQueue::new(client.clone());
                        let mut got_bytes = 0u64;
                        let mut harvest = |r: Result<OpOutput, _>| match r.unwrap() {
                            OpOutput::Data(b) => got_bytes += b.len() as u64,
                            other => panic!("array_read returned {other:?}"),
                        };
                        for s in 0..params.segments {
                            for (_, r) in eq.wait_capacity(params.inflight as usize).await {
                                harvest(r);
                            }
                            eq.array_read(
                                &cont,
                                file.array(),
                                my_offset + s as u64 * params.transfer_bytes,
                                params.transfer_bytes,
                            );
                        }
                        for (_, r) in eq.wait_all().await {
                            harvest(r);
                        }
                        assert_eq!(got_bytes, bytes, "short IOR read");
                    } else {
                        let got = dfs.read(&file, my_offset, bytes).await.unwrap();
                        assert_eq!(got.len() as u64, bytes, "short IOR read");
                    }
                    read_rec.record(node, p, iter, EventKind::XferEnd, sim2.now(), 0);
                    read_rec.record(node, p, iter, EventKind::CloseStart, sim2.now(), 0);
                    dfs.close(file).await.unwrap();
                    read_rec.record(node, p, iter, EventKind::CloseEnd, sim2.now(), 0);
                    read_rec.record(node, p, iter, EventKind::IoEnd, sim2.now(), bytes);
                    barrier.wait().await;
                    barrier.wait().await;
                }
                return;
            }

            for iter in 0..params.iterations.max(1) {
                // Fresh object per repetition: per-process, or one shared
                // object all ranks agree on by construction.
                let oid = match params.file_mode {
                    FileMode::FilePerProcess => alloc.next(params.class),
                    FileMode::SharedFile => Oid::generate(0xF11E, iter as u64, params.class),
                };

                // ---- write phase ----
                barrier.wait().await; // initial barrier
                barrier.wait().await; // pre-I/O barrier
                write_rec.record(node, p, iter, EventKind::IoStart, sim2.now(), 0);
                write_rec.record(node, p, iter, EventKind::OpenStart, sim2.now(), 0);
                let handle = match params.file_mode {
                    FileMode::FilePerProcess => client.array_create(&cont, oid).await.unwrap(),
                    // Shared file: ranks race to create-or-open the one
                    // object, as the IOR DAOS backend does without -F.
                    FileMode::SharedFile => client.array_open_or_create(&cont, oid).await.unwrap(),
                };
                write_rec.record(node, p, iter, EventKind::OpenEnd, sim2.now(), 0);
                write_rec.record(node, p, iter, EventKind::XferStart, sim2.now(), 0);
                if params.inflight > 1 {
                    // Async path: one event per segment, at most `inflight`
                    // outstanding (`daos_eq`-style pipelining).
                    let eq = EventQueue::new(client.clone());
                    let t = params.transfer_bytes as usize;
                    for s in 0..params.segments {
                        // One capacity-wait future per submission: parked
                        // until a completion opens a window slot, never
                        // re-polling in a check loop.
                        for (_, r) in eq.wait_capacity(params.inflight as usize).await {
                            r.unwrap();
                        }
                        let chunk = data.slice(s as usize * t..(s as usize + 1) * t);
                        eq.array_write(
                            &cont,
                            &handle,
                            my_offset + s as u64 * params.transfer_bytes,
                            chunk,
                        );
                    }
                    for (_, r) in eq.wait_all().await {
                        r.unwrap();
                    }
                } else {
                    client
                        .array_write(&cont, &handle, my_offset, data.clone())
                        .await
                        .unwrap();
                }
                write_rec.record(node, p, iter, EventKind::XferEnd, sim2.now(), 0);
                write_rec.record(node, p, iter, EventKind::CloseStart, sim2.now(), 0);
                client.array_close(&cont, handle).await.unwrap();
                write_rec.record(node, p, iter, EventKind::CloseEnd, sim2.now(), 0);
                write_rec.record(node, p, iter, EventKind::IoEnd, sim2.now(), bytes);
                barrier.wait().await; // post-I/O barrier
                barrier.wait().await; // final barrier

                // ---- read phase (same process set, same distribution) ----
                barrier.wait().await;
                barrier.wait().await;
                read_rec.record(node, p, iter, EventKind::IoStart, sim2.now(), 0);
                read_rec.record(node, p, iter, EventKind::OpenStart, sim2.now(), 0);
                let handle = client.array_open(&cont, oid).await.unwrap();
                read_rec.record(node, p, iter, EventKind::OpenEnd, sim2.now(), 0);
                read_rec.record(node, p, iter, EventKind::XferStart, sim2.now(), 0);
                if params.inflight > 1 {
                    let eq = EventQueue::new(client.clone());
                    let mut got_bytes = 0u64;
                    let mut harvest = |r: Result<OpOutput, _>| match r.unwrap() {
                        OpOutput::Data(b) => got_bytes += b.len() as u64,
                        other => panic!("array_read returned {other:?}"),
                    };
                    for s in 0..params.segments {
                        for (_, r) in eq.wait_capacity(params.inflight as usize).await {
                            harvest(r);
                        }
                        eq.array_read(
                            &cont,
                            &handle,
                            my_offset + s as u64 * params.transfer_bytes,
                            params.transfer_bytes,
                        );
                    }
                    for (_, r) in eq.wait_all().await {
                        harvest(r);
                    }
                    assert_eq!(got_bytes, bytes, "short IOR read");
                } else {
                    let got = client
                        .array_read(&cont, &handle, my_offset, bytes)
                        .await
                        .unwrap();
                    assert_eq!(got.len() as u64, bytes, "short IOR read");
                }
                read_rec.record(node, p, iter, EventKind::XferEnd, sim2.now(), 0);
                read_rec.record(node, p, iter, EventKind::CloseStart, sim2.now(), 0);
                client.array_close(&cont, handle).await.unwrap();
                read_rec.record(node, p, iter, EventKind::CloseEnd, sim2.now(), 0);
                read_rec.record(node, p, iter, EventKind::IoEnd, sim2.now(), bytes);
                barrier.wait().await;
                barrier.wait().await;
            }
        });
    }
    sim.run().expect_quiescent();

    IorResult {
        write: phase_stats(&write_rec.take(), true),
        read: phase_stats(&read_rec.take(), true),
    }
}

/// Runs `run_ior` over several process counts and returns the best write
/// and read synchronous bandwidths — the paper reports the best-performing
/// client process count per configuration.
pub fn best_over_ppn(spec: ClusterSpec, ppns: &[u32], base: IorParams) -> (f64, f64) {
    let mut best = (0.0f64, 0.0f64);
    for &ppn in ppns {
        let r = run_ior(
            spec,
            IorParams {
                procs_per_node: ppn,
                ..base
            },
        );
        best.0 = best.0.max(r.write_bw());
        best.1 = best.1.max(r.read_bw());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1024 * 1024;

    fn small(spec: ClusterSpec, ppn: u32) -> IorResult {
        run_ior(
            spec,
            IorParams {
                transfer_bytes: MIB,
                segments: 10,
                procs_per_node: ppn,
                class: ObjectClass::S1,
                iterations: 1,
                file_mode: FileMode::FilePerProcess,
                api: Api::Daos,
                inflight: 1,
            },
        )
    }

    #[test]
    fn traced_run_matches_untraced_and_yields_spans() {
        let spec = ClusterSpec::tcp(1, 1);
        let params = IorParams {
            transfer_bytes: MIB,
            segments: 2,
            procs_per_node: 2,
            class: ObjectClass::S1,
            iterations: 1,
            file_mode: FileMode::FilePerProcess,
            api: Api::Daos,
            inflight: 1,
        };
        let plain = run_ior(spec, params);
        let (traced, spans) = run_ior_traced(spec, params);
        assert_eq!(plain.write_bw().to_bits(), traced.write_bw().to_bits());
        assert!(!spans.is_empty(), "tracing must record events");
    }

    #[test]
    fn reports_positive_synchronous_bandwidth() {
        let r = small(ClusterSpec::tcp(1, 1), 8);
        assert!(r.write_bw() > 0.5, "write {}", r.write_bw());
        assert!(r.read_bw() > 0.5, "read {}", r.read_bw());
        assert_eq!(r.write.io_count, 8);
        assert_eq!(r.write.total_bytes, 8 * 10 * MIB);
    }

    #[test]
    fn read_exceeds_write_as_in_table1() {
        let r = small(ClusterSpec::tcp(1, 2), 16);
        assert!(
            r.read_bw() > r.write_bw(),
            "read {} should beat write {}",
            r.read_bw(),
            r.write_bw()
        );
    }

    #[test]
    fn write_bandwidth_saturates_near_engine_limits() {
        // 2 engines ingest ~2.9 GiB/s each before host effects.
        let r = small(ClusterSpec::tcp(1, 2), 24);
        assert!(
            (3.0..7.0).contains(&r.write_bw()),
            "write {} outside expected band",
            r.write_bw()
        );
    }

    #[test]
    fn more_servers_scale_bandwidth() {
        let one = small(ClusterSpec::tcp(1, 2), 16);
        let two = small(ClusterSpec::tcp(2, 4), 16);
        assert!(
            two.write_bw() > one.write_bw() * 1.3,
            "2 servers {} vs 1 server {}",
            two.write_bw(),
            one.write_bw()
        );
    }

    #[test]
    fn determinism() {
        let a = small(ClusterSpec::tcp(1, 1), 4);
        let b = small(ClusterSpec::tcp(1, 1), 4);
        assert_eq!(a.write_bw(), b.write_bw());
        assert_eq!(a.read_bw(), b.read_bw());
    }

    #[test]
    fn multiple_iterations_average_per_eq1() {
        let r = run_ior(
            ClusterSpec::tcp(1, 1),
            IorParams {
                transfer_bytes: MIB,
                segments: 5,
                procs_per_node: 4,
                class: ObjectClass::S1,
                iterations: 3,
                file_mode: FileMode::FilePerProcess,
                api: Api::Daos,
                inflight: 1,
            },
        );
        assert_eq!(r.write.io_count, 12, "4 procs x 3 iterations");
        assert_eq!(r.write.total_bytes, 12 * 5 * MIB);
        assert!(r.write_bw() > 0.0);
        // A single-iteration run of the same shape gives a similar rate.
        let one = run_ior(
            ClusterSpec::tcp(1, 1),
            IorParams {
                transfer_bytes: MIB,
                segments: 5,
                procs_per_node: 4,
                class: ObjectClass::S1,
                iterations: 1,
                file_mode: FileMode::FilePerProcess,
                api: Api::Daos,
                inflight: 1,
            },
        );
        let ratio = r.write_bw() / one.write_bw();
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn shared_file_mode_verifies_disjoint_extents() {
        let r = run_ior(
            ClusterSpec::tcp(1, 2),
            IorParams {
                transfer_bytes: MIB,
                segments: 4,
                procs_per_node: 8,
                class: ObjectClass::SX,
                iterations: 1,
                file_mode: FileMode::SharedFile,
                api: Api::Daos,
                inflight: 1,
            },
        );
        assert!(r.write_bw() > 0.5, "shared-file write {}", r.write_bw());
        assert!(r.read_bw() > 0.5, "shared-file read {}", r.read_bw());
        assert_eq!(r.write.total_bytes, 16 * 4 * MIB);
    }

    #[test]
    fn shared_file_is_competitive_with_file_per_process() {
        // Disjoint extents must not serialize: shared-file bandwidth
        // stays within a small factor of file-per-process.
        let fpp = small(ClusterSpec::tcp(1, 2), 8);
        let shared = run_ior(
            ClusterSpec::tcp(1, 2),
            IorParams {
                transfer_bytes: MIB,
                segments: 10,
                procs_per_node: 8,
                class: ObjectClass::SX,
                iterations: 1,
                file_mode: FileMode::SharedFile,
                api: Api::Daos,
                inflight: 1,
            },
        );
        assert!(
            shared.write_bw() > fpp.write_bw() * 0.4,
            "shared {} vs fpp {}",
            shared.write_bw(),
            fpp.write_bw()
        );
    }

    #[test]
    fn pipelined_transfers_move_all_bytes_no_slower() {
        let base = IorParams {
            transfer_bytes: MIB,
            segments: 16,
            procs_per_node: 4,
            class: ObjectClass::S1,
            iterations: 1,
            file_mode: FileMode::FilePerProcess,
            api: Api::Daos,
            inflight: 1,
        };
        let sync = run_ior(ClusterSpec::tcp(1, 2), base);
        let pip = run_ior(
            ClusterSpec::tcp(1, 2),
            IorParams {
                inflight: 8,
                ..base
            },
        );
        assert_eq!(pip.write.total_bytes, sync.write.total_bytes);
        assert_eq!(pip.read.total_bytes, sync.read.total_bytes);
        assert!(pip.write_bw() > 0.5 && pip.read_bw() > 0.5);
        // Splitting one large transfer into pipelined segments must not
        // collapse bandwidth.
        assert!(
            pip.write_bw() > sync.write_bw() * 0.5,
            "pipelined {} vs sync {}",
            pip.write_bw(),
            sync.write_bw()
        );
        // And the async path stays deterministic.
        let again = run_ior(
            ClusterSpec::tcp(1, 2),
            IorParams {
                inflight: 8,
                ..base
            },
        );
        assert_eq!(pip.write_bw().to_bits(), again.write_bw().to_bits());
        assert_eq!(pip.read_bw().to_bits(), again.read_bw().to_bits());
    }

    #[test]
    fn windowed_submission_quiesces_at_inflight_2_under_all_policies() {
        // Regression for the async-path capacity wait: with a window of 2
        // the submitter parks on a capacity future between segments, and
        // must be woken by completions under every scheduling policy —
        // including ones that reorder or delay wakes. A lost wakeup shows
        // up as a deadlocked (non-quiescent) run inside expect_quiescent.
        use daosim_kernel::SchedPolicy;
        let params = IorParams {
            transfer_bytes: MIB,
            segments: 8,
            procs_per_node: 4,
            class: ObjectClass::S1,
            iterations: 1,
            file_mode: FileMode::FilePerProcess,
            api: Api::Daos,
            inflight: 2,
        };
        let policies = [
            SchedPolicy::Fifo,
            SchedPolicy::Lifo,
            SchedPolicy::Random { seed: 0xF00D },
            SchedPolicy::WakeDelay {
                seed: 0xF00D,
                max_delay_ns: 50_000,
            },
        ];
        let mut totals = Vec::new();
        for policy in policies {
            // run_ior_on calls expect_quiescent internally; a stuck
            // capacity wait panics there rather than hanging.
            let r = run_ior_on(&Sim::with_policy(policy), ClusterSpec::tcp(1, 1), params);
            totals.push((r.write.total_bytes, r.read.total_bytes));
        }
        let want = (4 * 8 * MIB, 4 * 8 * MIB);
        for (policy, got) in policies.iter().zip(&totals) {
            assert_eq!(*got, want, "byte totals diverged under {policy:?}");
        }
    }

    #[test]
    fn dfs_api_pays_interface_overhead_on_small_transfers() {
        // Same cluster, same byte totals; the DFS run adds dirent
        // create/lookup/update traffic inside the measured window, so at
        // small transfers its bandwidth sits strictly below raw DAOS.
        let base = IorParams {
            transfer_bytes: 16 * 1024,
            segments: 2,
            procs_per_node: 4,
            class: ObjectClass::S1,
            iterations: 1,
            file_mode: FileMode::FilePerProcess,
            inflight: 1,
            api: Api::Daos,
        };
        let daos = run_ior(ClusterSpec::tcp(1, 1), base);
        let dfs = run_ior(
            ClusterSpec::tcp(1, 1),
            IorParams {
                api: Api::Dfs,
                ..base
            },
        );
        assert_eq!(dfs.write.total_bytes, daos.write.total_bytes);
        assert_eq!(dfs.read.total_bytes, daos.read.total_bytes);
        assert!(dfs.write_bw() > 0.0 && dfs.read_bw() > 0.0);
        assert!(
            dfs.write_bw() < daos.write_bw(),
            "dfs write {} should trail daos {}",
            dfs.write_bw(),
            daos.write_bw()
        );
        assert!(
            dfs.read_bw() < daos.read_bw(),
            "dfs read {} should trail daos {}",
            dfs.read_bw(),
            daos.read_bw()
        );
        // And the DFS path stays deterministic.
        let again = run_ior(
            ClusterSpec::tcp(1, 1),
            IorParams {
                api: Api::Dfs,
                ..base
            },
        );
        assert_eq!(dfs.write_bw().to_bits(), again.write_bw().to_bits());
        assert_eq!(dfs.read_bw().to_bits(), again.read_bw().to_bits());
    }

    #[test]
    fn dfs_api_runs_shared_file_and_pipelined_modes() {
        // Shared file: all ranks open-or-create one path; disjoint
        // extents land in one Array sized by the last close.
        let shared = run_ior(
            ClusterSpec::tcp(1, 2),
            IorParams {
                transfer_bytes: MIB,
                segments: 4,
                procs_per_node: 4,
                class: ObjectClass::SX,
                iterations: 1,
                file_mode: FileMode::SharedFile,
                inflight: 1,
                api: Api::Dfs,
            },
        );
        assert_eq!(shared.write.total_bytes, 8 * 4 * MIB);
        assert_eq!(shared.read.total_bytes, 8 * 4 * MIB);
        assert!(shared.write_bw() > 0.0 && shared.read_bw() > 0.0);
        // Pipelined: the windowed writer and raw-handle reads move every
        // byte with the same asserts as the DAOS async path.
        let pip = run_ior(
            ClusterSpec::tcp(1, 1),
            IorParams {
                transfer_bytes: MIB,
                segments: 8,
                procs_per_node: 4,
                class: ObjectClass::S1,
                iterations: 1,
                file_mode: FileMode::FilePerProcess,
                inflight: 4,
                api: Api::Dfs,
            },
        );
        assert_eq!(pip.write.total_bytes, 4 * 8 * MIB);
        assert_eq!(pip.read.total_bytes, 4 * 8 * MIB);
    }

    #[test]
    fn best_over_ppn_picks_max() {
        let (w, r) = best_over_ppn(
            ClusterSpec::tcp(1, 1),
            &[2, 8],
            IorParams {
                transfer_bytes: MIB,
                segments: 5,
                procs_per_node: 0,
                class: ObjectClass::S1,
                iterations: 1,
                file_mode: FileMode::FilePerProcess,
                api: Api::Daos,
                inflight: 1,
            },
        );
        assert!(w > 0.0 && r > 0.0);
    }
}
