//! Rebuild: restoring redundancy after an engine loss.
//!
//! When a DAOS engine dies, the pool map is updated to exclude its
//! targets and the *rebuild* protocol re-creates the lost replicas on
//! surviving targets from the remaining copies. This module models that:
//!
//! 1. every target of the dead engine is **remapped** to a surviving
//!    target (round-robin over alive engines); clients consult the remap
//!    after placement, so post-rebuild I/O routes to the replacements;
//! 2. every `RP2` object with a replica on the dead engine is **moved**:
//!    the survivor's copy streams over the fabric to the replacement
//!    engine and lands on its media — charged as real flows and service
//!    time, with bounded per-engine concurrency like DAOS's rebuild ULTs.
//!
//! Unprotected objects (S1/S2/SX) cannot be rebuilt — their data only
//! existed on the dead targets — and EC objects, while *readable* in
//! degraded mode, are restored by the same mechanism (survivor + parity
//! stream to the replacement, paying reconstruction).
//!
//! After rebuild completes, writes to replicated objects succeed again
//! (the redundancy group is whole) — the property the tests pin down.

use std::rc::Rc;

use daosim_kernel::sync::{join_all, AdmissionClass, PrioritySemaphore};
use daosim_kernel::SimDuration;
use daosim_objstore::placement::{ec_targets, replica_targets, stripe_targets};
use daosim_objstore::prelude::{ObjectClass, Oid, Uuid};

use crate::deploy::Deployment;

/// Outcome of one rebuild pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RebuildReport {
    /// Objects whose redundancy was restored.
    pub objects_moved: usize,
    /// Payload bytes streamed to replacement targets.
    pub bytes_moved: u64,
    /// Simulated seconds the rebuild took.
    pub duration_secs: f64,
    /// Objects that could not be rebuilt (no surviving copy).
    pub objects_lost: usize,
}

/// How many concurrent rebuild streams each surviving engine runs.
const REBUILD_STREAMS_PER_ENGINE: usize = 4;

/// Why a rebuild pass could not run. Misuse is reported, not panicked,
/// so failure drills can probe invalid sequences without aborting the
/// whole simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildError {
    /// The engine named for rebuild still answers RPCs; kill it first.
    EngineAlive(u32),
    /// Every engine is down — there is nothing to rebuild onto.
    NoSurvivors,
}

impl std::fmt::Display for RebuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebuildError::EngineAlive(e) => {
                write!(f, "rebuild target engine {e} is still alive")
            }
            RebuildError::NoSurvivors => write!(f, "no surviving targets to rebuild onto"),
        }
    }
}

impl std::error::Error for RebuildError {}

/// Rebuilds after the death of `dead_engine`. Must be awaited from a
/// simulation task; takes simulated time proportional to the data moved.
///
/// Errors (without side effects) if the engine is still alive (kill it
/// first) or if no engine survives to rebuild onto.
pub async fn rebuild_engine(
    d: &Rc<Deployment>,
    dead_engine: u32,
) -> Result<RebuildReport, RebuildError> {
    if d.engines[dead_engine as usize].is_alive() {
        return Err(RebuildError::EngineAlive(dead_engine));
    }
    let tpe = d.spec.targets_per_engine;
    let pool_targets = d.spec.pool_targets();
    let survivors: Vec<u32> = (0..pool_targets)
        .filter(|&t| d.engine_of_target(t).is_alive())
        .collect();
    if survivors.is_empty() {
        return Err(RebuildError::NoSurvivors);
    }

    let _rebuild_span = d.sim.span("rebuild", "rebuild");

    // 1. Pool-map update: remap each dead target onto a survivor.
    let remap_span = d.sim.span("rebuild", "remap");
    let dead_targets: Vec<u32> = (dead_engine * tpe..(dead_engine + 1) * tpe).collect();
    for (i, &t) in dead_targets.iter().enumerate() {
        d.set_target_remap(t, survivors[i % survivors.len()]);
    }
    remap_span.end();

    // 2. Enumerate affected objects and stream their data back to full
    //    redundancy. Work is fanned out with bounded concurrency.
    let start = d.sim.now();
    let mut report = RebuildReport::default();
    let gate = PrioritySemaphore::fifo(
        REBUILD_STREAMS_PER_ENGINE * (survivors.len() / tpe.max(1) as usize).max(1),
    );
    let mut moves = Vec::new();
    for cu in d.pool.cont_list() {
        let cont = d.pool.cont_open(cu).expect("listed container opens");
        for oid in cont.list_objects() {
            let class = oid.class();
            // The targets this object's cells occupy, per class layout.
            let placed: Vec<u32> = match class {
                ObjectClass::RP2 => replica_targets(oid, pool_targets),
                ObjectClass::EC2P1 => {
                    let (mut dts, pt) = ec_targets(oid, pool_targets);
                    dts.push(pt);
                    dts
                }
                _ => stripe_targets(oid, pool_targets),
            };
            let hit: Vec<u32> = placed
                .iter()
                .copied()
                .filter(|t| dead_targets.contains(t))
                .collect();
            if hit.is_empty() {
                continue;
            }
            match class {
                ObjectClass::RP2 | ObjectClass::EC2P1 => {
                    // Redundant classes tolerate exactly one lost cell.
                    if hit.len() >= placed.len() {
                        report.objects_lost += 1;
                        continue;
                    }
                    let bytes = object_bytes(d, cu, oid);
                    report.objects_moved += 1;
                    report.bytes_moved += bytes;
                    for dead_t in hit {
                        // Stream from any surviving cell (EC pays the
                        // reconstruction read amplification in `bytes`,
                        // which includes parity).
                        let src = placed
                            .iter()
                            .copied()
                            .find(|t| !dead_targets.contains(t))
                            .unwrap_or(survivors[0]);
                        let dst = d.resolve_target(dead_t);
                        let (d2, gate) = (Rc::clone(d), gate.clone());
                        moves.push(async move {
                            let _slot = gate.acquire_one(AdmissionClass::Normal).await;
                            d2.stream_between_targets(src, dst, bytes).await;
                        });
                    }
                }
                // Unprotected data on the dead engine is gone.
                _ => report.objects_lost += 1,
            }
        }
    }
    let moves: Vec<_> = moves.into_iter().map(Box::pin).collect();
    {
        let _move_span = d.sim.span("rebuild", "move");
        join_all(moves).await;
    }
    // Fixed pool-map propagation cost bookends the pass.
    let _prop_span = d.sim.span("rebuild", "propagate");
    d.sim.sleep(SimDuration::from_millis(2)).await;
    report.duration_secs = (d.sim.now() - start).as_secs_f64();
    Ok(report)
}

/// Approximate stored bytes of an object (arrays: logical size + parity;
/// KVs: entries × calibrated entry size).
fn object_bytes(d: &Rc<Deployment>, cu: Uuid, oid: Oid) -> u64 {
    let cont = d.pool.cont_open(cu).expect("container opens");
    if let Ok(size) = cont.array_size(oid) {
        let parity = cont
            .array_parity(oid)
            .ok()
            .flatten()
            .map(|p| p.len() as u64)
            .unwrap_or(0);
        size + parity
    } else if let Ok(keys) = cont.kv_list_keys(oid) {
        keys.len() as u64 * d.spec.calibration.kv_entry_bytes
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SimClient;
    use crate::deploy::ClusterSpec;
    use bytes::Bytes;
    use daosim_kernel::Sim;
    use daosim_objstore::prelude::{DaosApi, OidAllocator};
    use std::cell::RefCell;

    const MIB: u64 = 1024 * 1024;

    #[test]
    fn rebuild_restores_write_availability_for_replicated_objects() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(2, 1));
        let report: Rc<RefCell<RebuildReport>> = Rc::default();
        {
            let (d, report) = (Rc::clone(&d), Rc::clone(&report));
            sim.spawn(async move {
                let client = SimClient::for_process(&d, 0, 0);
                let cont = client
                    .cont_open_or_create(Uuid::from_name(b"rb"))
                    .await
                    .unwrap();
                let mut alloc = OidAllocator::new(1);
                let payload = Bytes::from(vec![9u8; MIB as usize]);
                let mut handles = Vec::new();
                for _ in 0..12 {
                    let oid = alloc.next(ObjectClass::RP2);
                    let h = client.array_create(&cont, oid).await.unwrap();
                    client
                        .array_write(&cont, &h, 0, payload.clone())
                        .await
                        .unwrap();
                    handles.push(h);
                }
                d.kill_engine(0);
                // Degraded: reads work, writes to objects with a dead
                // replica fail.
                let mut blocked = 0;
                for h in &handles {
                    client.array_read(&cont, h, 0, MIB).await.unwrap();
                    if client
                        .array_write(&cont, h, 0, payload.clone())
                        .await
                        .is_err()
                    {
                        blocked += 1;
                    }
                }
                assert!(blocked > 0, "some degraded writes must fail pre-rebuild");

                let r = rebuild_engine(&d, 0).await.expect("valid rebuild");
                *report.borrow_mut() = r;

                // Redundancy restored: every write succeeds again.
                for h in &handles {
                    client
                        .array_write(&cont, h, 0, payload.clone())
                        .await
                        .unwrap();
                    let got = client.array_read(&cont, h, 0, MIB).await.unwrap();
                    assert_eq!(got, payload);
                }
            });
        }
        sim.run().expect_quiescent();
        let r = *report.borrow();
        assert!(
            r.objects_moved > 0,
            "rebuild must have moved objects: {r:?}"
        );
        assert!(r.bytes_moved >= r.objects_moved as u64 * MIB);
        assert!(r.duration_secs > 0.0, "data movement takes time");
    }

    #[test]
    fn rebuild_restores_ec_objects_too() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(2, 1));
        {
            let d = Rc::clone(&d);
            sim.spawn(async move {
                let client = SimClient::for_process(&d, 0, 0);
                let cont = client
                    .cont_open_or_create(Uuid::from_name(b"rbec"))
                    .await
                    .unwrap();
                let mut alloc = OidAllocator::new(1);
                let payload = Bytes::from(vec![6u8; MIB as usize]);
                let mut handles = Vec::new();
                for _ in 0..12 {
                    let oid = alloc.next(ObjectClass::EC2P1);
                    let h = client.array_create(&cont, oid).await.unwrap();
                    client
                        .array_write(&cont, &h, 0, payload.clone())
                        .await
                        .unwrap();
                    handles.push(h);
                }
                d.kill_engine(2);
                let r = rebuild_engine(&d, 2).await.expect("valid rebuild");
                assert!(r.objects_moved > 0, "EC objects must rebuild: {r:?}");
                // Full redundancy again: writes and reads succeed on all.
                for h in &handles {
                    client
                        .array_write(&cont, h, 0, payload.clone())
                        .await
                        .unwrap();
                    let got = client.array_read(&cont, h, 0, MIB).await.unwrap();
                    assert_eq!(got, payload);
                }
            });
        }
        sim.run().expect_quiescent();
    }

    #[test]
    fn rebuild_reports_unprotected_objects_as_lost() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(2, 1));
        let lost: Rc<std::cell::Cell<usize>> = Rc::default();
        {
            let (d, lost) = (Rc::clone(&d), Rc::clone(&lost));
            sim.spawn(async move {
                let client = SimClient::for_process(&d, 0, 0);
                let cont = client
                    .cont_open_or_create(Uuid::from_name(b"rb2"))
                    .await
                    .unwrap();
                let mut alloc = OidAllocator::new(1);
                for _ in 0..32 {
                    let oid = alloc.next(ObjectClass::S1);
                    let h = client.array_create(&cont, oid).await.unwrap();
                    client
                        .array_write(&cont, &h, 0, Bytes::from(vec![1u8; 4096]))
                        .await
                        .unwrap();
                    client.array_close(&cont, h).await.unwrap();
                }
                d.kill_engine(1);
                let r = rebuild_engine(&d, 1).await.expect("valid rebuild");
                lost.set(r.objects_lost);
                assert_eq!(r.objects_moved, 0);
            });
        }
        sim.run().expect_quiescent();
        assert!(lost.get() > 0, "S1 objects on the dead engine are lost");
    }

    #[test]
    fn rebuild_duration_scales_with_data_volume() {
        let run = |objects: u32| {
            let sim = Sim::new();
            let d = Deployment::new(&sim, ClusterSpec::tcp(2, 1));
            let out: Rc<std::cell::Cell<f64>> = Rc::default();
            let (d2, out2) = (Rc::clone(&d), Rc::clone(&out));
            sim.spawn(async move {
                let client = SimClient::for_process(&d2, 0, 0);
                let cont = client
                    .cont_open_or_create(Uuid::from_name(b"rb3"))
                    .await
                    .unwrap();
                let mut alloc = OidAllocator::new(1);
                let payload = Bytes::from(vec![2u8; MIB as usize]);
                for _ in 0..objects {
                    let oid = alloc.next(ObjectClass::RP2);
                    let h = client.array_create(&cont, oid).await.unwrap();
                    client
                        .array_write(&cont, &h, 0, payload.clone())
                        .await
                        .unwrap();
                    client.array_close(&cont, h).await.unwrap();
                }
                d2.kill_engine(0);
                let r = rebuild_engine(&d2, 0).await.expect("valid rebuild");
                out2.set(r.duration_secs);
            });
            sim.run().expect_quiescent();
            out.get()
        };
        let small = run(8);
        let large = run(64);
        assert!(
            large > small * 2.0,
            "8x the data should take much longer: {small:.4}s vs {large:.4}s"
        );
    }

    #[test]
    fn rebuild_of_a_live_engine_is_an_error() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(2, 1));
        {
            let d = Rc::clone(&d);
            sim.spawn(async move {
                assert_eq!(
                    rebuild_engine(&d, 0).await,
                    Err(RebuildError::EngineAlive(0))
                );
                // No side effects: a remap-free pool map, engine still up.
                assert_eq!(d.resolve_target(0), 0);
                assert!(d.engines[0].is_alive());
            });
        }
        sim.run().expect_quiescent();
    }

    #[test]
    fn rebuild_with_no_survivors_is_an_error() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
        {
            let d = Rc::clone(&d);
            sim.spawn(async move {
                d.kill_engine(0);
                d.kill_engine(1);
                assert_eq!(rebuild_engine(&d, 0).await, Err(RebuildError::NoSurvivors));
            });
        }
        sim.run().expect_quiescent();
    }
}
