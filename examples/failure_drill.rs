//! Failure drill: an engine dies mid-window — what survives?
//!
//! Archives a forecast twice, once with unreplicated (`S1`) arrays and
//! once with two-way replication (`RP2`), kills a DAOS engine, and runs
//! product generation against the degraded cluster. Also prints the
//! engine utilization report and a bandwidth timeline, showing the
//! simulator's observability surface.
//!
//! ```text
//! cargo run --release --example failure_drill
//! ```

use std::rc::Rc;

use daosim::cluster::{rebuild_engine, ClusterSpec, Deployment, SimClient};
use daosim::core::fieldio::{FieldIoConfig, FieldIoError, FieldStore};
use daosim::core::key::FieldKey;
use daosim::core::metrics::{bandwidth_timeline, EventKind, Recorder};
use daosim::core::workload::payload;
use daosim::kernel::sync::WaitGroup;
use daosim::kernel::{Sim, SimDuration};
use daosim::objstore::{DaosError, ObjectClass};

const MIB: u64 = 1024 * 1024;
const PROCS: u32 = 16;
const FIELDS_PER_PROC: u32 = 24;

fn key(proc_id: u32, n: u32) -> FieldKey {
    FieldKey::from_pairs([
        ("class", "od".to_string()),
        ("date", "20290101".to_string()),
        ("expver", "0001".to_string()),
        ("number", proc_id.to_string()),
        ("field", n.to_string()),
    ])
}

/// Surviving an engine loss needs the whole lookup chain replicated:
/// replicating only the arrays leaves the index Key-Values as single
/// points of failure, so the RP2 drill replicates both.
fn fieldio_cfg(array_class: ObjectClass) -> FieldIoConfig {
    FieldIoConfig {
        array_class,
        kv_class: if array_class == ObjectClass::RP2 {
            ObjectClass::RP2
        } else {
            FieldIoConfig::default().kv_class
        },
        ..Default::default()
    }
}

/// Returns (fields read OK, fields lost, read bandwidth timeline note).
fn drill(array_class: ObjectClass) -> (u32, u32) {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 2));
    let data = payload(MIB, 1);
    let rec = Recorder::new();
    let wg = WaitGroup::new();

    // Archive phase.
    for p in 0..PROCS {
        let (d, data, token) = (Rc::clone(&d), data.clone(), wg.add());
        sim.spawn(async move {
            let client = SimClient::for_process(&d, (p % 2) as u16, p / 2);
            let fs = FieldStore::connect(client, fieldio_cfg(array_class), p + 1)
                .await
                .unwrap();
            for n in 0..FIELDS_PER_PROC {
                fs.write_field(&key(p, n), data.clone()).await.unwrap();
            }
            drop(token);
        });
    }

    // Orchestrator: once archiving completes, kill an engine and read.
    let (ok, lost): (Rc<std::cell::Cell<u32>>, Rc<std::cell::Cell<u32>>) = Default::default();
    {
        let (d, wg, sim2, rec) = (Rc::clone(&d), wg.clone(), sim.clone(), rec.clone());
        let (ok, lost) = (Rc::clone(&ok), Rc::clone(&lost));
        sim.spawn(async move {
            wg.wait().await;
            d.kill_engine(0);
            sim2.sleep(SimDuration::from_millis(1)).await;
            let readers = WaitGroup::new();
            for p in 0..PROCS {
                let (d, sim3, rec, token) =
                    (Rc::clone(&d), sim2.clone(), rec.clone(), readers.add());
                let (ok, lost) = (Rc::clone(&ok), Rc::clone(&lost));
                sim2.spawn(async move {
                    let client = SimClient::for_process(&d, (p % 2) as u16, p / 2);
                    let fs = FieldStore::connect(client, fieldio_cfg(array_class), 1000 + p)
                        .await
                        .unwrap();
                    for n in 0..FIELDS_PER_PROC {
                        rec.record(0, p, n, EventKind::IoStart, sim3.now(), 0);
                        match fs.read_field(&key(p, n)).await {
                            Ok(field) => {
                                rec.record(
                                    0,
                                    p,
                                    n,
                                    EventKind::IoEnd,
                                    sim3.now(),
                                    field.len() as u64,
                                );
                                ok.set(ok.get() + 1);
                            }
                            Err(FieldIoError::Daos {
                                source: DaosError::EngineUnavailable(_),
                                ..
                            }) => {
                                lost.set(lost.get() + 1);
                            }
                            Err(e) => panic!("unexpected failure: {e}"),
                        }
                    }
                    drop(token);
                });
            }
            readers.wait().await;
        });
    }
    let end = sim.run().expect_quiescent();

    if array_class == ObjectClass::RP2 {
        // Show the observability surface once, on the replicated run.
        println!("\nengine utilization (mean/max target busy fraction):");
        for (i, (mean, max)) in d.engine_utilization().iter().enumerate() {
            let state = if d.engines[i].is_alive() {
                "alive"
            } else {
                "DOWN"
            };
            println!("  engine {i} [{state}]: mean {mean:.2}, max {max:.2}");
        }
        let events = rec.take();
        let bucket = SimDuration::from_millis(50);
        let tl = bandwidth_timeline(&events, bucket, end);
        // The read phase starts once archiving is done; skip the buckets
        // before its first event.
        let first = events.iter().map(|e| e.t_ns).min().unwrap_or(0);
        println!("degraded read bandwidth over time (50 ms buckets):");
        for b in tl.iter().skip((first / bucket.as_nanos()) as usize).take(8) {
            let bar = "#".repeat((b.bw_gib * 4.0) as usize);
            println!(
                "  t={:>4} ms {:>6.2} GiB/s {bar}",
                b.t_ns / 1_000_000,
                b.bw_gib
            );
        }
    }
    (ok.get(), lost.get())
}

/// Rebuild act: archive replicated, kill an engine, run rebuild, show
/// that write availability returns and how long the data movement took.
fn rebuild_act() {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(2, 1));
    let data = payload(MIB, 2);
    {
        let (d, data) = (Rc::clone(&d), data.clone());
        sim.spawn(async move {
            let client = SimClient::for_process(&d, 0, 0);
            let fs = FieldStore::connect(client, fieldio_cfg(ObjectClass::RP2), 1)
                .await
                .unwrap();
            for n in 0..64 {
                fs.write_field(&key(0, n), data.clone()).await.unwrap();
            }
            d.kill_engine(0);
            // Degraded: some re-writes are rejected (broken redundancy).
            let mut rejected = 0;
            for n in 0..64 {
                if fs.write_field(&key(0, n), data.clone()).await.is_err() {
                    rejected += 1;
                }
            }
            println!("\nrebuild act: engine 0 down; {rejected}/64 re-writes rejected degraded");
            let report = rebuild_engine(&d, 0)
                .await
                .expect("rebuild of killed engine");
            println!(
                "rebuild moved {} objects ({:.1} MiB) in {:.1} ms of simulated time",
                report.objects_moved,
                report.bytes_moved as f64 / MIB as f64,
                report.duration_secs * 1e3
            );
            for n in 0..64 {
                fs.write_field(&key(0, n), data.clone()).await.unwrap();
            }
            println!("all 64 re-writes succeed after rebuild — redundancy restored");
        });
    }
    sim.run().expect_quiescent();
}

fn main() {
    println!("failure drill: 1 dual-engine DAOS server node, engine 0 killed after archiving");
    let total = PROCS * FIELDS_PER_PROC;

    let (ok, lost) = drill(ObjectClass::S1);
    println!("\nS1  (no replication): {ok}/{total} fields readable, {lost} lost");
    assert!(lost > 0, "an engine loss must cost unreplicated fields");

    let (ok2, lost2) = drill(ObjectClass::RP2);
    println!("RP2 (2-way replicas): {ok2}/{total} fields readable, {lost2} lost");
    assert_eq!(lost2, 0, "replication must cover a single engine loss");

    println!("\nreplication turned a {lost}-field loss into zero.");

    rebuild_act();
}
