//! Event-queue destroy/abort semantics on the simulated backend.
//!
//! Regression suite for the EQ leak-on-drop bug: an `EventQueue` dropped
//! with in-flight simulated operations used to leave the spawned kernel
//! tasks running as orphans — their side effects still landed, their
//! completions piled up unharvested, and nothing could cancel them. The
//! queue now carries `daos_eq_destroy` semantics: dropping the last user
//! handle (or calling `abort`) wakes every in-flight operation, drops it
//! mid-flight, and resolves its event as `DaosError::Cancelled`.

use std::cell::RefCell;
use std::rc::Rc;

use daosim::bytes::Bytes;
use daosim::cluster::{ClusterSpec, Deployment, SimClient};
use daosim::kernel::Sim;
use daosim::objstore::{DaosApi, DaosError, EventQueue, ObjectClass, OidAllocator, Uuid};

const MIB: usize = 1 << 20;

/// Dropping the last EQ handle mid-flight cancels the operation: the
/// multi-MiB write never lands, and the simulation still quiesces (the
/// cancelled op's task resolves instead of being stranded).
#[test]
fn dropping_eq_mid_flight_cancels_the_operation() {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    let size: Rc<RefCell<Option<u64>>> = Rc::default();
    let size2 = Rc::clone(&size);
    sim.spawn(async move {
        let cont = client
            .cont_open_or_create(Uuid::from_name(b"eq-drop"))
            .await
            .unwrap();
        let oid = OidAllocator::new(3).next(ObjectClass::S1);
        let h = client.array_create(&cont, oid).await.unwrap();
        {
            let eq = EventQueue::new(client.clone());
            eq.array_write(&cont, &h, 0, Bytes::from(vec![7u8; 8 * MIB]));
            assert_eq!(eq.in_flight(), 1, "simulated write takes time");
            // Last user handle drops here with the write still in
            // flight: daos_eq_destroy, not an orphaned kernel task.
        }
        // Give the cancelled wrapper time to observe the abort, then
        // confirm the write never reached the store.
        let sim = client.deployment().sim.clone();
        sim.sleep(daosim::kernel::SimDuration::from_secs(5)).await;
        *size2.borrow_mut() = Some(client.array_size(&cont, &h).await.unwrap());
        client.array_close(&cont, h).await.unwrap();
    });
    sim.run().expect_quiescent();
    assert_eq!(
        *size.borrow(),
        Some(0),
        "cancelled write must not mutate the store"
    );
}

/// Explicit `abort` resolves every outstanding event as `Cancelled` in
/// the completion stream, later submissions fail the same way, and
/// clones keep the queue alive until the last one drops.
#[test]
fn abort_resolves_outstanding_events_as_cancelled() {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    let outcomes: Rc<RefCell<Vec<(u64, String)>>> = Rc::default();
    let outcomes2 = Rc::clone(&outcomes);
    sim.spawn(async move {
        let cont = client
            .cont_open_or_create(Uuid::from_name(b"eq-abort"))
            .await
            .unwrap();
        let oid = OidAllocator::new(4).next(ObjectClass::S1);
        let h = client.array_create(&cont, oid).await.unwrap();
        let eq = EventQueue::new(client.clone());
        let clone = eq.clone();
        eq.array_write(&cont, &h, 0, Bytes::from(vec![1u8; 4 * MIB]));
        eq.array_write(&cont, &h, 4 * MIB as u64, Bytes::from(vec![2u8; 4 * MIB]));
        assert_eq!(eq.in_flight(), 2);
        drop(clone); // surviving handles keep the queue armed
        assert!(!eq.is_aborted());
        eq.abort();
        // All outstanding events resolve as Cancelled through the
        // normal completion stream.
        for (ev, res) in eq.wait_all().await {
            outcomes2.borrow_mut().push((
                ev.0,
                match res {
                    Ok(o) => format!("ok:{o:?}"),
                    Err(e) => format!("err:{e:?}"),
                },
            ));
        }
        assert_eq!(eq.in_flight(), 0);
        // A destroyed queue rejects new work without spawning.
        let ev = eq.array_size(&cont, &h);
        let (got, res) = eq.wait().await.expect("failed event still completes");
        assert_eq!(got, ev);
        assert_eq!(res.unwrap_err(), DaosError::Cancelled);
        client.array_close(&cont, h).await.unwrap();
    });
    sim.run().expect_quiescent();
    let got = outcomes.borrow().clone();
    assert_eq!(
        got,
        vec![
            (0, "err:Cancelled".to_string()),
            (1, "err:Cancelled".to_string())
        ],
        "every in-flight event resolves as Cancelled"
    );
}

/// Aborting a queue whose operations are parked mid-flight wakes them in
/// launch order, so their `Cancelled` completions land in ascending event
/// order, the same in every process. (The waker registry used to be a
/// `HashMap`, drained in a per-process random order.)
#[test]
fn abort_mid_flight_cancels_in_event_order() {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    let order: Rc<RefCell<Vec<u64>>> = Rc::default();
    let order2 = Rc::clone(&order);
    sim.spawn(async move {
        let cont = client
            .cont_open_or_create(Uuid::from_name(b"eq-abort-order"))
            .await
            .unwrap();
        let oid = OidAllocator::new(5).next(ObjectClass::S1);
        let h = client.array_create(&cont, oid).await.unwrap();
        let eq = EventQueue::new(client.clone());
        for i in 0..16u64 {
            eq.array_write(
                &cont,
                &h,
                i * 8 * MIB as u64,
                Bytes::from(vec![3u8; 8 * MIB]),
            );
        }
        // Let every write start and park inside its transfer.
        let sim = client.deployment().sim.clone();
        sim.sleep(daosim::kernel::SimDuration::from_micros(200))
            .await;
        assert_eq!(eq.in_flight(), 16, "8 MiB writes are still in flight");
        eq.abort();
        for (ev, res) in eq.wait_all().await {
            assert_eq!(res.unwrap_err(), DaosError::Cancelled);
            order2.borrow_mut().push(ev.0);
        }
        client.array_close(&cont, h).await.unwrap();
    });
    sim.run().expect_quiescent();
    assert_eq!(*order.borrow(), (0..16).collect::<Vec<u64>>());
}
