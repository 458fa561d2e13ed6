//! ENOSPC is permanent and typed: a pool driven to full always yields
//! `DaosError::NoSpace` — never a panic, and never a transient-retry
//! spin — through both the embedded client (object-store capacity
//! accounting) and the simulated client (tiered-media occupancy).

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use daosim_cluster::{ClusterSpec, Deployment, ScmSpec, SimClient};
use daosim_kernel::Sim;
use daosim_objstore::prelude::{DaosApi, DaosError, EmbeddedClient, ObjectClass, Oid, Uuid};
use daosim_objstore::Pool;
use proptest::prelude::*;

/// The embedded backend never actually suspends; poll once.
fn block_on<F: std::future::Future>(fut: F) -> F::Output {
    let waker = std::task::Waker::noop();
    let mut cx = std::task::Context::from_waker(waker);
    let mut fut = std::pin::pin!(fut);
    match fut.as_mut().poll(&mut cx) {
        std::task::Poll::Ready(v) => v,
        std::task::Poll::Pending => panic!("embedded backend suspended"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Embedded client: filling an arbitrary tiny pool with arbitrary
    /// chunk sizes always ends in `NoSpace`, the error is permanent
    /// (no retry classification), and the pool stays full.
    #[test]
    fn embedded_full_pool_always_reports_no_space(
        capacity_kib in 1u64..32,
        chunk in 1usize..4096,
    ) {
        let pool = Rc::new(Pool::new(Uuid::from_name(b"tiny"), 4, capacity_kib * 1024));
        let client = EmbeddedClient::new(pool);
        let errors = block_on(async {
            let cont = client.cont_open_or_create(Uuid::from_name(b"c")).await.unwrap();
            let oid = Oid::generate(1, 1, ObjectClass::S1);
            let h = client.array_create(&cont, oid).await.unwrap();
            let mut off = 0u64;
            let mut errors = Vec::new();
            // Enough fresh extent bytes to overshoot any capacity drawn
            // above, plus two post-full probes.
            let rounds = (capacity_kib * 1024) as usize / chunk + 3;
            for _ in 0..rounds {
                match client
                    .array_write(&cont, &h, off, Bytes::from(vec![7u8; chunk]))
                    .await
                {
                    Ok(()) => off += chunk as u64,
                    Err(e) => errors.push(e),
                }
            }
            errors
        });
        prop_assert!(
            !errors.is_empty(),
            "a {capacity_kib} KiB pool never filled on {chunk}-byte writes"
        );
        for e in &errors {
            prop_assert_eq!(e, &DaosError::NoSpace, "full pool must say NoSpace");
            prop_assert!(!e.is_transient(), "NoSpace must be permanent, not retried");
        }
    }

    /// Simulated client: a deployment whose SCM write buffer is shrunk
    /// to a sliver (no NVMe tier to spill into) serves writes until the
    /// media is full, then fails each one with `NoSpace`. The run must
    /// go quiescent — a transient classification would send the retry
    /// layer spinning and strand the clients.
    #[test]
    fn simulated_full_pool_always_reports_no_space(
        writers in 1u32..4,
        chunk_kib in 1u64..32,
        seed in 0u32..1000,
    ) {
        let sim = Sim::new();
        let mut spec = ClusterSpec::tcp(1, 1);
        spec.targets_per_engine = 2;
        // 64 KiB of SCM per socket = 32 KiB per target, scm-only: once
        // every target slice is full there is nowhere left to write.
        spec.calibration.scm = ScmSpec {
            capacity: 64 * 1024,
            ..spec.calibration.scm
        };
        let pool_capacity = 2 * 64 * 1024u64;
        let d = Deployment::new(&sim, spec);
        let errors: Rc<RefCell<Vec<DaosError>>> = Rc::default();
        let chunk = (chunk_kib * 1024) as usize;
        // Overshoot the pool's total capacity from each writer, so the
        // full condition is reached no matter how shards spread.
        let rounds = (pool_capacity / chunk as u64 + 2) as u32;
        for w in 0..writers {
            let d = Rc::clone(&d);
            let errors = Rc::clone(&errors);
            sim.spawn(async move {
                let client = SimClient::for_process(&d, 0, w);
                let cont = client
                    .cont_open_or_create(Uuid::from_name(b"enospc"))
                    .await
                    .unwrap();
                let oid = Oid::generate(seed + w + 1, 1, ObjectClass::S2);
                let h = match client.array_open_or_create(&cont, oid).await {
                    Ok(h) => h,
                    Err(e) => {
                        errors.borrow_mut().push(e);
                        return;
                    }
                };
                let mut off = 0u64;
                for _ in 0..rounds {
                    match client
                        .array_write(&cont, &h, off, Bytes::from(vec![w as u8; chunk]))
                        .await
                    {
                        Ok(()) => off += chunk as u64,
                        Err(e) => errors.borrow_mut().push(e),
                    }
                }
            });
        }
        let out = sim.run();
        prop_assert_eq!(
            out.stranded_tasks, 0,
            "a full pool stranded clients (retry spin?)"
        );
        let errors = errors.borrow();
        prop_assert!(
            !errors.is_empty(),
            "{writers} writer(s) x {rounds} x {chunk} bytes never filled 128 KiB of SCM"
        );
        for e in errors.iter() {
            prop_assert_eq!(e, &DaosError::NoSpace, "full media must say NoSpace");
            prop_assert!(!e.is_transient(), "NoSpace must be permanent, not retried");
        }
    }
}
