//! `ior-bulk`: IOR in segments mode, `-a DAOS`, file per process, over
//! a wide TCP deployment — a closed loop of 1 MiB array transfers, a
//! window of them in flight per rank on an event queue.
//!
//! It drives the fabric flow solver and the kernel hard (about a
//! thousand concurrent flows) and never touches a Key-Value, an object
//! lock, field I/O or DFS, so it is the workload on which a change to
//! those layers should show no effect.

use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use daosim_cluster::{ClusterSpec, Deployment, QosClass};
use daosim_core::workload::payload;
use daosim_kernel::rng::splitmix64;
use daosim_kernel::sync::{Barrier, WaitGroup};
use daosim_kernel::{Sim, SimDuration};
use daosim_objstore::prelude::{DaosError, EventQueue, ObjectClass, OidAllocator, OpOutput, Uuid};

use crate::trace::BenchClient;
use crate::workload::{
    execute, finish, watch_end, Bandwidth, Class, RepOutcome, SharedLedger, Workload,
};

const SERVERS: u16 = 8;
const CLIENT_NODES: u16 = 16;
const PPN: u32 = 16;
const TRANSFER: u64 = 1024 * 1024;
const SEGMENTS: u32 = 8;
const WINDOW: usize = 4;
const ITERATIONS: u32 = 1;
/// Ranks leave the pre-I/O barrier up to this far apart, a seeded skew
/// per rank and phase: the seed's only influence on simulated time.
const MAX_SKEW_NS: u64 = 200_000;
/// One read segment in this many has its bytes compared, not only its
/// length.
const CONTENT_SAMPLE: u64 = 64;

pub fn run<D: BenchClient>(seed: u64, t0: Instant) -> RepOutcome {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(SERVERS, CLIENT_NODES));
    let data = payload(TRANSFER * SEGMENTS as u64, seed);
    let ledger: SharedLedger = Rc::default();
    let procs = CLIENT_NODES as u32 * PPN;
    let barrier = Barrier::new(procs as usize);
    let tasks = WaitGroup::new();
    for p in 0..procs {
        let client = D::connect(&d, (p / PPN) as u16, p % PPN, QosClass::Unclassified);
        let rank = Rank {
            p,
            seed,
            client: client.clone(),
            sim: sim.clone(),
            data: data.clone(),
            barrier: barrier.clone(),
            ledger: Rc::clone(&ledger),
        };
        let token = tasks.add();
        client.spawn_task(async move {
            rank.run().await;
            drop(token);
        });
    }
    let end = watch_end(&d, &tasks);
    let timing = execute(&sim, t0);
    finish(
        Workload::IorBulk,
        &d,
        &ledger,
        &end,
        Bandwidth::Synchronous,
        timing,
    )
}

struct Rank<D> {
    p: u32,
    seed: u64,
    client: D,
    sim: Sim,
    data: Bytes,
    barrier: Barrier,
    ledger: SharedLedger,
}

impl<D: BenchClient> Rank<D> {
    /// Segment `s` of rank `p` carries payload chunk `(s + p) % SEGMENTS`,
    /// so a read served from another rank's object fails the check.
    fn chunk(&self, s: u32) -> Bytes {
        let c = ((s + self.p) % SEGMENTS) as usize * TRANSFER as usize;
        self.data.slice(c..c + TRANSFER as usize)
    }

    async fn sync(&self) {
        self.barrier.wait().await;
        self.barrier.wait().await;
    }

    /// The barriers before a phase, then this rank's skew.
    async fn start(&self, phase: u32) {
        self.sync().await;
        let skew = splitmix64(self.seed ^ ((self.p as u64) << 32) ^ phase as u64) % MAX_SKEW_NS;
        self.sim.sleep(SimDuration::from_nanos(skew)).await;
    }

    fn fail(&self, what: &str, e: DaosError) {
        self.ledger
            .borrow_mut()
            .error(format!("rank {} {what}: {e}", self.p));
    }

    async fn run(self) {
        let cont = match self
            .client
            .cont_open_or_create(Uuid::from_name(b"ior-testdir"))
            .await
        {
            Ok(c) => c,
            Err(e) => return self.fail("container open", e),
        };
        let mut alloc = OidAllocator::new(self.p + 1);
        let bytes = TRANSFER * SEGMENTS as u64;
        for iter in 0..ITERATIONS {
            let oid = alloc.next(ObjectClass::S1);

            self.start(2 * iter).await;
            let start = self.sim.now();
            let handle = match self.client.array_create(&cont, oid).await {
                Ok(h) => Rc::new(h),
                Err(e) => return self.fail("array_create", e),
            };
            let eq = EventQueue::new(self.client.clone());
            for s in 0..SEGMENTS {
                eq.wait_capacity(WINDOW).await;
                let (client, cont, h) = (self.client.clone(), cont.clone(), Rc::clone(&handle));
                let (ledger, sim, chunk) =
                    (Rc::clone(&self.ledger), self.sim.clone(), self.chunk(s));
                ledger.borrow_mut().attempt(Class::Write);
                let due = sim.now();
                eq.submit(async move {
                    let r = client
                        .array_write(&cont, &h, s as u64 * TRANSFER, chunk)
                        .await;
                    ledger
                        .borrow_mut()
                        .done(Class::Write, due, sim.now(), TRANSFER, r.is_ok());
                    r.map(|()| OpOutput::Unit)
                });
            }
            eq.wait_all().await;
            drop(eq);
            let handle = Rc::try_unwrap(handle).expect("every write completed");
            if let Err(e) = self.client.array_close(&cont, handle).await {
                return self.fail("array_close", e);
            }
            self.ledger
                .borrow()
                .io(Class::Write, self.p, iter, (start, self.sim.now()), bytes);
            self.sync().await;

            self.start(2 * iter + 1).await;
            let start = self.sim.now();
            let handle = match self.client.array_open(&cont, oid).await {
                Ok(h) => Rc::new(h),
                Err(e) => return self.fail("array_open", e),
            };
            let eq = EventQueue::new(self.client.clone());
            for s in 0..SEGMENTS {
                eq.wait_capacity(WINDOW).await;
                let (client, cont, h) = (self.client.clone(), cont.clone(), Rc::clone(&handle));
                let (ledger, sim) = (Rc::clone(&self.ledger), self.sim.clone());
                let sampled = splitmix64(
                    self.seed ^ ((self.p as u64) << 32) ^ ((iter as u64) << 16) ^ s as u64,
                )
                .is_multiple_of(CONTENT_SAMPLE);
                let want = sampled.then(|| self.chunk(s));
                let p = self.p;
                ledger.borrow_mut().attempt(Class::Read);
                let due = sim.now();
                eq.submit(async move {
                    let r = client
                        .array_read(&cont, &h, s as u64 * TRANSFER, TRANSFER)
                        .await;
                    let mut l = ledger.borrow_mut();
                    if let Ok(got) = &r {
                        if got.len() as u64 != TRANSFER {
                            l.error(format!("rank {p} segment {s}: read {} bytes", got.len()));
                        } else if want.is_some_and(|w| w != *got) {
                            l.error(format!("rank {p} segment {s}: content differs"));
                        }
                    }
                    l.done(Class::Read, due, sim.now(), TRANSFER, r.is_ok());
                    r.map(|_| OpOutput::Unit)
                });
            }
            eq.wait_all().await;
            drop(eq);
            let handle = Rc::try_unwrap(handle).expect("every read completed");
            if let Err(e) = self.client.array_close(&cont, handle).await {
                return self.fail("array_close", e);
            }
            self.ledger
                .borrow()
                .io(Class::Read, self.p, iter, (start, self.sim.now()), bytes);
            self.sync().await;
        }
    }
}
