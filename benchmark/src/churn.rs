//! `dfs-churn`: many small POSIX-style file operations through the DFS
//! namespace, a closed loop per rank. Each rank works in its own
//! directory, cycling through a fixed set of file names in a seeded
//! order: create-or-open, write, close, then stat, open, read, close;
//! every few iterations it also lists the directory and unlinks the file.
//!
//! Tiny flows and one settle per RPC make this the workload for per-op
//! client protocol code, DFS, dirent Key-Values and conditional
//! insert/remove/punch. Deleting beside writing exercises space
//! accounting: the pool is charged for every write while only the last
//! version of each file stays live.

use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use daosim_cluster::{ClusterSpec, Deployment, QosClass};
use daosim_core::workload::payload;
use daosim_dfs::{DfsError, DfsHandle};
use daosim_kernel::rng::splitmix64;
use daosim_kernel::sync::WaitGroup;
use daosim_kernel::Sim;
use daosim_objstore::prelude::Uuid;

use crate::trace::{BenchClient, Site};
use crate::workload::{
    execute, finish, watch_end, Bandwidth, Class, RepOutcome, SharedLedger, Workload,
};

const CLIENT_NODES: u16 = 2;
const RANKS: u32 = 32;
const NAMES: u32 = 64;
const ITERATIONS: u32 = 100;
const FILE_BYTES: u64 = 16 * 1024;
/// Every this many iterations a rank lists its directory and unlinks the
/// file it just used.
const META_EVERY: u32 = 4;
/// Distinct file payloads, generated from the seed at set-up.
const PAYLOADS: u64 = 16;

pub fn run<D: BenchClient>(seed: u64, t0: Instant) -> RepOutcome {
    let sim = Sim::new();
    let spec = ClusterSpec::tcp(1, CLIENT_NODES);
    let d = Deployment::new(&sim, spec);
    let pool: Rc<Vec<Bytes>> = Rc::new(
        (0..PAYLOADS)
            .map(|i| payload(FILE_BYTES, splitmix64(seed ^ i)))
            .collect(),
    );
    let ledger: SharedLedger = Rc::default();
    let ppn = RANKS.div_ceil(CLIENT_NODES as u32);
    let tasks = WaitGroup::new();
    for p in 0..RANKS {
        let client = D::connect(&d, (p / ppn) as u16, p % ppn, QosClass::Unclassified);
        let rank = Rank {
            p,
            seed,
            sim: sim.clone(),
            pool: Rc::clone(&pool),
            ledger: Rc::clone(&ledger),
        };
        let token = tasks.add();
        client.clone().spawn_task(async move {
            rank.run(client).await;
            drop(token);
        });
    }
    let end = watch_end(&d, &tasks);
    let timing = execute(&sim, t0);
    finish(
        Workload::DfsChurn,
        &d,
        &ledger,
        &end,
        Bandwidth::GlobalTiming,
        timing,
    )
}

struct Rank {
    p: u32,
    seed: u64,
    sim: Sim,
    pool: Rc<Vec<Bytes>>,
    ledger: SharedLedger,
}

impl Rank {
    /// This rank's seeded visiting order of its file names.
    fn order(&self) -> Vec<u32> {
        let mut names: Vec<u32> = (0..NAMES).collect();
        let mut state = splitmix64(self.seed ^ 0xD1F5 ^ ((self.p as u64) << 32));
        for i in (1..names.len()).rev() {
            state = splitmix64(state);
            names.swap(i, (state % (i as u64 + 1)) as usize);
        }
        names
    }

    async fn run<D: BenchClient>(self, client: D) {
        let dfs = DfsHandle::mount(client.clone(), Uuid::from_name(b"dfs-churn"), self.p + 1);
        let dfs = match client.wrap(Site::Dfs, dfs).await {
            Ok(dfs) => dfs,
            Err(e) => {
                return self
                    .ledger
                    .borrow_mut()
                    .error(format!("rank {} mount: {e}", self.p))
            }
        };
        let dir = format!("/r{}", self.p);
        if let Err(e) = client.wrap(Site::Dfs, dfs.mkdir(&dir)).await {
            return self.ledger.borrow_mut().error(format!("mkdir {dir}: {e}"));
        }
        let order = self.order();
        for i in 0..ITERATIONS {
            let name = format!("f{}", order[(i % NAMES) as usize]);
            let path = format!("{dir}/{name}");
            let h = splitmix64(self.seed ^ ((self.p as u64) << 32) ^ i as u64);
            let data = self.pool[(h % PAYLOADS) as usize].clone();

            self.ledger.borrow_mut().attempt(Class::Write);
            let due = self.sim.now();
            let wrote: Result<(), DfsError> = async {
                let mut f = client.wrap(Site::Dfs, dfs.open_or_create(&path)).await?;
                client
                    .wrap(Site::Dfs, dfs.write(&mut f, 0, data.clone()))
                    .await?;
                client.wrap(Site::Dfs, dfs.close(f)).await
            }
            .await;
            self.op_done(Class::Write, i, due, wrote.is_ok());

            self.ledger.borrow_mut().attempt(Class::Read);
            let due = self.sim.now();
            let read: Result<Bytes, DfsError> = async {
                let st = client.wrap(Site::Dfs, dfs.stat(&path)).await?;
                if st.size != FILE_BYTES {
                    self.ledger
                        .borrow_mut()
                        .error(format!("stat {path}: size {}", st.size));
                }
                let f = client.wrap(Site::Dfs, dfs.open(&path)).await?;
                let got = client.wrap(Site::Dfs, dfs.read(&f, 0, FILE_BYTES)).await?;
                client.wrap(Site::Dfs, dfs.close(f)).await?;
                Ok(got)
            }
            .await;
            if let Ok(got) = &read {
                if *got != data {
                    self.ledger
                        .borrow_mut()
                        .error(format!("read {path}: {} bytes, content differs", got.len()));
                }
            }
            self.op_done(Class::Read, i, due, read.is_ok());

            if i % META_EVERY == META_EVERY - 1 {
                self.ledger.borrow_mut().attempt(Class::Meta);
                let due = self.sim.now();
                let meta: Result<(), DfsError> = async {
                    let listed = client.wrap(Site::Dfs, dfs.readdir(&dir)).await?;
                    if !listed.iter().any(|e| e.name == name) {
                        self.ledger
                            .borrow_mut()
                            .error(format!("readdir {dir}: {name} missing"));
                    }
                    client.wrap(Site::Dfs, dfs.unlink(&path)).await
                }
                .await;
                self.op_done(Class::Meta, i, due, meta.is_ok());
            }
        }
    }

    fn op_done(&self, class: Class, i: u32, due: daosim_kernel::SimTime, ok: bool) {
        let now = self.sim.now();
        let mut l = self.ledger.borrow_mut();
        l.done(class, due, now, FILE_BYTES, ok);
        if class != Class::Meta {
            l.io(class, self.p, i, (due, now), FILE_BYTES);
        }
    }
}
