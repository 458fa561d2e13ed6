//! The simulated DAOS client: `DaosApi` with modelled time.
//!
//! Every object operation is a placement plus one staged RPC
//! ([`SimClient::rpc`], DESIGN.md §3.4), decomposed the way the wire
//! protocol does it:
//!
//! * a request message (provider latency),
//! * engine-serial metadata work (container-handle validation — the cost
//!   that grows with the pool's container population),
//! * per-object *update locks* serializing conflicting updates (the
//!   DTX-leader surrogate that shared-index contention binds on),
//! * per-target service: FIFO queue, per-RPC CPU, media time, with bulk
//!   data as fabric flows through the software-stack links (writes
//!   client→engine, reads engine→client), pipelined with media service,
//! * a response message (provider latency).
//!
//! Data is applied to the backing [`daosim_objstore`] store at the
//! modelled completion point, so reads return real bytes and correctness
//! is testable end-to-end under the timing model.

use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use daosim_kernel::sync::{join2, join_all, timeout, AdmissionClass, Elapsed};
use daosim_kernel::{CounterHandle, HistogramHandle, MetricsRegistry, SimDuration};
use daosim_net::Endpoint;
use daosim_objstore::array::{extent_end, read_extent_end};
use daosim_objstore::ec;
use daosim_objstore::placement::{
    array_target_shards, ec_targets, kv_target, leader_target, replica_targets, ARRAY_CHUNK,
};
use daosim_objstore::prelude::{ArrayHandle, DaosApi, DaosError, ObjectClass, Oid, Result, Uuid};
use daosim_objstore::Container;

use crate::deploy::{Deployment, Engine, Target};
use crate::fault::jitter_salt;

/// Bucket bounds (ns) for the `client.op_ns` latency histogram:
/// 10 µs .. 10 s in decades, plus the implicit overflow bucket.
const OP_NS_BOUNDS: [u64; 7] = [
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Declares [`ClientOp`], its `ALL` list and its wire names at once.
macro_rules! client_ops {
    ($($op:ident => $name:literal,)*) => {
        /// The client operations that run under [`SimClient::retrying`].
        /// Each op owns a completion counter (`client.<op>.ops`) and
        /// shares the `client.op_ns` latency histogram; [`ClientMetrics`]
        /// resolves the handles once per deployment so completing an op
        /// is two `Cell` bumps, not a `format!` plus string-keyed map
        /// lookups.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum ClientOp {
            $($op,)*
        }

        impl ClientOp {
            pub const ALL: [ClientOp; [$($name),*].len()] = [$(ClientOp::$op),*];

            /// Wire name: span label and the tag inside `DaosError::Timeout`.
            pub fn name(self) -> &'static str {
                match self {
                    $(ClientOp::$op => $name,)*
                }
            }
        }
    };
}

client_ops! {
    KvPut => "kv_put",
    KvGet => "kv_get",
    KvPutIfAbsent => "kv_put_if_absent",
    KvRemove => "kv_remove",
    KvListKeys => "kv_list_keys",
    KvListRange => "kv_list_range",
    KvPutMulti => "kv_put_multi",
    ArrayCreate => "array_create",
    ArrayOpen => "array_open",
    ArrayOpenOrCreate => "array_open_or_create",
    ArrayWrite => "array_write",
    ArrayWriteVec => "array_write_vec",
    ArrayRead => "array_read",
    ArraySize => "array_size",
    ObjPunch => "obj_punch",
}

/// Workload class a client belongs to, for QoS accounting. Classified
/// clients record their op latencies into a per-class histogram
/// (`client.writer.op_ns` / `client.reader.op_ns`) on top of the shared
/// `client.op_ns`, so time-critical model output and bulk product
/// generation can be told apart in one registry snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QosClass {
    /// No class: only the shared histogram is fed (the default).
    #[default]
    Unclassified,
    /// Deadline-carrying model-output writer.
    Writer,
    /// Product-generation reader.
    Reader,
}

impl QosClass {
    pub fn name(self) -> &'static str {
        match self {
            QosClass::Unclassified => "unclassified",
            QosClass::Writer => "writer",
            QosClass::Reader => "reader",
        }
    }

    /// The admission lane this class queues in at every deployment
    /// service queue: writers carry deadlines and go urgent, everything
    /// else (readers, unclassified IOR-style clients) queues normal.
    pub fn admission_class(self) -> AdmissionClass {
        match self {
            QosClass::Writer => AdmissionClass::Urgent,
            QosClass::Reader | QosClass::Unclassified => AdmissionClass::Normal,
        }
    }
}

/// Pre-resolved `client.*` metric handles, one set per deployment (the
/// same interning pattern as [`crate::fault::ResilienceStats`]).
pub struct ClientMetrics {
    ops: [CounterHandle; ClientOp::ALL.len()],
    op_ns: HistogramHandle,
    writer_op_ns: HistogramHandle,
    reader_op_ns: HistogramHandle,
}

impl ClientMetrics {
    /// Registers every per-op counter and the latency histograms in
    /// `metrics`, so they appear in snapshots from time zero.
    pub fn new(metrics: &MetricsRegistry) -> Self {
        ClientMetrics {
            ops: ClientOp::ALL.map(|op| metrics.counter(&format!("client.{}.ops", op.name()))),
            op_ns: metrics.histogram("client.op_ns", &OP_NS_BOUNDS),
            writer_op_ns: metrics.histogram("client.writer.op_ns", &OP_NS_BOUNDS),
            reader_op_ns: metrics.histogram("client.reader.op_ns", &OP_NS_BOUNDS),
        }
    }

    /// Records one completed op and its end-to-end latency, splitting it
    /// by the issuing client's QoS class.
    fn note_op(&self, op: ClientOp, class: QosClass, dur_ns: u64) {
        self.ops[op as usize].inc();
        self.op_ns.observe(dur_ns);
        match class {
            QosClass::Unclassified => {}
            QosClass::Writer => self.writer_op_ns.observe(dur_ns),
            QosClass::Reader => self.reader_op_ns.observe(dur_ns),
        }
    }
}

/// Open-container handle for the simulated backend.
#[derive(Clone)]
pub struct SimCont {
    pub uuid: Uuid,
    cont: Arc<Container>,
}

impl SimCont {
    pub fn container(&self) -> &Arc<Container> {
        &self.cont
    }
}

/// How one shard of an op is served at its target ([`SimClient::serve`]).
#[derive(Clone, Copy)]
enum Service {
    /// Metadata RPC: engine meta on the shard's own engine, then this
    /// much target time, priced at placement.
    Small(SimDuration),
    KvUpdate,
    KvFetch,
    BulkWrite,
    BulkRead,
}

impl Service {
    fn at(self, target: u32, bytes: u64) -> Shard {
        Shard {
            target,
            bytes,
            service: self,
        }
    }
}

/// One target's part of an op.
#[derive(Clone, Copy)]
struct Shard {
    target: u32,
    bytes: u64,
    service: Service,
}

/// An op's shard list. Most ops touch one target, which stays inline, so
/// their placement allocates nothing.
enum Shards {
    One(Shard),
    Many(Vec<Shard>),
}

impl std::ops::Deref for Shards {
    type Target = [Shard];
    fn deref(&self) -> &[Shard] {
        match self {
            Shards::One(s) => std::slice::from_ref(s),
            Shards::Many(v) => v,
        }
    }
}

impl FromIterator<Shard> for Shards {
    fn from_iter<I: IntoIterator<Item = Shard>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        match (it.next(), it.next()) {
            (Some(one), None) => Shards::One(one),
            (a, b) => Shards::Many(a.into_iter().chain(b).chain(it).collect()),
        }
    }
}

/// The serial section an op's shards are served in ([`SimClient::rpc`]).
#[derive(Clone, Copy)]
enum Section<'a> {
    /// Metadata RPC: no object lock, no serial cost.
    Meta,
    /// A KV update; a conditional insert names its key.
    KvUpdate(Option<&'a [u8]>),
    KvFetch,
    /// Array ops lock their chunks in the order given: ascending and
    /// distinct, the global order, so batches cannot deadlock.
    ArrayUpdate(&'a [u64]),
    ArrayFetch(&'a [u64]),
}

/// A client process's connection to the simulated cluster, pinned to one
/// client-node socket.
#[derive(Clone)]
pub struct SimClient {
    d: Rc<Deployment>,
    ep: Endpoint,
    qos: QosClass,
}

impl SimClient {
    pub fn new(d: Rc<Deployment>, ep: Endpoint) -> Self {
        SimClient {
            d,
            ep,
            qos: QosClass::Unclassified,
        }
    }

    /// Convenience: the client for process `rank_on_node` of `client_node`.
    pub fn for_process(d: &Rc<Deployment>, client_node: u16, rank_on_node: u32) -> Self {
        let ep = d.client_endpoint(client_node, rank_on_node);
        SimClient::new(Rc::clone(d), ep)
    }

    /// Tags this client with a QoS class; every completed op's latency is
    /// then also recorded into the class's own histogram.
    pub fn with_qos(mut self, class: QosClass) -> Self {
        self.qos = class;
        self
    }

    pub fn qos(&self) -> QosClass {
        self.qos
    }

    /// The admission lane this client's ops queue in.
    fn lane(&self) -> AdmissionClass {
        self.qos.admission_class()
    }

    pub fn endpoint(&self) -> Endpoint {
        self.ep
    }

    pub fn deployment(&self) -> &Rc<Deployment> {
        &self.d
    }

    async fn latency(&self) {
        self.d.sim.sleep(self.d.fabric.msg_latency()).await;
    }

    /// Applies the pool map (rebuild remaps) to a placement target.
    fn live_target(&self, t: u32) -> u32 {
        self.d.resolve_target(t)
    }

    fn engine_for(&self, t: u32) -> Result<&Engine> {
        let e = self.d.engine_of_target(t);
        let down = || DaosError::EngineUnavailable(self.d.engine_index_of_target(t));
        e.is_alive().then_some(e).ok_or_else(down)
    }

    /// The first target whose engine is alive (failover); errors with the
    /// last target's engine when all are down, and with `NoTargets` when
    /// there are none (so an empty set never blames target 0's engine).
    fn first_alive(&self, targets: impl IntoIterator<Item = u32>) -> Result<u32> {
        let mut last = None;
        for t in targets {
            if self.d.engine_of_target(t).is_alive() {
                return Ok(t);
            }
            last = Some(t);
        }
        Err(last.map_or(DaosError::NoTargets, |t| {
            DaosError::EngineUnavailable(self.d.engine_index_of_target(t))
        }))
    }

    /// Fails an attempt before its request is sent if any shard's engine
    /// is down: writes need the full redundancy group.
    fn check_live(&self, shards: &[Shard]) -> Result<()> {
        shards
            .iter()
            .try_for_each(|s| self.engine_for(s.target).map(drop))
    }

    /// The live targets holding a KV key: every replica of a replicated
    /// object, else the key's home target.
    fn kv_home(&self, oid: Oid, key: &[u8]) -> impl Iterator<Item = u32> + '_ {
        let n = self.pool_targets();
        let replicated = oid.class().replicas(n) > 1;
        let replicas = replicated.then(|| replica_targets(oid, n));
        let home = (!replicated).then(|| kv_target(oid, key, n));
        let targets = replicas.into_iter().flatten().chain(home);
        targets.map(|t| self.live_target(t))
    }

    /// KV update placement: one shard per live target of every `(key,
    /// bytes)` entry; an empty placement is `NoTargets`.
    fn kv_updates<'k>(
        &self,
        oid: Oid,
        entries: impl IntoIterator<Item = (&'k [u8], u64)>,
    ) -> Result<Shards> {
        let shards: Shards = entries
            .into_iter()
            .flat_map(|(key, bytes)| {
                self.kv_home(oid, key)
                    .map(move |t| Service::KvUpdate.at(t, bytes))
            })
            .collect();
        self.check_live(&shards)?;
        if shards.is_empty() {
            return Err(DaosError::NoTargets);
        }
        Ok(shards)
    }

    /// Metadata target for `oid`: the leader, failing over across the
    /// redundancy group (replicas, or EC data+parity cells).
    fn meta_target(&self, oid: Oid) -> Result<u32> {
        let n = self.pool_targets();
        let (group, parity) = if oid.class() == ObjectClass::EC2P1 {
            let (cells, parity) = ec_targets(oid, n);
            (cells, Some(parity))
        } else {
            (replica_targets(oid, n), None)
        };
        self.first_alive(group.into_iter().chain(parity).map(|t| self.live_target(t)))
    }

    /// Array extent placement, live-mapped: every replica of a replicated
    /// object takes the whole extent; otherwise each stripe target takes
    /// the bytes of the chunks that land on it.
    fn extent(&self, oid: Oid, offset: u64, len: u64) -> impl Iterator<Item = (u32, u64)> + '_ {
        let n = self.pool_targets();
        let replicated = oid.class().replicas(n) > 1;
        let replicas = replicated.then(|| replica_targets(oid, n));
        let stripes = (!replicated).then(|| array_target_shards(oid, offset, len, n));
        let replicas = replicas.into_iter().flatten().map(move |t| (t, len));
        let shards = replicas.chain(stripes.into_iter().flatten());
        shards.map(|(t, b)| (self.live_target(t), b))
    }

    /// The live EC cells `[data 0, data 1, parity]` of an object that is
    /// erasure-coded in this pool, else `None`. A malformed layout errors
    /// rather than panicking mid-campaign.
    fn ec_cells(&self, oid: Oid) -> Option<Result<[u32; 3]>> {
        let n = self.pool_targets();
        if oid.class() != ObjectClass::EC2P1 || oid.class().parity_cells(n) == 0 {
            return None;
        }
        let (data, parity) = ec_targets(oid, n);
        Some(match data[..] {
            [d0, d1] => Ok([d0, d1, parity].map(|t| self.live_target(t))),
            _ => Err(DaosError::NoTargets),
        })
    }

    /// Runs one attempt of an object op over its live-checked `shards`
    /// (DESIGN.md §3.4): request message → KV ops: engine meta on the
    /// primary → object lock(s) → `objstore` span, and for KV ops the
    /// leader's serial sleep (even when zero) → every shard served at once
    /// ([`Self::serve`]), first error in shard order → `commit` (the pool
    /// charge and store access, handed what a conditional insert found)
    /// → response message. A failed shard or commit ends the attempt
    /// without a response.
    async fn rpc<T>(
        &self,
        cont: &SimCont,
        oid: Oid,
        section: Section<'_>,
        shards: &[Shard],
        commit: impl AsyncFnOnce(Option<Bytes>) -> Result<T>,
    ) -> Result<T> {
        let cal = &self.d.spec.calibration;
        let kv = |span, serial| (Some(span), Some(serial), &[0][..]);
        let (span, serial, chunks) = match section {
            Section::Meta => (None, None, &[][..]),
            Section::KvUpdate(_) => kv("kv_update", cal.kv_update_serial_cost),
            Section::KvFetch => kv("kv_fetch", cal.kv_fetch_serial_cost),
            Section::ArrayUpdate(chunks) => (Some("array_update"), None, chunks),
            Section::ArrayFetch(chunks) => (Some("array_fetch"), None, chunks),
        };
        self.latency().await;
        let out = {
            if let (Some(_), Some(primary)) = (serial, shards.first()) {
                let engine = self.d.engine_of_target(primary.target);
                self.engine_serial(engine, self.cont_table_cost()).await;
            }
            // Held locks release in acquisition order.
            let mut held = (None, Vec::new());
            for &chunk in chunks {
                let lock = self.d.obj_lock(cont.uuid, oid, chunk);
                let guard = lock.acquire_one(self.lane()).await;
                match held.0 {
                    None => held.0 = Some(guard),
                    Some(_) => held.1.push(guard),
                }
            }
            let _os = span.map(|name| self.d.sim.span("objstore", name));
            if let Some(cost) = serial {
                self.d.sim.sleep(cost).await;
            }
            // The presence check runs inside the serial section, so racing
            // inserts of one key resolve to exactly one winner. A loser
            // pays a leader read, not the replica writes.
            let found = match section {
                Section::KvUpdate(Some(key)) => cont.cont.kv_get(oid, key)?,
                _ => None,
            };
            let leader_read = (found.as_ref().and(shards.first()))
                .map(|primary| Service::KvFetch.at(primary.target, cal.kv_entry_bytes));
            let shards = leader_read.as_ref().map_or(shards, std::slice::from_ref);
            // A lone shard is awaited directly: the same polls as a
            // one-slot join, without its allocations.
            if let [one] = shards {
                self.serve(*one).await?;
            } else {
                let all = join_all(shards.iter().map(|&s| self.serve(s)).collect()).await;
                all.into_iter().collect::<Result<()>>()?;
            }
            commit(found).await?
        };
        self.latency().await;
        Ok(out)
    }

    /// Serves one shard at its target. Bulk shards re-check their engine
    /// and pipeline their wire flow with the media service.
    async fn serve(&self, s: Shard) -> Result<()> {
        let cal = &self.d.spec.calibration;
        let (cpu, write, bulk) = match s.service {
            Service::Small(service) => {
                let engine = self.d.engine_of_target(s.target);
                self.engine_serial(engine, self.cont_table_cost()).await;
                self.target_service(s.target, service).await;
                return Ok(());
            }
            Service::KvUpdate => (cal.kv_op_cost, true, false),
            Service::KvFetch => (cal.kv_op_cost, false, false),
            Service::BulkWrite => (cal.rpc_cpu_cost, true, true),
            Service::BulkRead => (cal.rpc_cpu_cost, false, true),
        };
        let flow = if bulk {
            let engine = self.engine_for(s.target)?;
            self.engine_serial(engine, cal.shard_dispatch_cost).await;
            let e = self.d.engine_index_of_target(s.target);
            let (route, from, to) = if write {
                (self.d.write_route_id(self.ep, e), self.ep, engine.endpoint)
            } else {
                (self.d.read_route_id(e, self.ep), engine.endpoint, self.ep)
            };
            let cap = self.d.fabric.flow_cap(from, to);
            Some(self.d.fabric.net().transfer_interned(route, s.bytes, cap))
        } else {
            None
        };
        let tgt = self.d.target(s.target);
        let media = if write {
            let media = self.charge_media(s.target, s.bytes)?;
            tgt.tally.note_write(s.bytes);
            media
        } else {
            let media = tgt.media.read_time(s.bytes);
            tgt.tally.note_read(s.bytes);
            media
        };
        let service = self.target_service(s.target, cpu + media);
        match flow {
            Some(flow) => _ = join2(flow, service).await,
            None => service.await,
        }
        Ok(())
    }

    /// Charges `bytes` to target `t`'s media, priced at the receiving
    /// tier's rates; both tiers full is `NoSpace` (DESIGN.md §14).
    fn charge_media(&self, t: u32, bytes: u64) -> Result<SimDuration> {
        let charge = self.d.target(t).media.charge_write(bytes);
        charge.map(|c| c.time).map_err(|_| DaosError::NoSpace)
    }

    /// Container-handle validation cost, growing with the pool's
    /// container population.
    fn cont_table_cost(&self) -> SimDuration {
        let cal = &self.d.spec.calibration;
        cal.cont_table_cost(self.d.pool.cont_count())
    }

    /// Engine-serial work (container-handle validation, shard dispatch)
    /// on the engine's metadata executor; a zero cost skips the queue.
    async fn engine_serial(&self, engine: &Engine, cost: SimDuration) {
        if cost > SimDuration::ZERO {
            let _p = engine.meta.acquire_one(self.lane()).await;
            self.d.sim.sleep(cost).await;
        }
    }

    /// Occupies target `t` for `service` time, FIFO behind earlier work.
    async fn target_service(&self, t: u32, service: SimDuration) {
        let tgt = self.d.target(t);
        // Leaf spans: shard RPCs run concurrently in the fan-out, so
        // these must not adopt children on the shared task stack.
        let q = self.d.sim.span_leaf("media", "queue");
        // The backlog token covers exactly the queue wait; its Drop makes
        // the gauge exact even when an attempt timeout cancels the wait.
        let backlog = self.d.backlog().enter();
        let _p = tgt.sem.acquire_one(self.lane()).await;
        drop(backlog);
        q.end();
        let _s = self.d.sim.span_leaf("media", "service");
        self.d.sim.sleep(service).await;
        tgt.charge_busy(service.as_nanos());
    }

    /// A retried metadata op: an RPC to `oid`'s metadata target, then
    /// `commit` touches the store after the response.
    async fn meta_op<T>(
        &self,
        op: ClientOp,
        cont: &SimCont,
        oid: Oid,
        service: impl Fn(&Target) -> SimDuration,
        commit: impl Fn(&Container) -> Result<T>,
    ) -> Result<T> {
        self.retrying(op, || async {
            let t = self.meta_target(oid)?;
            let shard = Service::Small(service(self.d.target(t))).at(t, 0);
            self.rpc(cont, oid, Section::Meta, &[shard], async |_| Ok(()))
                .await?;
            commit(&cont.cont)
        })
        .await
    }

    /// Installs an object record on `targets`, charging their media at
    /// placement; a target whose charge fails is skipped, and the op
    /// fails once the others are served.
    async fn install(&self, cont: &SimCont, oid: Oid, targets: &[u32]) -> Result<()> {
        (targets.iter()).try_for_each(|&t| self.engine_for(t).map(drop))?;
        let cost = self.d.spec.calibration.array_create_cost;
        let mut charged = Ok(());
        let shards: Shards = targets
            .iter()
            .filter_map(|&t| match self.charge_media(t, 128) {
                Ok(media) => Some(Service::Small(cost + media).at(t, 128)),
                Err(e) => {
                    charged = Err(e);
                    None
                }
            })
            .collect();
        if !shards.is_empty() {
            self.rpc(cont, oid, Section::Meta, &shards, async |_| Ok(()))
                .await?;
        }
        charged
    }

    /// Array update of `iovs` under the `chunks` locks. An erasure-coded
    /// object takes one whole-object extent as two data cells plus the
    /// XOR parity cell.
    async fn write_extents(
        &self,
        cont: &SimCont,
        oid: Oid,
        iovs: &[(u64, Bytes)],
        chunks: &[u64],
    ) -> Result<()> {
        for (offset, data) in iovs {
            extent_end(*offset, data.len() as u64)?;
        }
        if iovs.is_empty() {
            return Ok(());
        }
        let mut parity = None;
        let shards: Shards = if let Some(cells) = self.ec_cells(oid) {
            let [(0, data)] = iovs else {
                let msg = "EC objects support one whole-object extent, at offset 0";
                return Err(DaosError::InvalidArg(msg));
            };
            let (h0, h1) = ec::split_halves(data);
            let p = Bytes::from(ec::xor_parity(&h0, &h1));
            let sizes = [h0.len(), h1.len(), p.len()];
            parity = Some(p);
            (cells?.into_iter().zip(sizes))
                .map(|(t, b)| Service::BulkWrite.at(t, b as u64))
                .collect()
        } else {
            iovs.iter()
                .flat_map(|(offset, data)| self.extent(oid, *offset, data.len() as u64))
                .map(|(t, b)| Service::BulkWrite.at(t, b))
                .collect()
        };
        self.check_live(&shards)?;
        let total = iovs.iter().map(|(_, d)| d.len() as u64).sum();
        let section = Section::ArrayUpdate(chunks);
        self.rpc(cont, oid, section, &shards, async |_| {
            self.d.pool.charge(total)?;
            match iovs {
                [(offset, data)] => cont.cont.array_write(oid, *offset, data.clone())?,
                _ => cont.cont.array_write_vec(oid, iovs.to_vec())?,
            }
            if let Some(parity) = parity {
                self.d.pool.charge(parity.len() as u64)?;
                cont.cont.array_set_parity(oid, parity)?;
            }
            Ok(())
        })
        .await
    }

    /// A pool-service RPC: a round trip around serial work at the pool
    /// metadata service, priced by `plan` on arrival.
    async fn pool_rpc<S, T>(
        &self,
        plan: impl FnOnce() -> (SimDuration, S),
        commit: impl FnOnce(S) -> Result<T>,
    ) -> Result<T> {
        self.latency().await;
        let (cost, planned) = plan();
        {
            let _p = self.d.pool_md.acquire_one(self.lane()).await;
            self.d.sim.sleep(cost).await;
        }
        let out = commit(planned)?;
        self.latency().await;
        Ok(out)
    }

    /// Runs `attempt` under the deployment's retry policy: deadline-bound
    /// attempts; transient failures back off with deterministic jitter
    /// and re-run, re-computing placement (failover); permanent errors
    /// return at once. The default fail-fast policy is a pass-through.
    ///
    /// A dropped (timed-out) attempt leaves no store write: pool charge
    /// and store mutation happen only in the commit stage of
    /// [`Self::rpc`]. Media is charged at one point,
    /// [`Self::charge_media`], when an update shard starts (creates: at
    /// placement), before the target queue wait. A dropped attempt keeps
    /// that charge, and its retry charges again (ROADMAP item 4).
    async fn retrying<T, Fut>(&self, op: ClientOp, mut attempt: impl FnMut() -> Fut) -> Result<T>
    where
        Fut: std::future::Future<Output = Result<T>>,
    {
        let (sim, policy, stats) = (&self.d.sim, self.d.spec.retry, self.d.resilience());
        let op_span = sim.span("client", op.name());
        let start = sim.now();
        let mut saw_unavailable = false;
        let mut n = 0u32;
        let result = loop {
            n += 1;
            let result = {
                let _a = sim.span("client", "attempt");
                if policy.enabled() && policy.attempt_timeout > SimDuration::ZERO {
                    let timed = timeout(sim, policy.attempt_timeout, attempt()).await;
                    timed.unwrap_or_else(|Elapsed| {
                        stats.note_timeout();
                        Err(DaosError::Timeout(op.name()))
                    })
                } else {
                    attempt().await
                }
            };
            match result {
                Err(e) if e.is_transient() && policy.enabled() => {
                    saw_unavailable |= matches!(e, DaosError::EngineUnavailable(_));
                    let deadline_hit = policy.op_deadline > SimDuration::ZERO
                        && sim.now() - start >= policy.op_deadline;
                    if n >= policy.max_attempts || deadline_hit {
                        stats.note_gave_up();
                        break Err(e);
                    }
                    stats.note_retry();
                    let salt = jitter_salt(self.ep, sim.now().as_nanos(), n);
                    sim.sleep(policy.backoff_delay(n, salt)).await;
                }
                result => {
                    if result.is_ok() && saw_unavailable {
                        stats.note_failover();
                    }
                    break result;
                }
            }
        };
        let elapsed = (sim.now() - start).as_nanos();
        self.d.client_metrics().note_op(op, self.qos, elapsed);
        op_span.end();
        result
    }
}

/// The public API. Every engine-touching operation is a placement plus
/// [`SimClient::rpc`], re-run through [`SimClient::retrying`] — placement
/// happens inside the attempt, which is how failover re-consults the
/// pool map. Container open/create (pool-metadata only), handle close
/// (client-local) and enumeration are left unwrapped: they never consult
/// an engine's liveness.
impl DaosApi for SimClient {
    type Cont = SimCont;

    async fn cont_open_or_create(&self, uuid: Uuid) -> Result<Self::Cont> {
        let cal = &self.d.spec.calibration;
        let plan = || match self.d.pool.cont_open(uuid) {
            Ok(_) => (cal.cont_open_cost, ()),
            Err(_) => (cal.cont_create_cost, ()),
        };
        let commit = |()| self.d.pool.cont_open_or_create(uuid);
        let cont = self.pool_rpc(plan, commit).await?;
        Ok(SimCont { uuid, cont })
    }

    async fn cont_open(&self, uuid: Uuid) -> Result<Self::Cont> {
        let plan = || (self.d.spec.calibration.cont_open_cost, ());
        let cont = self
            .pool_rpc(plan, |()| self.d.pool.cont_open(uuid))
            .await?;
        Ok(SimCont { uuid, cont })
    }

    async fn kv_put(&self, cont: &Self::Cont, oid: Oid, key: &[u8], value: Bytes) -> Result<()> {
        let (value, bytes) = (&value, (key.len() + value.len()) as u64);
        self.retrying(ClientOp::KvPut, || async move {
            let shards = self.kv_updates(oid, [(key, bytes)])?;
            self.rpc(cont, oid, Section::KvUpdate(None), &shards, async |_| {
                self.d.pool.charge(bytes)?;
                cont.cont.kv_put(oid, key, value.clone()).map(drop)
            })
            .await
        })
        .await
    }

    async fn kv_get(&self, cont: &Self::Cont, oid: Oid, key: &[u8]) -> Result<Option<Bytes>> {
        self.retrying(ClientOp::KvGet, || async move {
            let t = self.first_alive(self.kv_home(oid, key))?;
            let shard = Service::KvFetch.at(t, self.d.spec.calibration.kv_entry_bytes);
            self.rpc(cont, oid, Section::KvFetch, &[shard], async |_| {
                cont.cont.kv_get(oid, key)
            })
            .await
        })
        .await
    }

    async fn kv_put_if_absent(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        key: &[u8],
        value: Bytes,
    ) -> Result<Option<Bytes>> {
        let (value, bytes) = (&value, (key.len() + value.len()) as u64);
        self.retrying(ClientOp::KvPutIfAbsent, || async move {
            let shards = self.kv_updates(oid, [(key, bytes)])?;
            let section = Section::KvUpdate(Some(key));
            self.rpc(cont, oid, section, &shards, async |found| {
                if found.is_none() {
                    self.d.pool.charge(bytes)?;
                    cont.cont.kv_put(oid, key, value.clone())?;
                }
                Ok(found)
            })
            .await
        })
        .await
    }

    /// Removal writes a tombstone the way `kv_put` writes an entry.
    /// Removing an absent key is a successful no-op, per the `DaosApi`
    /// contract.
    async fn kv_remove(&self, cont: &Self::Cont, oid: Oid, key: &[u8]) -> Result<()> {
        self.retrying(ClientOp::KvRemove, || async move {
            let shards = self.kv_updates(oid, [(key, key.len() as u64)])?;
            self.rpc(
                cont,
                oid,
                Section::KvUpdate(None),
                &shards,
                async |_| match cont.cont.kv_remove(oid, key) {
                    Ok(_) | Err(DaosError::ObjNotFound(_)) => Ok(()),
                    Err(e) => Err(e),
                },
            )
            .await
        })
        .await
    }

    async fn kv_list_keys(&self, cont: &Self::Cont, oid: Oid) -> Result<Vec<Bytes>> {
        let cost = self.d.spec.calibration.kv_op_cost;
        let commit = |c: &Container| c.kv_list_keys(oid);
        self.meta_op(ClientOp::KvListKeys, cont, oid, |_| cost, commit)
            .await
    }

    /// Range listing: same RPC shape and cost as a full listing — the
    /// server walks less of the key space, not more.
    async fn kv_list_range(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        from: Bytes,
        until: Option<Bytes>,
    ) -> Result<Vec<Bytes>> {
        let cost = self.d.spec.calibration.kv_op_cost;
        let commit = |c: &Container| c.kv_list_range(oid, &from, until.as_deref());
        self.meta_op(ClientOp::KvListRange, cont, oid, |_| cost, commit)
            .await
    }

    /// Vectorized KV update: the whole batch rides one request — one
    /// latency round trip, one container-handle validation and one
    /// leader serial section — then every pair's replica services run
    /// concurrently. This is where batching beats N sequential puts.
    async fn kv_put_multi(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        pairs: Vec<(Bytes, Bytes)>,
    ) -> Result<()> {
        let pairs = &pairs;
        self.retrying(ClientOp::KvPutMulti, || async move {
            if pairs.is_empty() {
                return Ok(());
            }
            let entries = pairs
                .iter()
                .map(|(k, v)| (&k[..], (k.len() + v.len()) as u64));
            let total = entries.clone().map(|(_, b)| b).sum();
            let shards = self.kv_updates(oid, entries)?;
            self.rpc(cont, oid, Section::KvUpdate(None), &shards, async |_| {
                self.d.pool.charge(total)?;
                cont.cont.kv_put_multi(oid, pairs.clone())
            })
            .await
        })
        .await
    }

    async fn array_create(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        self.retrying(ClientOp::ArrayCreate, || async move {
            let replicas = replica_targets(oid, self.pool_targets());
            let replicas: Vec<u32> = replicas.into_iter().map(|t| self.live_target(t)).collect();
            self.install(cont, oid, &replicas).await?;
            cont.cont.array_create(oid)
        })
        .await
        .map(|()| ArrayHandle::from_open(oid))
    }

    async fn array_open(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        let cost = self.d.spec.calibration.array_open_cost;
        let service = |t: &Target| cost + t.media.read_time(128);
        let commit = |c: &Container| c.array_open(oid);
        self.meta_op(ClientOp::ArrayOpen, cont, oid, service, commit)
            .await
            .map(|()| ArrayHandle::from_open(oid))
    }

    async fn array_open_or_create(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        self.retrying(ClientOp::ArrayOpenOrCreate, || async move {
            let leader = self.live_target(leader_target(oid, self.pool_targets()));
            self.install(cont, oid, &[leader]).await?;
            cont.cont.array_open_or_create(oid)
        })
        .await
        .map(|()| ArrayHandle::from_open(oid))
    }

    async fn array_write(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        offset: u64,
        data: Bytes,
    ) -> Result<()> {
        let (iov, chunk) = ([(offset, data)], [offset / ARRAY_CHUNK]);
        self.retrying(ClientOp::ArrayWrite, || {
            self.write_extents(cont, handle.oid(), &iov, &chunk)
        })
        .await
    }

    /// Scatter-gather write: all extents ride one request, which takes
    /// each distinct chunk lock once, in ascending order; their shard
    /// flows and media services run concurrently.
    async fn array_write_vec(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        iovs: Vec<(u64, Bytes)>,
    ) -> Result<()> {
        let mut chunks: Vec<u64> = iovs.iter().map(|(off, _)| off / ARRAY_CHUNK).collect();
        chunks.sort_unstable();
        chunks.dedup();
        self.retrying(ClientOp::ArrayWriteVec, || {
            self.write_extents(cont, handle.oid(), &iovs, &chunks)
        })
        .await
    }

    async fn array_read(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        offset: u64,
        len: u64,
    ) -> Result<Bytes> {
        let (oid, chunk) = (handle.oid(), [offset / ARRAY_CHUNK]);
        self.retrying(ClientOp::ArrayRead, || async move {
            let end = read_extent_end(offset, len)?;
            // `lost` is the EC data cell to rebuild from its sibling and
            // the parity.
            let mut lost = None;
            let shards: Shards = if let Some(cells) = self.ec_cells(oid) {
                let [d0, d1, pt] = cells?;
                let size = cont.cont.array_size(oid)?;
                let (h0, h1) = (size.div_ceil(2), size - size.div_ceil(2));
                let alive = |t| self.d.engine_of_target(t).is_alive();
                let cells = match (alive(d0), alive(d1)) {
                    (true, true) => [(d0, h0.min(len)), (d1, h1.min(len))],
                    (false, false) => {
                        let e = self.d.engine_index_of_target(d0);
                        return Err(DaosError::EngineUnavailable(e));
                    }
                    // One data cell is lost: read its sibling and the parity.
                    (alive0, _) => {
                        self.engine_for(pt)?;
                        lost = Some(usize::from(alive0));
                        [if alive0 { (d0, h0) } else { (d1, h1) }, (pt, h0)]
                    }
                };
                cells
                    .into_iter()
                    .map(|(t, b)| Service::BulkRead.at(t, b))
                    .collect()
            } else if oid.class().replicas(self.pool_targets()) > 1 {
                // Degraded-capable read: any alive replica serves the extent.
                let t = self.first_alive(self.extent(oid, offset, len).map(|(t, _)| t))?;
                Shards::One(Service::BulkRead.at(t, len))
            } else {
                self.extent(oid, offset, len)
                    .map(|(t, b)| Service::BulkRead.at(t, b))
                    .collect()
            };
            self.check_live(&shards)?;
            self.rpc(
                cont,
                oid,
                Section::ArrayFetch(&chunk),
                &shards,
                async |_| {
                    let Some(lost) = lost else {
                        return cont.cont.array_read(oid, offset, len);
                    };
                    // Genuinely reconstruct from the surviving cell plus the
                    // stored parity, charging XOR time; the logical extent is
                    // NOT consulted for the lost cell.
                    let (size, parity) = (cont.cont.array_size(oid)?, cont.cont.array_parity(oid)?);
                    let parity = parity.ok_or(DaosError::InvalidArg("EC object without parity"))?;
                    let gib_s = self.d.spec.calibration.ec_reconstruct_gib * daosim_net::GIB;
                    self.d
                        .sim
                        .sleep(SimDuration::from_secs_f64(size as f64 / gib_s))
                        .await;
                    // The surviving cell's extent, then the lost one rebuilt.
                    let h0 = size.div_ceil(2);
                    let (at, kept) = if lost == 0 { (h0, size - h0) } else { (0, h0) };
                    let survivor = cont.cont.array_read(oid, at, kept)?;
                    let rebuilt = ec::reconstruct_cell(&survivor, &parity, (size - kept) as usize);
                    let full = match lost {
                        0 => ec::join_halves(&rebuilt, &survivor),
                        _ => ec::join_halves(&survivor, &rebuilt),
                    };
                    let end = (end as usize).min(full.len());
                    Ok(full.slice((offset as usize).min(end)..end))
                },
            )
            .await
        })
        .await
    }

    async fn array_size(&self, cont: &Self::Cont, handle: &ArrayHandle) -> Result<u64> {
        let (oid, cost) = (handle.oid(), self.d.spec.calibration.array_open_cost);
        let service = |t: &Target| cost + t.media.read_time(128);
        let commit = |c: &Container| c.array_size(oid);
        self.meta_op(ClientOp::ArraySize, cont, oid, service, commit)
            .await
    }

    async fn array_close(&self, _cont: &Self::Cont, _handle: ArrayHandle) -> Result<()> {
        // Handle close is client-local in DAOS; no RPC.
        let cost = self.d.spec.calibration.array_close_cost;
        self.d.sim.sleep(cost).await;
        Ok(())
    }

    async fn obj_punch(&self, cont: &Self::Cont, oid: Oid) -> Result<()> {
        let cost = self.d.spec.calibration.array_create_cost;
        let commit = |c: &Container| c.obj_punch(oid);
        self.meta_op(ClientOp::ObjPunch, cont, oid, |_| cost, commit)
            .await
    }

    /// Enumeration walks the container's object table: a pool-service
    /// RPC plus a per-object scan cost.
    async fn list_array_objects(&self, cont: &Self::Cont) -> Result<Vec<Oid>> {
        let plan = || {
            let arrays = cont.cont.list_arrays();
            let scan = SimDuration::from_nanos(500u64.saturating_mul(arrays.len() as u64));
            (self.d.spec.calibration.cont_open_cost + scan, arrays)
        };
        self.pool_rpc(plan, Ok).await
    }

    fn pool_targets(&self) -> u32 {
        self.d.spec.pool_targets()
    }

    fn spawn_op(&self, op: daosim_objstore::OpFuture) {
        // Each event-queue operation is its own kernel task: it suspends
        // and resumes independently, so in-flight operations' network
        // flows and media services overlap in simulated time, and each
        // carries its own retry budget, spans and metrics.
        self.d.sim.spawn(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::ClusterSpec;
    use daosim_kernel::Sim;
    use daosim_net::GIB;
    use daosim_objstore::prelude::{ObjectClass, OidAllocator};
    use std::cell::Cell;

    const MIB: u64 = 1024 * 1024;

    #[test]
    fn roundtrip_with_time() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
        let client = SimClient::for_process(&d, 0, 0);
        let end = sim.block_on(async move {
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"c"))
                .await
                .unwrap();
            let oid = OidAllocator::new(0).next(ObjectClass::S1);
            let h = client.array_create(&cont, oid).await.unwrap();
            let payload = Bytes::from(vec![42u8; MIB as usize]);
            client
                .array_write(&cont, &h, 0, payload.clone())
                .await
                .unwrap();
            let back = client.array_read(&cont, &h, 0, MIB).await.unwrap();
            assert_eq!(back, payload);
            client.array_close(&cont, h).await.unwrap();
        });
        // A 1 MiB write + read over a ~3 GiB/s path takes real time.
        assert!(end.as_secs_f64() > 0.0005, "suspiciously fast: {end}");
        assert!(end.as_secs_f64() < 0.05, "suspiciously slow: {end}");
    }

    #[test]
    fn concurrent_writers_to_one_object_serialize() {
        let run = |n: usize| {
            let sim = Sim::new();
            let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
            for i in 0..n {
                let d = Rc::clone(&d);
                sim.spawn(async move {
                    let client = SimClient::for_process(&d, 0, i as u32);
                    let cont = client
                        .cont_open_or_create(Uuid::from_name(b"c"))
                        .await
                        .unwrap();
                    let oid = Oid::generate(9, 9, ObjectClass::S1);
                    let h = client.array_open_or_create(&cont, oid).await.unwrap();
                    client
                        .array_write(&cont, &h, 0, Bytes::from(vec![0u8; MIB as usize]))
                        .await
                        .unwrap();
                    client.array_close(&cont, h).await.unwrap();
                });
            }
            sim.run().expect_quiescent().as_secs_f64()
        };
        let one = run(1);
        let four = run(4);
        // Same object: writes serialize, so 4 writers take ~4x one writer.
        assert!(four > 3.0 * one, "one={one}, four={four}");
    }

    #[test]
    fn concurrent_writers_to_distinct_objects_overlap() {
        let run = |n: usize| {
            let sim = Sim::new();
            let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
            for i in 0..n {
                let d = Rc::clone(&d);
                sim.spawn(async move {
                    let client = SimClient::for_process(&d, 0, i as u32);
                    let cont = client
                        .cont_open_or_create(Uuid::from_name(b"c"))
                        .await
                        .unwrap();
                    let oid = Oid::generate(10, i as u64, ObjectClass::S1);
                    let h = client.array_create(&cont, oid).await.unwrap();
                    client
                        .array_write(&cont, &h, 0, Bytes::from(vec![0u8; MIB as usize]))
                        .await
                        .unwrap();
                    client.array_close(&cont, h).await.unwrap();
                });
            }
            sim.run().expect_quiescent().as_secs_f64()
        };
        let one = run(1);
        let four = run(4);
        assert!(four < 2.5 * one, "one={one}, four={four}");
    }

    #[test]
    fn first_alive_on_empty_slice_reports_no_targets() {
        // Regression: an empty candidate set used to blame target 0's
        // engine (EngineUnavailable(0)); it must be its own error.
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
        let client = SimClient::for_process(&d, 0, 0);
        assert_eq!(client.first_alive([]), Err(DaosError::NoTargets));
        // Non-empty behaviour unchanged: picks the first alive target...
        assert_eq!(client.first_alive([3, 17]), Ok(3));
        d.kill_engine(0);
        assert_eq!(client.first_alive([3, 17]), Ok(17));
        // ...and blames the last candidate's engine when all are down.
        d.kill_engine(1);
        assert_eq!(
            client.first_alive([3, 17]),
            Err(DaosError::EngineUnavailable(1))
        );
    }

    #[test]
    fn brownout_shorter_than_retry_budget_is_invisible_to_clients() {
        // A transient brownout that clears within the retry backoff
        // budget must cause no client-visible errors, only retries.
        let sim = Sim::new();
        let mut spec = ClusterSpec::tcp(1, 1);
        spec.retry = crate::fault::RetryPolicy::builder().operational().build();
        let d = Deployment::new(&sim, spec);
        {
            let d = Rc::clone(&d);
            sim.spawn(async move {
                let client = SimClient::for_process(&d, 0, 0);
                let cont = client
                    .cont_open_or_create(Uuid::from_name(b"bo"))
                    .await
                    .unwrap();
                let mut alloc = OidAllocator::new(0);
                let payload = Bytes::from(vec![5u8; MIB as usize]);
                // Brown out both engines mid-workload for 100 ms — well
                // inside the ~0.8 s cumulative backoff budget.
                let oid0 = alloc.next(ObjectClass::S1);
                let h0 = client.array_create(&cont, oid0).await.unwrap();
                d.brownout_engine(0);
                d.brownout_engine(1);
                {
                    let d2 = Rc::clone(&d);
                    d.sim
                        .schedule_after(SimDuration::from_millis(100), move || {
                            d2.clear_brownout(0);
                            d2.clear_brownout(1);
                        });
                }
                client
                    .array_write(&cont, &h0, 0, payload.clone())
                    .await
                    .unwrap();
                let back = client.array_read(&cont, &h0, 0, MIB).await.unwrap();
                assert_eq!(back, payload);
                client.array_close(&cont, h0).await.unwrap();
            });
        }
        sim.run().expect_quiescent();
        let r = d.resilience().report();
        assert!(
            r.retries > 0,
            "brownout must be absorbed via retries: {r:?}"
        );
        assert_eq!(r.gave_up, 0, "no operation may fail: {r:?}");
    }

    #[test]
    fn retry_exhaustion_surfaces_the_transient_error() {
        // A fault longer than the whole retry budget still fails — the
        // policy bounds recovery, it does not mask permanent loss.
        let sim = Sim::new();
        let mut spec = ClusterSpec::tcp(1, 1);
        spec.retry = crate::fault::RetryPolicy::builder()
            .max_attempts(3)
            .base_backoff(SimDuration::from_micros(100))
            .max_backoff(SimDuration::from_millis(1))
            .seed(1)
            .build();
        let d = Deployment::new(&sim, spec);
        let failed: Rc<Cell<bool>> = Rc::default();
        {
            let (d, failed) = (Rc::clone(&d), Rc::clone(&failed));
            sim.spawn(async move {
                let client = SimClient::for_process(&d, 0, 0);
                let cont = client
                    .cont_open_or_create(Uuid::from_name(b"rx"))
                    .await
                    .unwrap();
                let oid = Oid::generate(0, 0, ObjectClass::S1);
                d.kill_engine(0);
                d.kill_engine(1);
                match client.array_create(&cont, oid).await {
                    Err(DaosError::EngineUnavailable(_)) => failed.set(true),
                    other => panic!("expected exhaustion, got {other:?}"),
                }
            });
        }
        sim.run().expect_quiescent();
        assert!(failed.get());
        let r = d.resilience().report();
        assert_eq!(r.retries, 2, "3 attempts = 2 retries: {r:?}");
        assert_eq!(r.gave_up, 1, "{r:?}");
    }

    #[test]
    fn dead_engine_fails_operations() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
        let failed: Rc<Cell<u32>> = Rc::default();
        let (d2, f2) = (Rc::clone(&d), Rc::clone(&failed));
        sim.spawn(async move {
            let client = SimClient::for_process(&d2, 0, 0);
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"c"))
                .await
                .unwrap();
            d2.kill_engine(0);
            d2.kill_engine(1);
            let oid = Oid::generate(0, 0, ObjectClass::S1);
            match client.array_create(&cont, oid).await {
                Err(DaosError::EngineUnavailable(_)) => f2.set(1),
                other => panic!("expected EngineUnavailable, got {other:?}"),
            }
            d2.revive_engine(0);
            d2.revive_engine(1);
            let h = client.array_create(&cont, oid).await.unwrap();
            client.array_close(&cont, h).await.unwrap();
        });
        sim.run().expect_quiescent();
        assert_eq!(failed.get(), 1);
    }

    /// Calibration smoke test: many parallel writers against one
    /// dual-engine server node should aggregate in the neighbourhood of
    /// the paper's Table 1 write figures (≈5.5 GiB/s for 2 engines).
    #[test]
    fn aggregate_write_bandwidth_in_calibrated_range() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 2));
        let ops_per_proc = 24;
        let procs = 48; // 24 per client node
        let payload = Bytes::from(vec![7u8; MIB as usize]);
        for p in 0..procs {
            let d = Rc::clone(&d);
            let payload = payload.clone();
            sim.spawn(async move {
                let client = SimClient::for_process(&d, (p % 2) as u16, p / 2);
                let cont = client
                    .cont_open_or_create(Uuid::from_name(b"c"))
                    .await
                    .unwrap();
                let mut alloc = OidAllocator::new(p);
                for _ in 0..ops_per_proc {
                    let oid = alloc.next(ObjectClass::S1);
                    let h = client.array_create(&cont, oid).await.unwrap();
                    client
                        .array_write(&cont, &h, 0, payload.clone())
                        .await
                        .unwrap();
                    client.array_close(&cont, h).await.unwrap();
                }
            });
        }
        let end = sim.run().expect_quiescent();
        let total_bytes = (procs as u64 * ops_per_proc * MIB) as f64;
        let bw = total_bytes / GIB / end.as_secs_f64();
        assert!(
            (3.5..=6.5).contains(&bw),
            "aggregate write bandwidth {bw:.2} GiB/s outside calibrated range"
        );
    }

    #[test]
    fn kv_put_on_dead_pool_errors_instead_of_panicking() {
        // Regression: kv_put_once indexed `targets[0]` after the liveness
        // loop; with every engine dead the op must surface
        // EngineUnavailable through the normal error path — replicated
        // and unreplicated classes alike.
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
        let done: Rc<Cell<u32>> = Rc::default();
        let (d2, done2) = (Rc::clone(&d), Rc::clone(&done));
        sim.spawn(async move {
            let client = SimClient::for_process(&d2, 0, 0);
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"kp"))
                .await
                .unwrap();
            d2.kill_engine(0);
            d2.kill_engine(1);
            for class in [ObjectClass::S1, ObjectClass::RP2] {
                let oid = Oid::generate(20, class as u64, class);
                match client
                    .kv_put(&cont, oid, b"k", Bytes::from_static(b"v"))
                    .await
                {
                    Err(DaosError::EngineUnavailable(_)) => done2.set(done2.get() + 1),
                    other => panic!("expected EngineUnavailable, got {other:?}"),
                }
            }
        });
        sim.run().expect_quiescent();
        assert_eq!(done.get(), 2);
    }

    #[test]
    fn kv_put_multi_on_dead_pool_errors_instead_of_panicking() {
        // Regression: kv_put_multi_once indexed `dests[0].0[0]`. An empty
        // batch is a no-op even on a dead pool; a non-empty one errors.
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
        let done: Rc<Cell<u32>> = Rc::default();
        let (d2, done2) = (Rc::clone(&d), Rc::clone(&done));
        sim.spawn(async move {
            let client = SimClient::for_process(&d2, 0, 0);
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"km"))
                .await
                .unwrap();
            d2.kill_engine(0);
            d2.kill_engine(1);
            let oid = Oid::generate(21, 0, ObjectClass::S1);
            client.kv_put_multi(&cont, oid, Vec::new()).await.unwrap();
            let pairs = vec![(Bytes::from_static(b"a"), Bytes::from_static(b"1"))];
            match client.kv_put_multi(&cont, oid, pairs).await {
                Err(DaosError::EngineUnavailable(_)) => done2.set(1),
                other => panic!("expected EngineUnavailable, got {other:?}"),
            }
        });
        sim.run().expect_quiescent();
        assert_eq!(done.get(), 1);
    }

    #[test]
    fn array_write_vec_empty_batch_and_dead_pool() {
        // Regression: the single-extent fast path held an
        // `.expect("non-empty")`; the empty batch stays a no-op and a
        // dead pool errors through the single-extent path.
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
        let done: Rc<Cell<u32>> = Rc::default();
        let (d2, done2) = (Rc::clone(&d), Rc::clone(&done));
        sim.spawn(async move {
            let client = SimClient::for_process(&d2, 0, 0);
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"wv"))
                .await
                .unwrap();
            let oid = Oid::generate(22, 0, ObjectClass::S1);
            let h = client.array_create(&cont, oid).await.unwrap();
            client.array_write_vec(&cont, &h, Vec::new()).await.unwrap();
            d2.kill_engine(0);
            d2.kill_engine(1);
            let iovs = vec![(0u64, Bytes::from_static(b"x"))];
            match client.array_write_vec(&cont, &h, iovs).await {
                Err(DaosError::EngineUnavailable(_)) => done2.set(1),
                other => panic!("expected EngineUnavailable, got {other:?}"),
            }
        });
        sim.run().expect_quiescent();
        assert_eq!(done.get(), 1);
    }

    #[test]
    fn ec_write_and_read_on_dead_pool_error_instead_of_panicking() {
        // Regression: the EC2P1 paths indexed `dts[0]`/`dts[1]` while
        // engines were dying around them; both directions must error.
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
        let done: Rc<Cell<u32>> = Rc::default();
        let (d2, done2) = (Rc::clone(&d), Rc::clone(&done));
        sim.spawn(async move {
            let client = SimClient::for_process(&d2, 0, 0);
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"ec"))
                .await
                .unwrap();
            let oid = Oid::generate(23, 0, ObjectClass::EC2P1);
            let h = client.array_create(&cont, oid).await.unwrap();
            let payload = Bytes::from(vec![9u8; 4096]);
            client
                .array_write(&cont, &h, 0, payload.clone())
                .await
                .unwrap();
            d2.kill_engine(0);
            d2.kill_engine(1);
            match client.array_write(&cont, &h, 0, payload).await {
                Err(DaosError::EngineUnavailable(_)) => done2.set(done2.get() + 1),
                other => panic!("EC write: expected EngineUnavailable, got {other:?}"),
            }
            match client.array_read(&cont, &h, 0, 4096).await {
                Err(DaosError::EngineUnavailable(_)) => done2.set(done2.get() + 1),
                other => panic!("EC read: expected EngineUnavailable, got {other:?}"),
            }
        });
        sim.run().expect_quiescent();
        assert_eq!(done.get(), 2);
    }

    #[test]
    fn random_fault_campaigns_never_panic_the_client_path() {
        // Drive seeded random campaigns (kills, rebuilds, restarts,
        // brownouts, NIC faults) against a mixed KV/array workload under
        // the operational retry policy. Every op may succeed or fail —
        // but nothing on the client path is allowed to panic.
        for seed in 0..4u64 {
            let sim = Sim::new();
            let mut spec = ClusterSpec::tcp(1, 1);
            spec.retry = crate::fault::RetryPolicy::builder().operational().build();
            let d = Deployment::new(&sim, spec);
            let horizon = SimDuration::from_secs(2);
            crate::fault::FaultPlan::random_campaign(seed, d.spec.engines(), horizon).apply(&d);
            for p in 0..4u32 {
                let d = Rc::clone(&d);
                sim.spawn(async move {
                    let client = SimClient::for_process(&d, 0, p);
                    let Ok(cont) = client.cont_open_or_create(Uuid::from_name(b"cc")).await else {
                        return;
                    };
                    let mut alloc = OidAllocator::new(p);
                    for i in 0..6u64 {
                        let class = match i % 3 {
                            0 => ObjectClass::S1,
                            1 => ObjectClass::RP2,
                            _ => ObjectClass::EC2P1,
                        };
                        let oid = alloc.next(class);
                        let kv = Oid::generate(30 + p, i, ObjectClass::RP2);
                        let _ = client
                            .kv_put(&cont, kv, b"key", Bytes::from_static(b"val"))
                            .await;
                        let _ = client.kv_get(&cont, kv, b"key").await;
                        if let Ok(h) = client.array_open_or_create(&cont, oid).await {
                            let _ = client
                                .array_write(&cont, &h, 0, Bytes::from(vec![1u8; 8192]))
                                .await;
                            let _ = client.array_read(&cont, &h, 0, 8192).await;
                            let _ = client.array_close(&cont, h).await;
                        }
                    }
                });
            }
            sim.run().expect_quiescent();
        }
    }

    #[test]
    fn backlog_gauge_counts_waiters_and_drains_to_zero() {
        // Many writers to one object pile up on its target's FIFO: the
        // gauge's peak must see them and the depth must drain by the end.
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
        for i in 0..8u32 {
            let d = Rc::clone(&d);
            sim.spawn(async move {
                let client = SimClient::for_process(&d, 0, i);
                let cont = client
                    .cont_open_or_create(Uuid::from_name(b"bg"))
                    .await
                    .unwrap();
                let oid = Oid::generate(40, 0, ObjectClass::S1);
                let h = client.array_open_or_create(&cont, oid).await.unwrap();
                client
                    .array_write(&cont, &h, 0, Bytes::from(vec![0u8; MIB as usize]))
                    .await
                    .unwrap();
                client.array_close(&cont, h).await.unwrap();
            });
        }
        sim.run().expect_quiescent();
        assert!(d.backlog().peak() > 0, "contention must register a peak");
        assert_eq!(d.backlog().depth(), 0, "gauge must drain at quiescence");
    }

    #[test]
    fn qos_classes_split_the_op_latency_histograms() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
        {
            let d = Rc::clone(&d);
            sim.spawn(async move {
                let writer = SimClient::for_process(&d, 0, 0).with_qos(QosClass::Writer);
                let reader = SimClient::for_process(&d, 0, 1).with_qos(QosClass::Reader);
                assert_eq!(writer.qos(), QosClass::Writer);
                let cont = writer
                    .cont_open_or_create(Uuid::from_name(b"qs"))
                    .await
                    .unwrap();
                let oid = Oid::generate(41, 0, ObjectClass::S1);
                writer
                    .kv_put(&cont, oid, b"k", Bytes::from_static(b"v"))
                    .await
                    .unwrap();
                let rcont = reader.cont_open(Uuid::from_name(b"qs")).await.unwrap();
                assert!(reader.kv_get(&rcont, oid, b"k").await.unwrap().is_some());
            });
        }
        sim.run().expect_quiescent();
        let snap = sim.obs().metrics().snapshot();
        let count = |name: &str| {
            snap.histogram(name)
                .unwrap_or_else(|| panic!("histogram {name} missing"))
                .count
        };
        assert_eq!(count("client.writer.op_ns"), 1, "one classified put");
        assert_eq!(count("client.reader.op_ns"), 1, "one classified get");
        assert_eq!(count("client.op_ns"), 2, "shared histogram sees both");
    }
}
