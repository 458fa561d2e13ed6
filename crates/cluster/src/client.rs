//! The simulated DAOS client: `DaosApi` with modelled time.
//!
//! Every operation decomposes the way the wire protocol does:
//!
//! * a request message (provider latency),
//! * engine-serial metadata work (container-handle validation — the cost
//!   that grows with the pool's container population),
//! * per-target service: FIFO queue, per-RPC CPU, media time,
//! * bulk data as fabric flows through the software-stack links (writes
//!   client→engine, reads engine→client), pipelined with media service,
//! * a response message (provider latency),
//!
//! plus per-object *update locks* serializing conflicting updates (the
//! DTX-leader surrogate that shared-index contention binds on).
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
use daosim_objstore::ec;
use daosim_objstore::placement::{
    array_target_shards, ec_targets, kv_target, leader_target, replica_targets, ARRAY_CHUNK,
};
use daosim_objstore::prelude::{ArrayHandle, DaosApi, DaosError, ObjectClass, Oid, Result, Uuid};
use daosim_objstore::Container;

use crate::deploy::{Deployment, Engine};
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

/// The client operations that run under [`SimClient::retrying`]. Each op
/// owns a completion counter (`client.<op>.ops`) and shares the
/// `client.op_ns` latency histogram; [`ClientMetrics`] resolves the
/// handles once per deployment so completing an op is two `Cell` bumps,
/// not a `format!` plus string-keyed map lookups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientOp {
    KvPut,
    KvGet,
    KvPutIfAbsent,
    KvRemove,
    KvListKeys,
    KvListRange,
    KvPutMulti,
    ArrayCreate,
    ArrayOpen,
    ArrayOpenOrCreate,
    ArrayWrite,
    ArrayWriteVec,
    ArrayRead,
    ArraySize,
    ObjPunch,
}

impl ClientOp {
    pub const ALL: [ClientOp; 15] = [
        ClientOp::KvPut,
        ClientOp::KvGet,
        ClientOp::KvPutIfAbsent,
        ClientOp::KvRemove,
        ClientOp::KvListKeys,
        ClientOp::KvListRange,
        ClientOp::KvPutMulti,
        ClientOp::ArrayCreate,
        ClientOp::ArrayOpen,
        ClientOp::ArrayOpenOrCreate,
        ClientOp::ArrayWrite,
        ClientOp::ArrayWriteVec,
        ClientOp::ArrayRead,
        ClientOp::ArraySize,
        ClientOp::ObjPunch,
    ];

    /// Wire name: span label and the tag inside `DaosError::Timeout`.
    pub fn name(self) -> &'static str {
        match self {
            ClientOp::KvPut => "kv_put",
            ClientOp::KvGet => "kv_get",
            ClientOp::KvPutIfAbsent => "kv_put_if_absent",
            ClientOp::KvRemove => "kv_remove",
            ClientOp::KvListKeys => "kv_list_keys",
            ClientOp::KvListRange => "kv_list_range",
            ClientOp::KvPutMulti => "kv_put_multi",
            ClientOp::ArrayCreate => "array_create",
            ClientOp::ArrayOpen => "array_open",
            ClientOp::ArrayOpenOrCreate => "array_open_or_create",
            ClientOp::ArrayWrite => "array_write",
            ClientOp::ArrayWriteVec => "array_write_vec",
            ClientOp::ArrayRead => "array_read",
            ClientOp::ArraySize => "array_size",
            ClientOp::ObjPunch => "obj_punch",
        }
    }

    /// Name of this op's completion counter in the metrics registry.
    fn ops_metric(self) -> &'static str {
        match self {
            ClientOp::KvPut => "client.kv_put.ops",
            ClientOp::KvGet => "client.kv_get.ops",
            ClientOp::KvPutIfAbsent => "client.kv_put_if_absent.ops",
            ClientOp::KvRemove => "client.kv_remove.ops",
            ClientOp::KvListKeys => "client.kv_list_keys.ops",
            ClientOp::KvListRange => "client.kv_list_range.ops",
            ClientOp::KvPutMulti => "client.kv_put_multi.ops",
            ClientOp::ArrayCreate => "client.array_create.ops",
            ClientOp::ArrayOpen => "client.array_open.ops",
            ClientOp::ArrayOpenOrCreate => "client.array_open_or_create.ops",
            ClientOp::ArrayWrite => "client.array_write.ops",
            ClientOp::ArrayWriteVec => "client.array_write_vec.ops",
            ClientOp::ArrayRead => "client.array_read.ops",
            ClientOp::ArraySize => "client.array_size.ops",
            ClientOp::ObjPunch => "client.obj_punch.ops",
        }
    }
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
            ops: ClientOp::ALL.map(|op| metrics.counter(op.ops_metric())),
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

    /// The admission lane this client's ops queue in (see
    /// [`QosClass::admission_class`]).
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

    fn engine_for(&self, target: u32) -> Result<&Engine> {
        let e = self.d.engine_of_target(target);
        if e.is_alive() {
            Ok(e)
        } else {
            Err(DaosError::EngineUnavailable(
                self.d.engine_index_of_target(target),
            ))
        }
    }

    /// Engine-serial container-handle work; zero-cost when the pool holds
    /// few containers.
    async fn engine_meta(&self, engine: &Engine) {
        let cost = self
            .d
            .spec
            .calibration
            .cont_table_cost(self.d.pool.cont_count());
        if cost > SimDuration::ZERO {
            let _p = engine.meta.acquire_one(self.lane()).await;
            self.d.sim.sleep(cost).await;
        }
    }

    /// Occupies target `t` for `service` time, FIFO behind earlier work.
    async fn target_service(&self, t: u32, service: SimDuration) {
        let tgt = self.d.target(t);
        // Leaf spans: shard RPCs run concurrently under `join_all`, so
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

    /// One small (metadata-sized) RPC to the target owning `t`.
    async fn small_rpc(&self, t: u32, service: SimDuration) -> Result<()> {
        let engine = self.engine_for(t)?;
        self.latency().await;
        self.engine_meta(engine).await;
        self.target_service(t, service).await;
        self.latency().await;
        Ok(())
    }

    /// The first replica target whose engine is alive; errors with the
    /// last replica's engine when every one is down, and with
    /// [`DaosError::NoTargets`] when handed no candidates at all (so an
    /// empty slice never blames target 0's engine). Degraded reads and
    /// metadata operations on replicated objects fail over through this.
    fn first_alive(&self, targets: &[u32]) -> Result<u32> {
        let Some(&last) = targets.last() else {
            return Err(DaosError::NoTargets);
        };
        for &t in targets {
            if self.d.engine_of_target(t).is_alive() {
                return Ok(t);
            }
        }
        Err(DaosError::EngineUnavailable(
            self.d.engine_index_of_target(last),
        ))
    }

    /// Metadata target for `oid`: the leader, failing over across the
    /// redundancy group (replicas, or EC data+parity cells).
    fn meta_target(&self, oid: Oid) -> Result<u32> {
        let mut candidates = if oid.class() == ObjectClass::EC2P1 {
            let (mut dts, pt) = ec_targets(oid, self.pool_targets());
            dts.push(pt);
            dts
        } else {
            replica_targets(oid, self.pool_targets())
        };
        for t in &mut candidates {
            *t = self.live_target(*t);
        }
        self.first_alive(&candidates)
    }

    /// Engine-serial dispatch work per bulk shard RPC.
    async fn shard_dispatch(&self, engine: &Engine) {
        let cost = self.d.spec.calibration.shard_dispatch_cost;
        if cost > SimDuration::ZERO {
            let _p = engine.meta.acquire_one(self.lane()).await;
            self.d.sim.sleep(cost).await;
        }
    }

    /// Bulk write of one shard: the wire flow and the media reservation
    /// run concurrently (streamed I/O pipelines them in reality).
    async fn shard_write(&self, t: u32, bytes: u64) -> Result<()> {
        let engine = self.engine_for(t)?;
        self.shard_dispatch(engine).await;
        let cal = &self.d.spec.calibration;
        let route = self
            .d
            .write_route_id(self.ep, self.d.engine_index_of_target(t));
        let cap = self.d.fabric.flow_cap(self.ep, engine.endpoint);
        let flow = self.d.fabric.net().transfer_interned(route, bytes, cap);
        // Tier placement charges occupancy and prices the write at the
        // receiving tier's rates; both tiers full is the permanent
        // out-of-space error (DESIGN.md §14).
        let charge = self
            .d
            .target(t)
            .media
            .charge_write(bytes)
            .map_err(|_| DaosError::NoSpace)?;
        let media = cal.rpc_cpu_cost + charge.time;
        self.d.target(t).tally.note_write(bytes);
        let service = self.target_service(t, media);
        join2(flow, service).await;
        Ok(())
    }

    /// Bulk read of one shard, symmetric to [`Self::shard_write`].
    async fn shard_read(&self, t: u32, bytes: u64) -> Result<()> {
        let engine = self.engine_for(t)?;
        self.shard_dispatch(engine).await;
        let cal = &self.d.spec.calibration;
        let route = self
            .d
            .read_route_id(self.d.engine_index_of_target(t), self.ep);
        let cap = self.d.fabric.flow_cap(engine.endpoint, self.ep);
        let flow = self.d.fabric.net().transfer_interned(route, bytes, cap);
        let media = cal.rpc_cpu_cost + self.d.target(t).media.read_time(bytes);
        self.d.target(t).tally.note_read(bytes);
        let service = self.target_service(t, media);
        join2(flow, service).await;
        Ok(())
    }

    /// Runs `attempt` under the deployment's [`RetryPolicy`]: each
    /// attempt is deadline-bounded (when configured); transient failures
    /// (engine unavailable, attempt timeout) back off exponentially with
    /// deterministic jitter and re-run — re-computing placement, so
    /// pool-map changes installed by a rebuild and engines revived in the
    /// meantime are picked up (failover); permanent errors return
    /// immediately. With the default fail-fast policy this is a plain
    /// pass-through. Safe to re-run attempts: store mutations and pool
    /// charges land only at an attempt's completion, so a timed-out
    /// (dropped) attempt leaves no partial state.
    async fn retrying<T, Fut>(&self, op: ClientOp, mut attempt: impl FnMut() -> Fut) -> Result<T>
    where
        Fut: std::future::Future<Output = Result<T>>,
    {
        let sim = self.d.sim.clone();
        let op_span = sim.span("client", op.name());
        let start = sim.now();
        let result = {
            let sim = &sim;
            async move {
                let policy = self.d.spec.retry;
                if !policy.enabled() {
                    let _a = sim.span("client", "attempt");
                    return attempt().await;
                }
                let stats = self.d.resilience();
                let mut saw_unavailable = false;
                let mut n = 0u32;
                loop {
                    n += 1;
                    let result = {
                        let _a = sim.span("client", "attempt");
                        if policy.attempt_timeout > SimDuration::ZERO {
                            match timeout(sim, policy.attempt_timeout, attempt()).await {
                                Ok(r) => r,
                                Err(Elapsed) => {
                                    stats.note_timeout();
                                    Err(DaosError::Timeout(op.name()))
                                }
                            }
                        } else {
                            attempt().await
                        }
                    };
                    match result {
                        Ok(v) => {
                            if saw_unavailable {
                                stats.note_failover();
                            }
                            return Ok(v);
                        }
                        Err(e) if e.is_transient() => {
                            saw_unavailable |= matches!(e, DaosError::EngineUnavailable(_));
                            let deadline_hit = policy.op_deadline > SimDuration::ZERO
                                && sim.now() - start >= policy.op_deadline;
                            if n >= policy.max_attempts || deadline_hit {
                                stats.note_gave_up();
                                return Err(e);
                            }
                            stats.note_retry();
                            let salt = jitter_salt(self.ep, sim.now().as_nanos(), n);
                            sim.sleep(policy.backoff_delay(n, salt)).await;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            .await
        };
        self.d
            .client_metrics()
            .note_op(op, self.qos, (sim.now() - start).as_nanos());
        op_span.end();
        result
    }
}

/// Single-attempt operation bodies: one placement computation plus one
/// wire exchange each. The [`DaosApi`] impl re-runs these through
/// [`SimClient::retrying`], which is how failover re-consults the pool
/// map — placement happens inside the attempt.
impl SimClient {
    async fn cont_open_or_create_once(&self, uuid: Uuid) -> Result<SimCont> {
        self.latency().await;
        let cal = &self.d.spec.calibration;
        let exists = self.d.pool.cont_open(uuid).is_ok();
        {
            let _p = self.d.pool_md.acquire_one(self.lane()).await;
            let cost = if exists {
                cal.cont_open_cost
            } else {
                cal.cont_create_cost
            };
            self.d.sim.sleep(cost).await;
        }
        let cont = self.d.pool.cont_open_or_create(uuid)?;
        self.latency().await;
        Ok(SimCont { uuid, cont })
    }

    async fn cont_open_once(&self, uuid: Uuid) -> Result<SimCont> {
        self.latency().await;
        {
            let _p = self.d.pool_md.acquire_one(self.lane()).await;
            self.d
                .sim
                .sleep(self.d.spec.calibration.cont_open_cost)
                .await;
        }
        let cont = self.d.pool.cont_open(uuid)?;
        self.latency().await;
        Ok(SimCont { uuid, cont })
    }

    async fn kv_put_once(&self, cont: &SimCont, oid: Oid, key: &[u8], value: Bytes) -> Result<()> {
        let cal = self.d.spec.calibration;
        // Updates land on every replica of the key's home target;
        // unreplicated classes have exactly one.
        let targets: Vec<u32> = if oid.class().replicas(self.pool_targets()) > 1 {
            replica_targets(oid, self.pool_targets())
        } else {
            vec![kv_target(oid, key, self.pool_targets())]
        };
        let targets: Vec<u32> = targets.into_iter().map(|t| self.live_target(t)).collect();
        for &t in &targets {
            self.engine_for(t)?;
        }
        // Placement can legitimately come back empty mid-fault-campaign
        // (a just-killed pool can remap every candidate away); error like
        // `first_alive` does instead of indexing into nothing.
        let Some(&primary) = targets.first() else {
            return Err(DaosError::NoTargets);
        };
        let engine = self.engine_for(primary)?;
        self.latency().await;
        self.engine_meta(engine).await;
        // Conflicting updates to one object serialize on its update lock
        // for the leader-serialization cost plus the target service.
        let lock = self.d.obj_lock(cont.uuid, oid, 0);
        {
            let _g = lock.acquire_one(self.lane()).await;
            let _os = self.d.sim.span("objstore", "kv_update");
            self.d.sim.sleep(cal.kv_update_serial_cost).await;
            let bytes = (key.len() + value.len()) as u64;
            let updates: Vec<_> = targets
                .iter()
                .map(|&t| {
                    let this = self.clone();
                    async move {
                        let charge = this
                            .d
                            .target(t)
                            .media
                            .charge_write(bytes)
                            .map_err(|_| DaosError::NoSpace)?;
                        let service = cal.kv_op_cost + charge.time;
                        this.d.target(t).tally.note_write(bytes);
                        this.target_service(t, service).await;
                        Ok::<(), DaosError>(())
                    }
                })
                .collect();
            for r in join_all(updates).await {
                r?;
            }
            self.d.pool.charge(bytes)?;
            cont.cont.kv_put(oid, key, value)?;
        }
        self.latency().await;
        Ok(())
    }

    /// Conditional KV insert: same placement, round trip and leader
    /// serial section as `kv_put_once`, but the presence check happens
    /// *inside* the serial section, so racing inserts on one key resolve
    /// to exactly one winner. A losing insert pays the round trip and a
    /// leader read, not the replica writes.
    async fn kv_put_if_absent_once(
        &self,
        cont: &SimCont,
        oid: Oid,
        key: &[u8],
        value: Bytes,
    ) -> Result<Option<Bytes>> {
        let cal = self.d.spec.calibration;
        let targets: Vec<u32> = if oid.class().replicas(self.pool_targets()) > 1 {
            replica_targets(oid, self.pool_targets())
        } else {
            vec![kv_target(oid, key, self.pool_targets())]
        };
        let targets: Vec<u32> = targets.into_iter().map(|t| self.live_target(t)).collect();
        for &t in &targets {
            self.engine_for(t)?;
        }
        let Some(&primary) = targets.first() else {
            return Err(DaosError::NoTargets);
        };
        let engine = self.engine_for(primary)?;
        self.latency().await;
        self.engine_meta(engine).await;
        let lock = self.d.obj_lock(cont.uuid, oid, 0);
        let out;
        {
            let _g = lock.acquire_one(self.lane()).await;
            let _os = self.d.sim.span("objstore", "kv_update");
            self.d.sim.sleep(cal.kv_update_serial_cost).await;
            if let Some(existing) = cont.cont.kv_get(oid, key)? {
                let service =
                    cal.kv_op_cost + self.d.target(primary).media.read_time(cal.kv_entry_bytes);
                self.d.target(primary).tally.note_read(cal.kv_entry_bytes);
                self.target_service(primary, service).await;
                out = Some(existing);
            } else {
                let bytes = (key.len() + value.len()) as u64;
                let updates: Vec<_> = targets
                    .iter()
                    .map(|&t| {
                        let this = self.clone();
                        async move {
                            let charge = this
                                .d
                                .target(t)
                                .media
                                .charge_write(bytes)
                                .map_err(|_| DaosError::NoSpace)?;
                            let service = cal.kv_op_cost + charge.time;
                            this.d.target(t).tally.note_write(bytes);
                            this.target_service(t, service).await;
                            Ok::<(), DaosError>(())
                        }
                    })
                    .collect();
                for r in join_all(updates).await {
                    r?;
                }
                self.d.pool.charge(bytes)?;
                cont.cont.kv_put(oid, key, value)?;
                out = None;
            }
        }
        self.latency().await;
        Ok(out)
    }

    /// KV key removal: the update path of `kv_put_once` (every replica of
    /// the key's home target services the tombstone write). Removing an
    /// absent key is a successful no-op, per the `DaosApi` contract.
    async fn kv_remove_once(&self, cont: &SimCont, oid: Oid, key: &[u8]) -> Result<()> {
        let cal = self.d.spec.calibration;
        let targets: Vec<u32> = if oid.class().replicas(self.pool_targets()) > 1 {
            replica_targets(oid, self.pool_targets())
        } else {
            vec![kv_target(oid, key, self.pool_targets())]
        };
        let targets: Vec<u32> = targets.into_iter().map(|t| self.live_target(t)).collect();
        for &t in &targets {
            self.engine_for(t)?;
        }
        let Some(&primary) = targets.first() else {
            return Err(DaosError::NoTargets);
        };
        let engine = self.engine_for(primary)?;
        self.latency().await;
        self.engine_meta(engine).await;
        let lock = self.d.obj_lock(cont.uuid, oid, 0);
        {
            let _g = lock.acquire_one(self.lane()).await;
            let _os = self.d.sim.span("objstore", "kv_update");
            self.d.sim.sleep(cal.kv_update_serial_cost).await;
            let bytes = key.len() as u64;
            let updates: Vec<_> = targets
                .iter()
                .map(|&t| {
                    let this = self.clone();
                    async move {
                        let charge = this
                            .d
                            .target(t)
                            .media
                            .charge_write(bytes)
                            .map_err(|_| DaosError::NoSpace)?;
                        let service = cal.kv_op_cost + charge.time;
                        this.d.target(t).tally.note_write(bytes);
                        this.target_service(t, service).await;
                        Ok::<(), DaosError>(())
                    }
                })
                .collect();
            for r in join_all(updates).await {
                r?;
            }
            match cont.cont.kv_remove(oid, key) {
                Ok(_) | Err(DaosError::ObjNotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.latency().await;
        Ok(())
    }

    /// Vectorized KV update: the whole batch rides one request — one
    /// latency round trip, one container-handle validation and one
    /// leader serial section — then every pair's replica services run
    /// concurrently. This is where batching beats N sequential puts.
    async fn kv_put_multi_once(
        &self,
        cont: &SimCont,
        oid: Oid,
        pairs: Vec<(Bytes, Bytes)>,
    ) -> Result<()> {
        if pairs.is_empty() {
            return Ok(());
        }
        let cal = self.d.spec.calibration;
        let replicated = oid.class().replicas(self.pool_targets()) > 1;
        // Per-pair destinations, exactly as each pair's own kv_put would
        // place it.
        let dests: Vec<(Vec<u32>, u64)> = pairs
            .iter()
            .map(|(key, value)| {
                let targets: Vec<u32> = if replicated {
                    replica_targets(oid, self.pool_targets())
                } else {
                    vec![kv_target(oid, key, self.pool_targets())]
                };
                let targets: Vec<u32> = targets.into_iter().map(|t| self.live_target(t)).collect();
                (targets, (key.len() + value.len()) as u64)
            })
            .collect();
        for (targets, _) in &dests {
            for &t in targets {
                self.engine_for(t)?;
            }
        }
        // `pairs` is non-empty here, but a pair's target list can still be
        // empty under a hostile pool map — fail like `first_alive`, don't
        // index.
        let primary = dests
            .first()
            .and_then(|(targets, _)| targets.first().copied())
            .ok_or(DaosError::NoTargets)?;
        let engine = self.engine_for(primary)?;
        self.latency().await;
        self.engine_meta(engine).await;
        let lock = self.d.obj_lock(cont.uuid, oid, 0);
        {
            let _g = lock.acquire_one(self.lane()).await;
            let _os = self.d.sim.span("objstore", "kv_update");
            self.d.sim.sleep(cal.kv_update_serial_cost).await;
            let updates: Vec<_> = dests
                .iter()
                .flat_map(|(targets, bytes)| targets.iter().map(move |&t| (t, *bytes)))
                .map(|(t, bytes)| {
                    let this = self.clone();
                    async move {
                        let charge = this
                            .d
                            .target(t)
                            .media
                            .charge_write(bytes)
                            .map_err(|_| DaosError::NoSpace)?;
                        let service = cal.kv_op_cost + charge.time;
                        this.d.target(t).tally.note_write(bytes);
                        this.target_service(t, service).await;
                        Ok::<(), DaosError>(())
                    }
                })
                .collect();
            for r in join_all(updates).await {
                r?;
            }
            let total: u64 = dests.iter().map(|(_, b)| *b).sum();
            self.d.pool.charge(total)?;
            cont.cont.kv_put_multi(oid, pairs)?;
        }
        self.latency().await;
        Ok(())
    }

    async fn kv_get_once(&self, cont: &SimCont, oid: Oid, key: &[u8]) -> Result<Option<Bytes>> {
        let cal = self.d.spec.calibration;
        let t = if oid.class().replicas(self.pool_targets()) > 1 {
            let reps: Vec<u32> = replica_targets(oid, self.pool_targets())
                .into_iter()
                .map(|t| self.live_target(t))
                .collect();
            self.first_alive(&reps)?
        } else {
            self.live_target(kv_target(oid, key, self.pool_targets()))
        };
        let engine = self.engine_for(t)?;
        self.latency().await;
        self.engine_meta(engine).await;
        let lock = self.d.obj_lock(cont.uuid, oid, 0);
        let out;
        {
            let _g = lock.acquire_one(self.lane()).await;
            let _os = self.d.sim.span("objstore", "kv_fetch");
            self.d.sim.sleep(cal.kv_fetch_serial_cost).await;
            let service = cal.kv_op_cost + self.d.target(t).media.read_time(cal.kv_entry_bytes);
            self.d.target(t).tally.note_read(cal.kv_entry_bytes);
            self.target_service(t, service).await;
            out = cont.cont.kv_get(oid, key)?;
        }
        self.latency().await;
        Ok(out)
    }

    async fn kv_list_keys_once(&self, cont: &SimCont, oid: Oid) -> Result<Vec<Bytes>> {
        let cal = self.d.spec.calibration;
        let t = self.meta_target(oid)?;
        self.small_rpc(t, cal.kv_op_cost).await?;
        cont.cont.kv_list_keys(oid)
    }

    /// Range listing: same RPC shape and cost as a full listing — the
    /// server walks less of the key space, not more.
    async fn kv_list_range_once(
        &self,
        cont: &SimCont,
        oid: Oid,
        from: &[u8],
        until: Option<&[u8]>,
    ) -> Result<Vec<Bytes>> {
        let cal = self.d.spec.calibration;
        let t = self.meta_target(oid)?;
        self.small_rpc(t, cal.kv_op_cost).await?;
        cont.cont.kv_list_range(oid, from, until)
    }

    async fn array_create_once(&self, cont: &SimCont, oid: Oid) -> Result<()> {
        let cal = self.d.spec.calibration;
        // Creation installs metadata on every replica, concurrently.
        let reps: Vec<u32> = replica_targets(oid, self.pool_targets())
            .into_iter()
            .map(|t| self.live_target(t))
            .collect();
        for &t in &reps {
            self.engine_for(t)?;
        }
        let creates: Vec<_> = reps
            .iter()
            .map(|&t| {
                let this = self.clone();
                async move {
                    let charge = this
                        .d
                        .target(t)
                        .media
                        .charge_write(128)
                        .map_err(|_| DaosError::NoSpace)?;
                    let service = cal.array_create_cost + charge.time;
                    this.small_rpc(t, service).await
                }
            })
            .collect();
        for r in join_all(creates).await {
            r?;
        }
        cont.cont.array_create(oid)
    }

    async fn array_open_once(&self, cont: &SimCont, oid: Oid) -> Result<()> {
        let cal = self.d.spec.calibration;
        let t = self.meta_target(oid)?;
        let service = cal.array_open_cost + self.d.target(t).media.read_time(128);
        self.small_rpc(t, service).await?;
        cont.cont.array_open(oid)
    }

    async fn array_open_or_create_once(&self, cont: &SimCont, oid: Oid) -> Result<()> {
        let cal = self.d.spec.calibration;
        let t = self.live_target(leader_target(oid, self.pool_targets()));
        self.engine_for(t)?;
        let charge = self
            .d
            .target(t)
            .media
            .charge_write(128)
            .map_err(|_| DaosError::NoSpace)?;
        let service = cal.array_create_cost + charge.time;
        self.small_rpc(t, service).await?;
        cont.cont.array_open_or_create(oid)
    }

    async fn array_write_once(
        &self,
        cont: &SimCont,
        oid: Oid,
        offset: u64,
        data: Bytes,
    ) -> Result<()> {
        let len = data.len() as u64;
        // Replicated classes write every replica synchronously; erasure-
        // coded objects write two data cells plus the XOR parity cell;
        // striped classes write one shard per stripe target.
        let is_ec =
            oid.class() == ObjectClass::EC2P1 && oid.class().parity_cells(self.pool_targets()) > 0;
        let mut ec_parity: Option<Bytes> = None;
        let shards: Vec<(u32, u64)> = if is_ec {
            if offset != 0 {
                return Err(DaosError::InvalidArg(
                    "EC objects support whole-object writes at offset 0",
                ));
            }
            let (h0, h1) = ec::split_halves(&data);
            let parity = Bytes::from(ec::xor_parity(&h0, &h1));
            // EC2P1 placement always yields two data cells; destructure
            // instead of indexing so a malformed layout errors rather
            // than panicking mid-campaign.
            let (dts, pt) = ec_targets(oid, self.pool_targets());
            let &[d0, d1] = &dts[..] else {
                return Err(DaosError::NoTargets);
            };
            let shards = vec![
                (d0, h0.len() as u64),
                (d1, h1.len() as u64),
                (pt, parity.len() as u64),
            ];
            ec_parity = Some(parity);
            shards
        } else if oid.class().replicas(self.pool_targets()) > 1 {
            replica_targets(oid, self.pool_targets())
                .into_iter()
                .map(|t| (t, len))
                .collect()
        } else {
            array_target_shards(oid, offset, len, self.pool_targets())
        };
        let shards: Vec<(u32, u64)> = shards
            .into_iter()
            .map(|(t, b)| (self.live_target(t), b))
            .collect();
        // The attempt fails fast if any owning engine is down — writes
        // require the full redundancy group; transient recovery (retry,
        // backoff, pool-map re-consultation) lives in the `retrying`
        // wrapper around this body.
        for (t, _) in &shards {
            self.engine_for(*t)?;
        }
        self.latency().await;
        let lock = self.d.obj_lock(cont.uuid, oid, offset / ARRAY_CHUNK);
        {
            let _g = lock.acquire_one(self.lane()).await;
            let _os = self.d.sim.span("objstore", "array_update");
            let writes: Vec<_> = shards
                .iter()
                .map(|&(t, bytes)| {
                    let this = self.clone();
                    async move { this.shard_write(t, bytes).await }
                })
                .collect();
            for r in join_all(writes).await {
                r?;
            }
            self.d.pool.charge(len)?;
            cont.cont.array_write(oid, offset, data)?;
            if let Some(parity) = ec_parity {
                self.d.pool.charge(parity.len() as u64)?;
                cont.cont.array_set_parity(oid, parity)?;
            }
        }
        self.latency().await;
        Ok(())
    }

    /// Scatter-gather write: all extents ride one request and one lock
    /// acquisition pass, their shard flows and media services running
    /// concurrently. EC objects only support their whole-object write
    /// shape, so multi-extent EC batches are rejected up front.
    async fn array_write_vec_once(
        &self,
        cont: &SimCont,
        oid: Oid,
        iovs: Vec<(u64, Bytes)>,
    ) -> Result<()> {
        if iovs.is_empty() {
            return Ok(());
        }
        let is_ec =
            oid.class() == ObjectClass::EC2P1 && oid.class().parity_cells(self.pool_targets()) > 0;
        if iovs.len() == 1 || is_ec {
            if iovs.len() > 1 {
                return Err(DaosError::InvalidArg(
                    "EC objects support a single whole-object extent per write",
                ));
            }
            let Some((offset, data)) = iovs.into_iter().next() else {
                return Ok(());
            };
            return self.array_write_once(cont, oid, offset, data).await;
        }
        let replicated = oid.class().replicas(self.pool_targets()) > 1;
        // Shards of every extent, as its own array_write would place them.
        let mut shards: Vec<(u32, u64)> = Vec::new();
        for (offset, data) in &iovs {
            let len = data.len() as u64;
            let per_iov: Vec<(u32, u64)> = if replicated {
                replica_targets(oid, self.pool_targets())
                    .into_iter()
                    .map(|t| (t, len))
                    .collect()
            } else {
                array_target_shards(oid, *offset, len, self.pool_targets())
            };
            shards.extend(per_iov.into_iter().map(|(t, b)| (self.live_target(t), b)));
        }
        for (t, _) in &shards {
            self.engine_for(*t)?;
        }
        self.latency().await;
        // Take the distinct chunk locks in ascending order (the global
        // order every batch uses, so concurrent batches cannot deadlock).
        let mut chunks: Vec<u64> = iovs.iter().map(|(off, _)| off / ARRAY_CHUNK).collect();
        chunks.sort_unstable();
        chunks.dedup();
        let locks: Vec<_> = chunks
            .iter()
            .map(|&c| self.d.obj_lock(cont.uuid, oid, c))
            .collect();
        {
            let mut guards = Vec::with_capacity(locks.len());
            for lock in &locks {
                guards.push(lock.acquire_one(self.lane()).await);
            }
            let _os = self.d.sim.span("objstore", "array_update");
            let writes: Vec<_> = shards
                .iter()
                .map(|&(t, bytes)| {
                    let this = self.clone();
                    async move { this.shard_write(t, bytes).await }
                })
                .collect();
            for r in join_all(writes).await {
                r?;
            }
            let total: u64 = iovs.iter().map(|(_, d)| d.len() as u64).sum();
            self.d.pool.charge(total)?;
            cont.cont.array_write_vec(oid, iovs)?;
        }
        self.latency().await;
        Ok(())
    }

    async fn array_read_once(
        &self,
        cont: &SimCont,
        oid: Oid,
        offset: u64,
        len: u64,
    ) -> Result<Bytes> {
        let is_ec =
            oid.class() == ObjectClass::EC2P1 && oid.class().parity_cells(self.pool_targets()) > 0;
        let mut ec_reconstruct: Option<u32> = None; // index of the dead data cell
        let shards: Vec<(u32, u64)> = if is_ec {
            let (dts, pt) = ec_targets(oid, self.pool_targets());
            let dts: Vec<u32> = dts.into_iter().map(|t| self.live_target(t)).collect();
            let &[d0, d1] = &dts[..] else {
                return Err(DaosError::NoTargets);
            };
            let pt = self.live_target(pt);
            let size = cont.cont.array_size(oid)?;
            let h0_len = size.div_ceil(2);
            let h1_len = size - h0_len;
            let alive0 = self.d.engine_of_target(d0).is_alive();
            let alive1 = self.d.engine_of_target(d1).is_alive();
            match (alive0, alive1) {
                (true, true) => vec![(d0, h0_len.min(len)), (d1, h1_len.min(len))],
                (false, true) => {
                    // Reconstruct cell 0 from cell 1 + parity.
                    self.engine_for(pt)?;
                    ec_reconstruct = Some(0);
                    vec![(d1, h1_len), (pt, h0_len)]
                }
                (true, false) => {
                    self.engine_for(pt)?;
                    ec_reconstruct = Some(1);
                    vec![(d0, h0_len), (pt, h0_len)]
                }
                (false, false) => {
                    return Err(DaosError::EngineUnavailable(
                        self.d.engine_index_of_target(d0),
                    ))
                }
            }
        } else if oid.class().replicas(self.pool_targets()) > 1 {
            // Degraded-capable read: any alive replica serves the extent.
            let reps: Vec<u32> = replica_targets(oid, self.pool_targets())
                .into_iter()
                .map(|t| self.live_target(t))
                .collect();
            vec![(self.first_alive(&reps)?, len)]
        } else {
            array_target_shards(oid, offset, len, self.pool_targets())
                .into_iter()
                .map(|(t, b)| (self.live_target(t), b))
                .collect()
        };
        for (t, _) in &shards {
            self.engine_for(*t)?;
        }
        self.latency().await;
        let lock = self.d.obj_lock(cont.uuid, oid, offset / ARRAY_CHUNK);
        let out;
        {
            let _g = lock.acquire_one(self.lane()).await;
            let _os = self.d.sim.span("objstore", "array_fetch");
            let reads: Vec<_> = shards
                .iter()
                .map(|&(t, bytes)| {
                    let this = self.clone();
                    async move { this.shard_read(t, bytes).await }
                })
                .collect();
            for r in join_all(reads).await {
                r?;
            }
            out = if let Some(lost) = ec_reconstruct {
                // Genuinely reconstruct from the surviving cell plus the
                // stored parity, charging XOR time; the logical extent is
                // NOT consulted for the lost cell.
                let size = cont.cont.array_size(oid)?;
                let h0_len = size.div_ceil(2) as usize;
                let parity = cont
                    .cont
                    .array_parity(oid)?
                    .ok_or(DaosError::InvalidArg("EC object without parity"))?;
                let cal = &self.d.spec.calibration;
                self.d
                    .sim
                    .sleep(SimDuration::from_secs_f64(
                        size as f64 / (cal.ec_reconstruct_gib * daosim_net::GIB),
                    ))
                    .await;
                let full = if lost == 0 {
                    let h1 = cont
                        .cont
                        .array_read(oid, h0_len as u64, size - h0_len as u64)?;
                    let h0 = ec::reconstruct_cell(&h1, &parity, h0_len);
                    ec::join_halves(&h0, &h1)
                } else {
                    let h0 = cont.cont.array_read(oid, 0, h0_len as u64)?;
                    let h1 = ec::reconstruct_cell(&h0, &parity, size as usize - h0_len);
                    ec::join_halves(&h0, &h1)
                };
                let end = ((offset + len) as usize).min(full.len());
                let start = (offset as usize).min(end);
                full.slice(start..end)
            } else {
                cont.cont.array_read(oid, offset, len)?
            };
        }
        self.latency().await;
        Ok(out)
    }

    async fn array_size_once(&self, cont: &SimCont, oid: Oid) -> Result<u64> {
        let cal = self.d.spec.calibration;
        let t = self.meta_target(oid)?;
        let service = cal.array_open_cost + self.d.target(t).media.read_time(128);
        self.small_rpc(t, service).await?;
        cont.cont.array_size(oid)
    }

    async fn array_close_once(&self, _cont: &SimCont, _oid: Oid) -> Result<()> {
        // Handle close is client-local in DAOS; no RPC.
        self.d
            .sim
            .sleep(self.d.spec.calibration.array_close_cost)
            .await;
        Ok(())
    }

    async fn obj_punch_once(&self, cont: &SimCont, oid: Oid) -> Result<()> {
        let cal = self.d.spec.calibration;
        let t = self.meta_target(oid)?;
        self.small_rpc(t, cal.array_create_cost).await?;
        cont.cont.obj_punch(oid)
    }

    async fn list_array_objects_once(&self, cont: &SimCont) -> Result<Vec<Oid>> {
        // Enumeration walks the container's object table on its engines;
        // charge a metadata RPC plus a per-object scan cost at the pool
        // metadata service.
        let cal = self.d.spec.calibration;
        self.latency().await;
        let arrays = cont.cont.list_arrays();
        {
            let _p = self.d.pool_md.acquire_one(self.lane()).await;
            let per_obj = SimDuration::from_nanos(500);
            self.d
                .sim
                .sleep(
                    cal.cont_open_cost
                        + SimDuration::from_nanos(
                            per_obj.as_nanos().saturating_mul(arrays.len() as u64),
                        ),
                )
                .await;
        }
        self.latency().await;
        Ok(arrays)
    }

    fn pool_targets(&self) -> u32 {
        self.d.spec.pool_targets()
    }
}

/// The public API: every engine-touching operation runs through
/// [`SimClient::retrying`]. Container open/create (pool-metadata only),
/// handle close (client-local) and enumeration are left unwrapped — they
/// never consult an engine's liveness.
impl DaosApi for SimClient {
    type Cont = SimCont;

    async fn cont_open_or_create(&self, uuid: Uuid) -> Result<Self::Cont> {
        self.cont_open_or_create_once(uuid).await
    }

    async fn cont_open(&self, uuid: Uuid) -> Result<Self::Cont> {
        self.cont_open_once(uuid).await
    }

    async fn kv_put(&self, cont: &Self::Cont, oid: Oid, key: &[u8], value: Bytes) -> Result<()> {
        let (this, cont) = (self.clone(), cont.clone());
        self.retrying(ClientOp::KvPut, move || {
            let (this, cont, value) = (this.clone(), cont.clone(), value.clone());
            async move { this.kv_put_once(&cont, oid, key, value).await }
        })
        .await
    }

    async fn kv_get(&self, cont: &Self::Cont, oid: Oid, key: &[u8]) -> Result<Option<Bytes>> {
        let (this, cont) = (self.clone(), cont.clone());
        self.retrying(ClientOp::KvGet, move || {
            let (this, cont) = (this.clone(), cont.clone());
            async move { this.kv_get_once(&cont, oid, key).await }
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
        let (this, cont) = (self.clone(), cont.clone());
        self.retrying(ClientOp::KvPutIfAbsent, move || {
            let (this, cont, value) = (this.clone(), cont.clone(), value.clone());
            async move { this.kv_put_if_absent_once(&cont, oid, key, value).await }
        })
        .await
    }

    async fn kv_remove(&self, cont: &Self::Cont, oid: Oid, key: &[u8]) -> Result<()> {
        let (this, cont) = (self.clone(), cont.clone());
        self.retrying(ClientOp::KvRemove, move || {
            let (this, cont) = (this.clone(), cont.clone());
            async move { this.kv_remove_once(&cont, oid, key).await }
        })
        .await
    }

    async fn kv_list_keys(&self, cont: &Self::Cont, oid: Oid) -> Result<Vec<Bytes>> {
        let (this, cont) = (self.clone(), cont.clone());
        self.retrying(ClientOp::KvListKeys, move || {
            let (this, cont) = (this.clone(), cont.clone());
            async move { this.kv_list_keys_once(&cont, oid).await }
        })
        .await
    }

    async fn kv_list_range(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        from: Bytes,
        until: Option<Bytes>,
    ) -> Result<Vec<Bytes>> {
        let (this, cont) = (self.clone(), cont.clone());
        self.retrying(ClientOp::KvListRange, move || {
            let (this, cont, from, until) =
                (this.clone(), cont.clone(), from.clone(), until.clone());
            async move {
                this.kv_list_range_once(&cont, oid, &from, until.as_deref())
                    .await
            }
        })
        .await
    }

    async fn kv_put_multi(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        pairs: Vec<(Bytes, Bytes)>,
    ) -> Result<()> {
        let (this, cont) = (self.clone(), cont.clone());
        self.retrying(ClientOp::KvPutMulti, move || {
            let (this, cont, pairs) = (this.clone(), cont.clone(), pairs.clone());
            async move { this.kv_put_multi_once(&cont, oid, pairs).await }
        })
        .await
    }

    async fn array_create(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        let (this, cont) = (self.clone(), cont.clone());
        self.retrying(ClientOp::ArrayCreate, move || {
            let (this, cont) = (this.clone(), cont.clone());
            async move { this.array_create_once(&cont, oid).await }
        })
        .await
        .map(|()| ArrayHandle::from_open(oid))
    }

    async fn array_open(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        let (this, cont) = (self.clone(), cont.clone());
        self.retrying(ClientOp::ArrayOpen, move || {
            let (this, cont) = (this.clone(), cont.clone());
            async move { this.array_open_once(&cont, oid).await }
        })
        .await
        .map(|()| ArrayHandle::from_open(oid))
    }

    async fn array_open_or_create(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        let (this, cont) = (self.clone(), cont.clone());
        self.retrying(ClientOp::ArrayOpenOrCreate, move || {
            let (this, cont) = (this.clone(), cont.clone());
            async move { this.array_open_or_create_once(&cont, oid).await }
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
        let (this, cont, oid) = (self.clone(), cont.clone(), handle.oid());
        self.retrying(ClientOp::ArrayWrite, move || {
            let (this, cont, data) = (this.clone(), cont.clone(), data.clone());
            async move { this.array_write_once(&cont, oid, offset, data).await }
        })
        .await
    }

    async fn array_write_vec(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        iovs: Vec<(u64, Bytes)>,
    ) -> Result<()> {
        let (this, cont, oid) = (self.clone(), cont.clone(), handle.oid());
        self.retrying(ClientOp::ArrayWriteVec, move || {
            let (this, cont, iovs) = (this.clone(), cont.clone(), iovs.clone());
            async move { this.array_write_vec_once(&cont, oid, iovs).await }
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
        let (this, cont, oid) = (self.clone(), cont.clone(), handle.oid());
        self.retrying(ClientOp::ArrayRead, move || {
            let (this, cont) = (this.clone(), cont.clone());
            async move { this.array_read_once(&cont, oid, offset, len).await }
        })
        .await
    }

    async fn array_size(&self, cont: &Self::Cont, handle: &ArrayHandle) -> Result<u64> {
        let (this, cont, oid) = (self.clone(), cont.clone(), handle.oid());
        self.retrying(ClientOp::ArraySize, move || {
            let (this, cont) = (this.clone(), cont.clone());
            async move { this.array_size_once(&cont, oid).await }
        })
        .await
    }

    async fn array_close(&self, cont: &Self::Cont, handle: ArrayHandle) -> Result<()> {
        self.array_close_once(cont, handle.oid()).await
    }

    async fn obj_punch(&self, cont: &Self::Cont, oid: Oid) -> Result<()> {
        let (this, cont) = (self.clone(), cont.clone());
        self.retrying(ClientOp::ObjPunch, move || {
            let (this, cont) = (this.clone(), cont.clone());
            async move { this.obj_punch_once(&cont, oid).await }
        })
        .await
    }

    async fn list_array_objects(&self, cont: &Self::Cont) -> Result<Vec<Oid>> {
        self.list_array_objects_once(cont).await
    }

    fn pool_targets(&self) -> u32 {
        SimClient::pool_targets(self)
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
        assert_eq!(client.first_alive(&[]), Err(DaosError::NoTargets));
        // Non-empty behaviour unchanged: picks the first alive target...
        assert_eq!(client.first_alive(&[3, 17]), Ok(3));
        d.kill_engine(0);
        assert_eq!(client.first_alive(&[3, 17]), Ok(17));
        // ...and blames the last candidate's engine when all are down.
        d.kill_engine(1);
        assert_eq!(
            client.first_alive(&[3, 17]),
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
