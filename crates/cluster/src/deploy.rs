//! Cluster deployment: servers, engines, targets and shared services.
//!
//! A deployment wires together the fabric (raw network), per-engine and
//! per-client-socket *stack links* (software processing capacities), the
//! per-target FIFO service queues with their SCM media shares, the pool
//! metadata service, and the backing [`DaosStore`] that holds real data.
//! Everything timed lives here; the [`crate::client::SimClient`] composes
//! these pieces into DAOS operations.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use std::fmt;

use daosim_kernel::sync::{AdmissionClass, AdmissionPolicy, PrioritySemaphore};
use daosim_kernel::Sim;
use daosim_media::{MediaConfigError, MediaTally, TierPolicy, TieredMedia};
use daosim_net::{Endpoint, Fabric, FabricSpec, LinkId, ProviderProfile, RouteId};
use daosim_objstore::prelude::{Oid, Uuid};
use daosim_objstore::store::DEFAULT_POOL_CAPACITY;
use daosim_objstore::{DaosStore, Pool};

use crate::calibration::Calibration;
use crate::client::ClientMetrics;
use crate::fault::{ResilienceStats, RetryPolicy};

/// Static description of a cluster to deploy.
#[derive(Clone, Copy, Debug)]
pub struct ClusterSpec {
    pub server_nodes: u16,
    /// Engines per server node (1 = single-socket deployments, as in the
    /// paper's PSM2 runs; 2 = the usual dual-engine setup).
    pub engines_per_node: u8,
    pub targets_per_engine: u32,
    pub client_nodes: u16,
    /// Client sockets used per client node (PSM2 runs used 1).
    pub client_sockets: u8,
    pub provider: ProviderProfile,
    pub calibration: Calibration,
    /// Client-side retry/deadline policy. Defaults to
    /// fail fast (`RetryPolicy::builder().build()`), preserving the
    /// pre-resilience behaviour; build with
    /// [`crate::RetryPolicyBuilder::operational`] for fault drills.
    pub retry: RetryPolicy,
    /// Admission policy for every serial service queue in the deployment
    /// (target FIFOs, engine metadata executors, the pool metadata
    /// service, per-object update locks). `Fifo` (the default) is
    /// byte-identical to the plain-semaphore behaviour; `WriterPriority`
    /// admits `QosClass::Writer` clients ahead of readers with an aging
    /// anti-starvation credit.
    pub admission: AdmissionPolicy,
    /// Media tier policy for every target (DESIGN.md §14).
    /// `TierPolicy::scm_only()` (the default) reproduces the paper's
    /// SCM-only testbed bit-for-bit; `TierPolicy::tiered()` adds the NVMe
    /// capacity tier with SCM-write-buffer placement and watermark-driven
    /// aggregation.
    pub tiering: TierPolicy,
}

/// A structurally invalid [`ClusterSpec`], reported as a typed error by
/// [`ClusterSpec::validate`] / [`Deployment::try_new`] instead of a
/// panic deep inside deployment (the PR 8 zero-shape `BadArgs` pattern).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClusterSpecError {
    /// The named shape field must be non-zero.
    Zero(&'static str),
    /// The named field must be 1 or 2 (socket-bound resources).
    NotOneOrTwo(&'static str),
    /// The media tier configuration is invalid.
    Media(MediaConfigError),
}

impl fmt::Display for ClusterSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterSpecError::Zero(field) => {
                write!(f, "cluster spec: {field} must be non-zero")
            }
            ClusterSpecError::NotOneOrTwo(field) => {
                write!(f, "cluster spec: {field} must be 1 or 2")
            }
            ClusterSpecError::Media(e) => write!(f, "cluster spec: {e}"),
        }
    }
}

impl std::error::Error for ClusterSpecError {}

impl From<MediaConfigError> for ClusterSpecError {
    fn from(e: MediaConfigError) -> Self {
        ClusterSpecError::Media(e)
    }
}

impl ClusterSpec {
    /// The paper's standard TCP deployment shape: two engines per server
    /// node, 12 targets per engine, clients using both sockets.
    pub fn tcp(server_nodes: u16, client_nodes: u16) -> Self {
        ClusterSpec {
            server_nodes,
            engines_per_node: 2,
            targets_per_engine: 12,
            client_nodes,
            client_sockets: 2,
            provider: ProviderProfile::tcp(),
            calibration: Calibration::nextgenio(),
            retry: RetryPolicy::builder().build(),
            admission: AdmissionPolicy::Fifo,
            tiering: TierPolicy::scm_only(),
        }
    }

    /// The paper's PSM2 shape: one engine per server node, one socket per
    /// client node (the single-rail restriction).
    pub fn psm2(server_nodes: u16, client_nodes: u16) -> Self {
        ClusterSpec {
            server_nodes,
            engines_per_node: 1,
            targets_per_engine: 12,
            client_nodes,
            client_sockets: 1,
            provider: ProviderProfile::psm2(),
            calibration: Calibration::nextgenio(),
            retry: RetryPolicy::builder().build(),
            admission: AdmissionPolicy::Fifo,
            tiering: TierPolicy::scm_only(),
        }
    }

    pub fn engines(&self) -> u32 {
        self.server_nodes as u32 * self.engines_per_node as u32
    }

    pub fn pool_targets(&self) -> u32 {
        self.engines() * self.targets_per_engine
    }

    /// Structural validation of the spec: zero shapes, socket-bound
    /// ranges, and the media tier policy. [`Deployment::try_new`] calls
    /// this so a bad shape is a typed error, not an assert.
    pub fn validate(&self) -> Result<(), ClusterSpecError> {
        if self.server_nodes == 0 {
            return Err(ClusterSpecError::Zero("server_nodes"));
        }
        if self.client_nodes == 0 {
            return Err(ClusterSpecError::Zero("client_nodes"));
        }
        if self.targets_per_engine == 0 {
            return Err(ClusterSpecError::Zero("targets_per_engine"));
        }
        if !(1..=2).contains(&self.engines_per_node) {
            return Err(ClusterSpecError::NotOneOrTwo("engines_per_node"));
        }
        if !(1..=2).contains(&self.client_sockets) {
            return Err(ClusterSpecError::NotOneOrTwo("client_sockets"));
        }
        self.tiering.validate()?;
        Ok(())
    }
}

/// Pool-wide queue-backlog gauge: how many client operations are waiting
/// for a target service slot right now, plus the high-water mark. The
/// client increments on entering a target's FIFO and decrements when the
/// slot is granted (or the wait is cancelled), so `depth()` is the
/// instantaneous contention the operational-NWP workload binds on and
/// `peak()` its worst case over the run.
#[derive(Default)]
pub struct BacklogGauge {
    depth: Cell<u64>,
    peak: Cell<u64>,
}

/// RAII witness of one queued operation; dropping it (slot granted or
/// wait abandoned via attempt timeout) decrements the gauge, so the
/// depth can never leak upward across cancelled attempts.
pub struct BacklogToken<'a>(&'a BacklogGauge);

impl BacklogGauge {
    /// Registers one waiter; the returned token undoes it on drop.
    pub fn enter(&self) -> BacklogToken<'_> {
        let d = self.depth.get() + 1;
        self.depth.set(d);
        if d > self.peak.get() {
            self.peak.set(d);
        }
        BacklogToken(self)
    }

    /// Operations currently waiting for a target slot.
    pub fn depth(&self) -> u64 {
        self.depth.get()
    }

    /// Deepest the queue has ever been.
    pub fn peak(&self) -> u64 {
        self.peak.get()
    }
}

impl Drop for BacklogToken<'_> {
    fn drop(&mut self) {
        let d = self.0.depth.get();
        // Each token decrements exactly once (Rust drop semantics); a
        // zero depth here would mean a decrement without a matching
        // `enter()`, which must never happen whatever order priority
        // admission grants or cancels queued ops in.
        debug_assert!(d > 0, "backlog gauge underflow");
        self.0.depth.set(d.saturating_sub(1));
    }
}

/// One DAOS target: a priority-admission service queue plus its media
/// share.
pub struct Target {
    pub sem: PrioritySemaphore,
    pub media: TieredMedia,
    /// Media operation totals, folded into the `media.*` metrics.
    pub tally: MediaTally,
    /// Accumulated busy time (ns) — service occupancy accounting.
    busy_ns: Cell<u64>,
}

impl Target {
    /// Charges `ns` of service occupancy.
    pub fn charge_busy(&self, ns: u64) {
        self.busy_ns.set(self.busy_ns.get() + ns);
    }

    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.get()
    }
}

/// One DAOS engine: a socket-pinned I/O process with its own fabric
/// endpoint, software-stack capacities, serial metadata executor and a
/// set of targets.
pub struct Engine {
    pub endpoint: Endpoint,
    pub rx_stack: LinkId,
    pub tx_stack: LinkId,
    /// Serial executor for engine-level metadata work (handle tables).
    pub meta: PrioritySemaphore,
    pub targets: Vec<Target>,
    alive: Cell<bool>,
    /// Transiently unresponsive (brownout): the engine process is up but
    /// not answering; clears on its own, unlike a crash.
    browned_out: Cell<bool>,
    /// Healthy stack-link capacities (GiB/s), the restore point for NIC
    /// degradation faults.
    nominal_rx_gib: f64,
    nominal_tx_gib: f64,
}

impl Engine {
    /// Whether the engine currently answers RPCs: up and not in a
    /// brownout window.
    pub fn is_alive(&self) -> bool {
        self.alive.get() && !self.browned_out.get()
    }

    pub fn is_browned_out(&self) -> bool {
        self.browned_out.get()
    }
}

struct ClientSocket {
    tx_stack: LinkId,
    rx_stack: LinkId,
    /// Interned bulk routes to/from each engine, filled on first use:
    /// slot `2 * engine` for writes, `2 * engine + 1` for reads.
    routes: RefCell<Vec<Option<RouteId>>>,
}

/// A deployed cluster. Obtain one per simulation via [`Deployment::new`].
pub struct Deployment {
    pub sim: Sim,
    pub spec: ClusterSpec,
    pub fabric: Fabric,
    pub engines: Vec<Engine>,
    /// Stack links per (client node index, socket).
    client_sockets: Vec<Vec<ClientSocket>>,
    pub store: Arc<DaosStore>,
    pub pool: Arc<Pool>,
    /// The pool metadata service (container create/open), a serial queue
    /// hosted by engine 0.
    pub pool_md: PrioritySemaphore,
    /// Lazily materialised per-object-region update locks.
    obj_locks: RefCell<HashMap<(Uuid, Oid, u64), PrioritySemaphore>>,
    /// Pool-map overrides installed by rebuild: dead target → survivor.
    target_remap: RefCell<HashMap<u32, u32>>,
    /// Retry/timeout/failover/fault counters (see [`crate::fault`]).
    resilience: ResilienceStats,
    /// Pre-resolved per-op `client.*` metric handles (hot-path interning,
    /// see [`crate::client::ClientMetrics`]).
    client_metrics: ClientMetrics,
    /// Pool-wide target-queue backlog (instantaneous depth + peak).
    backlog: BacklogGauge,
}

impl Deployment {
    /// Deploys the cluster, panicking on a structurally invalid spec.
    /// Call [`Deployment::try_new`] to get the typed error instead.
    pub fn new(sim: &Sim, spec: ClusterSpec) -> Rc<Self> {
        Self::try_new(sim, spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Deploys the cluster after validating the spec.
    pub fn try_new(sim: &Sim, spec: ClusterSpec) -> Result<Rc<Self>, ClusterSpecError> {
        spec.validate()?;

        let total_nodes = spec.server_nodes + spec.client_nodes;
        let mut fabric_spec = FabricSpec::new(total_nodes, spec.provider);
        if spec.server_nodes > 1 {
            fabric_spec.host_efficiency = spec.calibration.multi_server_host_efficiency;
        }
        let fabric = Fabric::new(sim, fabric_spec);
        let cal = &spec.calibration;
        // RDMA (PSM2) removes most per-byte stack cost on both ends.
        let stack_gain = if spec.provider.name == "psm2" {
            cal.psm2_stack_gain
        } else {
            1.0
        };

        let engines = (0..spec.engines())
            .map(|e| {
                let node = (e / spec.engines_per_node as u32) as u16;
                let socket = (e % spec.engines_per_node as u32) as u8;
                let nominal_rx_gib = cal.engine_rx_gib * stack_gain;
                let nominal_tx_gib = cal.engine_tx_gib * stack_gain;
                Engine {
                    endpoint: Endpoint::new(node, socket),
                    rx_stack: fabric.net().add_link(nominal_rx_gib),
                    tx_stack: fabric.net().add_link(nominal_tx_gib),
                    meta: PrioritySemaphore::new(1, spec.admission),
                    // Each engine is pinned to its own socket and thus its
                    // own interleaved DIMM set, so a target's media share
                    // divides only its engine's target count.
                    targets: (0..spec.targets_per_engine)
                        .map(|_| Target {
                            sem: PrioritySemaphore::new(1, spec.admission),
                            media: TieredMedia::new(cal.scm, spec.tiering, spec.targets_per_engine)
                                .expect("spec validated above"),
                            tally: MediaTally::default(),
                            busy_ns: Cell::new(0),
                        })
                        .collect(),
                    alive: Cell::new(true),
                    browned_out: Cell::new(false),
                    nominal_rx_gib,
                    nominal_tx_gib,
                }
            })
            .collect();

        let client_sockets = (0..spec.client_nodes)
            .map(|_| {
                (0..spec.client_sockets)
                    .map(|_| ClientSocket {
                        tx_stack: fabric.net().add_link(cal.client_tx_gib * stack_gain),
                        rx_stack: fabric.net().add_link(cal.client_rx_gib * stack_gain),
                        routes: RefCell::new(Vec::new()),
                    })
                    .collect()
            })
            .collect();

        let store = Arc::new(DaosStore::new());
        let pool = store
            .pool_create(
                Uuid::from_name(b"daosim-pool"),
                spec.pool_targets(),
                DEFAULT_POOL_CAPACITY,
            )
            .expect("fresh store");

        Ok(Rc::new(Deployment {
            sim: sim.clone(),
            spec,
            fabric,
            engines,
            client_sockets,
            store,
            pool,
            pool_md: PrioritySemaphore::new(1, spec.admission),
            obj_locks: RefCell::new(HashMap::new()),
            target_remap: RefCell::new(HashMap::new()),
            resilience: ResilienceStats::new(sim.obs().metrics()),
            client_metrics: ClientMetrics::new(sim.obs().metrics()),
            backlog: BacklogGauge::default(),
        }))
    }

    /// The engine owning global pool target `t`.
    pub fn engine_of_target(&self, t: u32) -> &Engine {
        &self.engines[(t / self.spec.targets_per_engine) as usize]
    }

    pub fn engine_index_of_target(&self, t: u32) -> u32 {
        t / self.spec.targets_per_engine
    }

    /// The target's service queue/media within its engine.
    pub fn target(&self, t: u32) -> &Target {
        let e = self.engine_of_target(t);
        &e.targets[(t % self.spec.targets_per_engine) as usize]
    }

    /// The fabric endpoint of client process slot `(client node, rank)`:
    /// processes are balanced across the node's sockets, as the paper's
    /// pinning strategy prescribes.
    pub fn client_endpoint(&self, client_node: u16, rank_on_node: u32) -> Endpoint {
        assert!(client_node < self.spec.client_nodes);
        Endpoint::new(
            self.spec.server_nodes + client_node,
            (rank_on_node % self.spec.client_sockets as u32) as u8,
        )
    }

    fn client_socket(&self, ep: Endpoint) -> &ClientSocket {
        let node = (ep.node - self.spec.server_nodes) as usize;
        &self.client_sockets[node][ep.socket as usize]
    }

    /// Route for client → engine bulk data (writes), including software
    /// stack links on both ends.
    pub fn write_route(&self, client: Endpoint, engine: &Engine) -> Vec<LinkId> {
        let mut r = vec![self.client_socket(client).tx_stack];
        r.extend(self.fabric.route(client, engine.endpoint));
        r.push(engine.rx_stack);
        r
    }

    /// Route for engine → client bulk data (reads).
    pub fn read_route(&self, engine: &Engine, client: Endpoint) -> Vec<LinkId> {
        let mut r = vec![engine.tx_stack];
        r.extend(self.fabric.route(engine.endpoint, client));
        r.push(self.client_socket(client).rx_stack);
        r
    }

    /// Interned [`Self::write_route`] from `client` to engine `engine`,
    /// cached per (client socket, engine, direction).
    pub(crate) fn write_route_id(&self, client: Endpoint, engine: u32) -> RouteId {
        self.bulk_route_id(client, engine, false)
    }

    /// Interned [`Self::read_route`] from engine `engine` to `client`.
    pub(crate) fn read_route_id(&self, engine: u32, client: Endpoint) -> RouteId {
        self.bulk_route_id(client, engine, true)
    }

    fn bulk_route_id(&self, client: Endpoint, engine: u32, read: bool) -> RouteId {
        let slot = 2 * engine as usize + read as usize;
        let routes = &self.client_socket(client).routes;
        if let Some(&Some(id)) = routes.borrow().get(slot) {
            return id;
        }
        let e = &self.engines[engine as usize];
        let route = if read {
            self.read_route(e, client)
        } else {
            self.write_route(client, e)
        };
        let id = self.fabric.net().intern_route(&route);
        let mut routes = routes.borrow_mut();
        if routes.len() <= slot {
            routes.resize(2 * self.engines.len(), None);
        }
        routes[slot] = Some(id);
        id
    }

    /// Per-object-region update lock (DTX-leader serialization
    /// surrogate). Key-Value operations use region 0 (whole-object
    /// semantics); Array operations key by the extent's starting chunk,
    /// so conflicting overwrites serialize while disjoint extents — e.g.
    /// IOR shared-file ranks — proceed concurrently, as DAOS's
    /// extent-granular versioning allows.
    pub fn obj_lock(&self, cont: Uuid, oid: Oid, region: u64) -> PrioritySemaphore {
        self.obj_locks
            .borrow_mut()
            .entry((cont, oid, region))
            .or_insert_with(|| PrioritySemaphore::new(1, self.spec.admission))
            .clone()
    }

    /// Installs a pool-map override: I/O addressed to `from` lands on
    /// `to` (rebuild's target exclusion + replacement).
    pub fn set_target_remap(&self, from: u32, to: u32) {
        assert!(
            self.engine_of_target(to).is_alive(),
            "remap replacement target {to} is on a dead engine"
        );
        self.target_remap.borrow_mut().insert(from, to);
    }

    /// Resolves a placement-computed target through the pool map.
    pub fn resolve_target(&self, t: u32) -> u32 {
        *self.target_remap.borrow().get(&t).unwrap_or(&t)
    }

    /// Streams `bytes` from one target's media to another's over the
    /// fabric — the rebuild data path (engine-to-engine, no client).
    pub async fn stream_between_targets(&self, src: u32, dst: u32, bytes: u64) {
        let (se, de) = (
            self.engine_index_of_target(src) as usize,
            self.engine_index_of_target(dst) as usize,
        );
        let src_engine = &self.engines[se];
        let dst_engine = &self.engines[de];
        // Media read at the source, bulk flow, media write at the sink —
        // pipelined like client bulk I/O.
        let read = async {
            let t = self.target(src);
            let q = self.sim.span_leaf("media", "queue");
            // Rebuild is background traffic: never ahead of clients.
            let _p = t.sem.acquire_one(AdmissionClass::Normal).await;
            q.end();
            let _s = self.sim.span_leaf("media", "service");
            let dur = t.media.read_time(bytes);
            self.sim.sleep(dur).await;
            t.charge_busy(dur.as_nanos());
            t.tally.note_read(bytes);
        };
        let write = async {
            let t = self.target(dst);
            let q = self.sim.span_leaf("media", "queue");
            let _p = t.sem.acquire_one(AdmissionClass::Normal).await;
            q.end();
            let _s = self.sim.span_leaf("media", "service");
            // Rebuild lands data like foreground writes: charge the
            // receiving tier's occupancy. A full sink still pays the SCM
            // service time (the stream is best-effort; the pool-level
            // capacity check is the client's job).
            let dur = match t.media.charge_write(bytes) {
                Ok(charge) => charge.time,
                Err(_) => t.media.scm().write_time(bytes),
            };
            self.sim.sleep(dur).await;
            t.charge_busy(dur.as_nanos());
            t.tally.note_write(bytes);
        };
        let flow = async {
            if se != de {
                let mut route = vec![src_engine.tx_stack];
                route.extend(self.fabric.route(src_engine.endpoint, dst_engine.endpoint));
                route.push(dst_engine.rx_stack);
                let cap = self
                    .fabric
                    .flow_cap(src_engine.endpoint, dst_engine.endpoint);
                self.fabric.net().transfer(&route, bytes, cap).await;
            }
        };
        type BoxFut<'a> = std::pin::Pin<Box<dyn std::future::Future<Output = ()> + 'a>>;
        let parts: Vec<BoxFut> = vec![Box::pin(read), Box::pin(write), Box::pin(flow)];
        daosim_kernel::sync::join_all(parts).await;
    }

    /// Per-engine target occupancy over the elapsed simulated time:
    /// `(mean, max)` busy fraction across the engine's targets. A mean
    /// near 1.0 means the engine's media/targets were the bottleneck.
    pub fn engine_utilization(&self) -> Vec<(f64, f64)> {
        let elapsed = self.sim.now().as_nanos().max(1) as f64;
        self.engines
            .iter()
            .map(|e| {
                let fracs: Vec<f64> = e
                    .targets
                    .iter()
                    .map(|t| t.busy_ns() as f64 / elapsed)
                    .collect();
                let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
                let max = fracs.iter().copied().fold(0.0, f64::max);
                (mean, max)
            })
            .collect()
    }

    /// Failure injection: mark an engine down. In-flight waiters still
    /// drain; new operations targeting it fail.
    pub fn kill_engine(&self, index: u32) {
        self.engines[index as usize].alive.set(false);
    }

    pub fn revive_engine(&self, index: u32) {
        self.engines[index as usize].alive.set(true);
    }

    /// Failure injection: engine transiently unresponsive. Surfaces to
    /// clients exactly like a crash (`EngineUnavailable`) but is expected
    /// to clear on its own via [`Deployment::clear_brownout`].
    pub fn brownout_engine(&self, index: u32) {
        self.engines[index as usize].browned_out.set(true);
    }

    pub fn clear_brownout(&self, index: u32) {
        self.engines[index as usize].browned_out.set(false);
    }

    /// Failure injection: scales the engine's NIC/stack capacity by
    /// `factor` (in `(0, 1]`) at the current instant. In-flight flows
    /// slow down from here on; [`Deployment::restore_engine_nic`] (or
    /// `factor = 1.0`) returns to nominal.
    pub fn degrade_engine_nic(&self, index: u32, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "degradation factor must be in (0, 1]"
        );
        let e = &self.engines[index as usize];
        let net = self.fabric.net();
        net.set_link_capacity(e.rx_stack, e.nominal_rx_gib * factor);
        net.set_link_capacity(e.tx_stack, e.nominal_tx_gib * factor);
    }

    pub fn restore_engine_nic(&self, index: u32) {
        self.degrade_engine_nic(index, 1.0);
    }

    /// Live resilience counters for this deployment.
    pub fn resilience(&self) -> &ResilienceStats {
        &self.resilience
    }

    /// Pre-resolved client-op metric handles for this deployment.
    pub fn client_metrics(&self) -> &ClientMetrics {
        &self.client_metrics
    }

    /// Pool-wide target-queue backlog gauge. Sample `depth()` from a
    /// timed task for a time series, or read `peak()` after a run.
    pub fn backlog(&self) -> &BacklogGauge {
        &self.backlog
    }

    /// Total grants the anti-starvation aging credit forced to the
    /// normal lane, summed over every service queue in the deployment.
    /// Zero under `AdmissionPolicy::Fifo`; under `WriterPriority` a
    /// non-zero value is the proof readers were aged in, not starved.
    pub fn aged_grants(&self) -> u64 {
        let mut total = self.pool_md.aged_grants();
        for e in &self.engines {
            total += e.meta.aged_grants();
            total += e.targets.iter().map(|t| t.sem.aged_grants()).sum::<u64>();
        }
        total += self
            .obj_locks
            .borrow()
            .values()
            .map(|s| s.aged_grants())
            .sum::<u64>();
        total
    }

    /// Folds the passive tallies — per-engine media counters, per-engine
    /// busy time, pool usage, and the pool's object-store op counts —
    /// into the world's metrics registry. Call once, after a run, before
    /// snapshotting: the fold *sets* registry values from the tallies, so
    /// repeated calls would double-count.
    pub fn fold_metrics(&self) {
        let reg = self.sim.obs().metrics();
        for (i, e) in self.engines.iter().enumerate() {
            let mut media = daosim_media::MediaCounts::default();
            let mut busy = 0u64;
            let (mut scm_used, mut nvme_used, mut aggregated) = (0u64, 0u64, 0u64);
            for t in &e.targets {
                let c = t.tally.counts();
                media.reads += c.reads;
                media.writes += c.writes;
                media.bytes_read += c.bytes_read;
                media.bytes_written += c.bytes_written;
                busy += t.busy_ns();
                scm_used += t.media.scm_used();
                nvme_used += t.media.nvme_used();
                aggregated += t.media.aggregated_bytes();
            }
            reg.counter(&format!("media.e{i}.reads")).add(media.reads);
            reg.counter(&format!("media.e{i}.writes")).add(media.writes);
            reg.counter(&format!("media.e{i}.bytes_read"))
                .add(media.bytes_read);
            reg.counter(&format!("media.e{i}.bytes_written"))
                .add(media.bytes_written);
            reg.counter(&format!("media.e{i}.scm_used")).add(scm_used);
            reg.counter(&format!("media.e{i}.nvme_used")).add(nvme_used);
            reg.counter(&format!("media.e{i}.aggregated_bytes"))
                .add(aggregated);
            reg.counter(&format!("engine.e{i}.busy_ns")).add(busy);
        }
        let ops = self.pool.op_counts();
        reg.counter("objstore.kv_updates").add(ops.kv_updates);
        reg.counter("objstore.kv_fetches").add(ops.kv_fetches);
        reg.counter("objstore.array_updates").add(ops.array_updates);
        reg.counter("objstore.array_fetches").add(ops.array_fetches);
        reg.counter("pool.used_bytes").add(self.pool.used());
        reg.counter("client.backlog_peak").add(self.backlog.peak());
        reg.counter("admission.aged_grants").add(self.aged_grants());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_counts() {
        let s = ClusterSpec::tcp(4, 8);
        assert_eq!(s.engines(), 8);
        assert_eq!(s.pool_targets(), 96);
        let p = ClusterSpec::psm2(4, 8);
        assert_eq!(p.engines(), 4);
    }

    #[test]
    fn engine_placement_covers_sockets() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(2, 2));
        assert_eq!(d.engines.len(), 4);
        assert_eq!(d.engines[0].endpoint, Endpoint::new(0, 0));
        assert_eq!(d.engines[1].endpoint, Endpoint::new(0, 1));
        assert_eq!(d.engines[2].endpoint, Endpoint::new(1, 0));
        assert_eq!(d.engines[3].endpoint, Endpoint::new(1, 1));
    }

    #[test]
    fn target_to_engine_mapping() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(2, 2));
        assert_eq!(d.engine_index_of_target(0), 0);
        assert_eq!(d.engine_index_of_target(11), 0);
        assert_eq!(d.engine_index_of_target(12), 1);
        assert_eq!(d.engine_index_of_target(47), 3);
    }

    #[test]
    fn client_endpoints_balance_sockets() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 2));
        assert_eq!(d.client_endpoint(0, 0), Endpoint::new(1, 0));
        assert_eq!(d.client_endpoint(0, 1), Endpoint::new(1, 1));
        assert_eq!(d.client_endpoint(0, 2), Endpoint::new(1, 0));
        assert_eq!(d.client_endpoint(1, 0), Endpoint::new(2, 0));
    }

    #[test]
    fn routes_include_stack_links() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
        let client = d.client_endpoint(0, 0);
        let w = d.write_route(client, &d.engines[0]);
        let r = d.read_route(&d.engines[0], client);
        // stack + 4 fabric links + stack (same-rail remote route).
        assert_eq!(w.len(), 6);
        assert_eq!(r.len(), 6);
        assert_ne!(w, r);
        // The cached interned ids resolve to the same link sequences.
        let net = d.fabric.net();
        let (wid, rid) = (d.write_route_id(client, 0), d.read_route_id(0, client));
        assert_eq!(&*net.route_links(wid), &w[..]);
        assert_eq!(&*net.route_links(rid), &r[..]);
        assert_eq!(d.write_route_id(client, 0), wid);
        assert_ne!(wid, rid);
    }

    #[test]
    fn obj_locks_are_shared_per_object() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
        let u = Uuid::from_name(b"c");
        let o = Oid::generate(0, 1, daosim_objstore::ObjectClass::S1);
        let a = d.obj_lock(u, o, 0);
        let _p = {
            // Hold a permit through one handle; the other sees it.
            use std::future::Future;
            let fut = a.acquire_one(AdmissionClass::Normal);
            let waker = std::task::Waker::noop();
            let mut cx = std::task::Context::from_waker(waker);
            let mut fut = std::pin::pin!(fut);
            match fut.as_mut().poll(&mut cx) {
                std::task::Poll::Ready(p) => p,
                std::task::Poll::Pending => panic!("uncontended lock pended"),
            }
        };
        let b = d.obj_lock(u, o, 0);
        assert_eq!(b.available(), 0);
    }

    #[test]
    fn backlog_token_decrements_exactly_once() {
        let g = BacklogGauge::default();
        let a = g.enter();
        let b = g.enter();
        assert_eq!(g.depth(), 2);
        assert_eq!(g.peak(), 2);
        drop(a);
        assert_eq!(g.depth(), 1, "first token decrements once");
        drop(b);
        assert_eq!(g.depth(), 0, "second token decrements once");
        assert_eq!(g.peak(), 2, "peak is sticky");
        // Re-entering after full drain starts from zero again, not from
        // an underflowed value.
        let c = g.enter();
        assert_eq!(g.depth(), 1);
        drop(c);
        assert_eq!(g.depth(), 0);
    }

    #[test]
    fn backlog_gauge_survives_cancel_after_promote_ordering() {
        // An op cancelled *after* its queue slot was promoted to service
        // drops its token exactly once; interleaving promoted and
        // cancelled ops in any order must return the gauge to zero
        // without underflow.
        let g = BacklogGauge::default();
        let t1 = g.enter(); // will be promoted, then finish
        let t2 = g.enter(); // will be cancelled while queued
        let t3 = g.enter(); // promoted after the cancellation
        assert_eq!(g.depth(), 3);
        drop(t2); // cancelled attempt: token dropped by the retry timeout
        drop(t1); // promoted op reaches service, drops its token
        drop(t3);
        assert_eq!(g.depth(), 0);
        assert_eq!(g.peak(), 3);
    }

    #[test]
    fn writer_priority_spec_threads_into_every_queue() {
        let sim = Sim::new();
        let mut spec = ClusterSpec::tcp(1, 1);
        spec.admission = AdmissionPolicy::writer_priority();
        let d = Deployment::new(&sim, spec);
        assert_eq!(d.pool_md.policy(), AdmissionPolicy::writer_priority());
        assert_eq!(
            d.engines[0].meta.policy(),
            AdmissionPolicy::writer_priority()
        );
        assert_eq!(d.target(0).sem.policy(), AdmissionPolicy::writer_priority());
        let u = Uuid::from_name(b"c");
        let o = Oid::generate(0, 1, daosim_objstore::ObjectClass::S1);
        assert_eq!(
            d.obj_lock(u, o, 0).policy(),
            AdmissionPolicy::writer_priority()
        );
        assert_eq!(d.aged_grants(), 0, "no traffic yet");
    }

    #[test]
    fn kill_and_revive_engine() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
        assert!(d.engines[0].is_alive());
        d.kill_engine(0);
        assert!(!d.engines[0].is_alive());
        d.revive_engine(0);
        assert!(d.engines[0].is_alive());
    }

    #[test]
    fn single_server_keeps_full_host_capacity() {
        // host_efficiency only applies with >1 server node; verified via
        // spec wiring (the fabric itself is tested in daosim-net).
        let sim = Sim::new();
        let spec = ClusterSpec::tcp(1, 4);
        let d = Deployment::new(&sim, spec);
        assert_eq!(d.fabric.spec().host_efficiency, 1.0);
        let sim2 = Sim::new();
        let d2 = Deployment::new(&sim2, ClusterSpec::tcp(2, 4));
        assert!(d2.fabric.spec().host_efficiency < 1.0);
    }
}
