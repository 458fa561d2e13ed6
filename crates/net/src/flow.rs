//! Fluid-flow bandwidth model with max-min fair sharing.
//!
//! Transfers are modelled as *flows*: a byte count draining over a route of
//! capacity-limited links. Whenever the flow population changes, every
//! flow's rate is recomputed by progressive filling (max-min fairness with
//! per-flow rate caps), remaining byte counts are brought up to date, and a
//! single event is scheduled for the earliest completion. This is the
//! classic fluid approximation used by flow-level network simulators: it
//! captures saturation, sharing and crossover behaviour without paying for
//! per-packet events.
//!
//! Per-flow caps model the single-stream limit of a fabric provider (e.g.
//! one TCP stream tops out near 3.1 GiB/s on NEXTGenIO's OmniPath while
//! PSM2 RDMA reaches 12.1 GiB/s). Flows may additionally carry a *cap
//! group*: flows in the same group (same host pair, in practice) see their
//! cap scaled by `count^-alpha`, reproducing the measured sub-linear
//! scaling of parallel TCP streams between one pair of hosts.
//!
//! # Incremental solver
//!
//! Flow populations in the cluster experiments are large (thousands of
//! concurrent shard transfers) but highly *redundant*: most flows share a
//! route, a cap and a cap group with many others, and max-min fairness
//! gives identical flows identical rates. The solver therefore works on
//! **route-equivalence classes** — the distinct `(route, cap, group)`
//! combinations — rather than individual flows. Flows live in a
//! generational slab, routes are interned ([`RouteId`]) into one flat link
//! array, and every solver working set is a reusable scratch buffer: the
//! settle path performs no per-event allocation.
//!
//! A recompute costs in proportion to the live state, not to every class
//! the net has ever seen. Each arrival and departure keeps up to date the
//! per-link member counts, the list of active classes, the link → active
//! class adjacency, the list of live links (member count > 0) and dense
//! per-group flow counts; a class caches its effective cap `base ·
//! n^-alpha` until its group's count `n` changes. A recompute then copies
//! residuals and counts and runs progressive filling in rounds. Each round
//! takes the level (the least live-link fair share or unfrozen class cap)
//! and visits only the classes that can freeze at it — those on a link
//! whose share is within tolerance of the level, and those bound by their
//! own cap — in ascending class index, re-checking each against the
//! current residuals before freezing it. A freeze that makes another link
//! tight mid-round queues that link's higher-index classes. The freeze set
//! and the order of residual subtraction are therefore exactly those of a
//! plain ascending scan over every unfrozen class, and so are the rates,
//! bit for bit (DESIGN.md §3.2b gives the argument).
//!
//! A round costs in proportion to the live links and the classes it
//! visits, not to every unfrozen class:
//!
//! - caps are fixed for a whole fill, so the unfrozen caps are rescanned
//!   only in a round whose tolerance reaches the least cap found by the
//!   last rescan (the *cap floor*); below it no cap can bind, and the
//!   level is the least link share;
//! - a link leaves the live list the moment its last class freezes, so no
//!   round filters the list;
//! - one pass over the live links finds the level and keeps each link
//!   whose share is within tolerance of the least share seen so far; the
//!   round's tight links are all on that short list;
//! - candidates live in a bitset popped by a forward cursor, in ascending
//!   index; a mid-round insert is always above the class just popped, so
//!   the cursor never has to move back.
//!
//! **Dominated links.** The solver works on the routes without the links
//! that can never bind. Link A is *dominated* when some link B lies on
//! every interned route through A, no route crosses A twice, and B has
//! less capacity than A (or the same and a lower index). Then B carries
//! at least A's unfrozen members and at most A's residual at every step
//! of a fill, and correctly rounded subtraction, `max(0)` and division
//! are monotone, so B's share is at most A's bit for bit: A never sets a
//! level, and when A is tight so is B, whose classes include A's. Every
//! candidate, freeze and subtraction on the other links is what it would
//! be with A kept, so the rates are too (DESIGN.md §3.2b). Per link the
//! net keeps the links shared by every interned route through it;
//! interning a route can only free a link of its domination, and a
//! capacity change can flip a link either way. A flip rebuilds the
//! solver's routes and the per-link member counts, adjacency and live
//! list from the active classes. Callers' routes ([`FlowNet::route_links`],
//! [`FlowNet::snapshot_rates`]) and the naive oracle keep every link.
//!
//! A settle's drain costs in proportion to the active classes, not to the
//! flows, by fair-queueing virtual time (Demers, Keshav & Shenker, SIGCOMM
//! 1989). Every flow of a class drains at the class's one rate, so a class
//! keeps `served`, the bytes each member has been served, and a min-heap
//! of its flows keyed by *tag*: `served` when the flow was filed plus its
//! bytes. A flow's remaining byte count is `tag − served`. A drain adds
//! `rate · dt` to each active class's `served` once, retires the flows at
//! the top of each heap with at most [`DRAIN_EPS`] bytes left, in
//! ascending slot order across classes (so same-instant completions fire
//! deterministically), and notes each class's least remaining byte count;
//! the next completion is the least `remaining / rate` over the active
//! classes, exact because correctly rounded division by a positive rate is
//! monotone. `delivered` adds `rate · dt` per filed member and gives back
//! what each retired flow overshot. An arrival does not drain anything: it
//! joins a pending list, and whichever drain runs next — the settle, or an
//! observer such as `bytes_delivered` or `set_link_capacity` at the same
//! instant — first advances every class and only then files the new flow
//! at the advanced `served`, so it takes no service for the interval its
//! arrival ends. Rates are unchanged by all this; remaining bytes and
//! `delivered` come from class-level sums, so they may differ from
//! per-flow subtraction in their last digits. `served` restarts at 0 when
//! a class empties, which keeps it within one busy period's bytes.
//!
//! Same-instant arrivals coalesce: `transfer` only queues one settle event
//! per instant, so a batch of N transfers issued at one tick triggers a
//! single recompute rather than N. The next-completion wakeup uses the
//! kernel's cancellable timers instead of scheduling a fresh closure per
//! settle and letting stale ones no-op via an epoch check.
//!
//! The pre-incremental per-flow solver is kept under `cfg(test)` as the
//! oracle for this crate's equivalence tests.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use daosim_kernel::sync::{oneshot, OneshotReceiver, OneshotSender};
use daosim_kernel::{Sim, SimDuration, SimTime, SpanId, TimerHandle};

/// One GiB in bytes, as a float; all public bandwidths are GiB/s.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// A byte count below which a flow is considered drained (guards float
/// rounding at completion events).
const DRAIN_EPS: f64 = 0.5;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub u32);

/// Generational flow handle: a slab slot plus the slot's generation at
/// issue time, so a reused slot never aliases a completed flow's id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(u64);

impl FlowId {
    fn new(slot: u32, generation: u32) -> Self {
        FlowId(((generation as u64) << 32) | slot as u64)
    }

    /// Slab slot the flow occupied.
    pub fn slot(self) -> u32 {
        self.0 as u32
    }

    /// Generation of the slot when the id was issued.
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Handle to an interned route (a deduplicated link sequence).
///
/// Interning makes starting a transfer over a recurring route cheap — the
/// hot path hashes one word instead of a link vector — and lets the solver
/// key its equivalence classes by route identity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RouteId(u32);

/// Per-flow rate constraints.
#[derive(Clone, Copy, Debug)]
pub struct FlowCap {
    /// Single-flow rate cap in GiB/s (`f64::INFINITY` for none).
    pub base_gib: f64,
    /// Optional cap group (e.g. a host pair). Flows sharing a group get
    /// `base * count^-alpha` each, modelling parallel-stream inefficiency.
    pub group: Option<u64>,
    /// Sub-linearity exponent for grouped flows; 0 disables the effect.
    pub alpha: f64,
}

impl FlowCap {
    pub fn unlimited() -> Self {
        FlowCap {
            base_gib: f64::INFINITY,
            group: None,
            alpha: 0.0,
        }
    }

    pub fn capped(base_gib: f64) -> Self {
        FlowCap {
            base_gib,
            group: None,
            alpha: 0.0,
        }
    }
}

/// Cumulative settle-path counters, for tests and benchmarks. Every one
/// is an exact count of work, so it repeats from run to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Settle passes executed. Same-instant arrivals coalesce into one.
    pub settles: u64,
    /// Rate recomputations actually performed (≤ `settles`; clean settles
    /// skip the solver entirely).
    pub recomputes: u64,
    /// Classes visited by settles' drains: each settle visits its active
    /// classes once, however many flows they hold.
    pub drain_visits: u64,
    /// Progressive-filling rounds over all recomputes.
    pub fill_rounds: u64,
    /// Classes frozen over all recomputes (each fill freezes every active
    /// class once).
    pub class_freezes: u64,
    /// Live links read by the rounds' level scans, counting the re-read
    /// of each link kept as possibly tight.
    pub link_visits: u64,
    /// Solver route links walked by freezes: each freeze walks its
    /// class's route once.
    pub route_visits: u64,
    /// Rounds that rescanned the unfrozen class caps.
    pub cap_rescans: u64,
}

struct Flow {
    class: u32,
    done: Option<OneshotSender<()>>,
    /// Open "net" span, closed when the flow drains.
    span: Option<SpanId>,
}

struct Slot {
    generation: u32,
    flow: Option<Flow>,
}

/// A route-equivalence class: every live flow with this `(route, cap,
/// group)` combination shares one max-min rate.
struct Class {
    route: RouteId,
    /// The route's span in [`Inner::solver_links`]: its links that are
    /// not dominated, so the only ones that can bind.
    links: (u32, u32),
    cap: FlowCap,
    /// Dense id of the cap group (index into [`Inner::group_counts`]).
    group: Option<u32>,
    /// Live flows currently in the class.
    active: u32,
    /// Position in [`Inner::active_classes`] while `active > 0`.
    active_pos: u32,
    /// Per-flow rate in bytes/s, set by the last recompute.
    rate: f64,
    /// Effective per-flow cap in bytes/s, and the group count it was
    /// computed for (it only changes when that count does).
    eff_cap: f64,
    cap_count: u32,
    /// Least remaining byte count over the class's filed flows, refreshed
    /// by every settle's drain.
    min_remaining: f64,
}

/// A class's virtual time and its filed flows. Kept beside [`Class`],
/// not in it, so the fill's per-class reads stay on fewer cache lines.
#[derive(Default)]
struct Queue {
    /// The bytes each member has been served, summed over the drains
    /// since the class last emptied.
    served: f64,
    /// Filed members as `(tag, slot)`, least tag on top. A flow's tag is
    /// the `served` it was filed at plus its bytes, so its remaining byte
    /// count is `tag − served`. Tags are non-negative, so their bit
    /// patterns order like their values.
    filed: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Class {
    /// `base · n^-alpha` for grouped classes, recomputed only when the
    /// group's count `n` moved since the cached value.
    fn refresh_cap(&mut self, group_counts: &[u32]) -> f64 {
        if let (Some(g), true) = (self.group, self.cap.alpha > 0.0) {
            let n = group_counts[g as usize];
            if n != self.cap_count {
                self.eff_cap = self.cap.base_gib * GIB * (n as f64).powf(-self.cap.alpha);
                self.cap_count = n;
            }
        }
        self.eff_cap
    }
}

/// What the interned routes through one link have in common.
#[derive(Default)]
struct Cover {
    /// The links on every interned route through this link (itself
    /// included); `None` until a route crosses it.
    shared: Option<Vec<u32>>,
    /// Some interned route crosses the link more than once.
    repeated: bool,
    /// Dropped from the solver's routes.
    dominated: bool,
}

impl Cover {
    /// Whether link `l` of capacity `links[l]` is dominated: no route
    /// crosses it twice, and a link on every route through it has less
    /// capacity, or the same capacity and a lower index.
    fn is_dominated(&self, links: &[f64], l: usize) -> bool {
        let cap = links[l];
        !self.repeated
            && self.shared.iter().flatten().any(|&b| {
                let b_cap = links[b as usize];
                b_cap < cap || (b_cap == cap && (b as usize) < l)
            })
    }
}

/// Appends `route` without its dominated links to `links`, and its span
/// there to `spans`.
fn push_pruned(
    cover: &[Cover],
    route: &[LinkId],
    links: &mut Vec<LinkId>,
    spans: &mut Vec<(u32, u32)>,
) {
    let start = links.len() as u32;
    links.extend(route.iter().filter(|l| !cover[l.0 as usize].dominated));
    spans.push((start, links.len() as u32));
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ClassKey {
    route: RouteId,
    cap_bits: (u64, u64), // (base_gib, alpha) as raw bits
    group: Option<u64>,
}

impl ClassKey {
    fn new(route: RouteId, cap: FlowCap) -> Self {
        ClassKey {
            route,
            cap_bits: (cap.base_gib.to_bits(), cap.alpha.to_bits()),
            group: cap.group,
        }
    }
}

/// Reusable solver working sets; cleared, never reallocated, per settle.
#[derive(Default)]
struct Scratch {
    /// Per link: residual capacity, unfrozen member count, current fair
    /// share (`residual / count`), and the round it was last found tight
    /// (numbered by [`SolverStats::fill_rounds`]).
    residual: Vec<f64>,
    count: Vec<u32>,
    share: Vec<f64>,
    tight: Vec<u64>,
    /// Links with unfrozen members, and each one's position in that list
    /// (a link leaves it when its count reaches 0).
    live: Vec<u32>,
    live_pos: Vec<u32>,
    /// Per class: frozen this recompute.
    frozen: Vec<bool>,
    /// Classes to try this round.
    pending: ClassSet,
    /// Links a round's level scan kept as possibly tight.
    near: Vec<u32>,
    /// Slots a drain retires, sorted before they are freed.
    retired: Vec<u32>,
    finished: Vec<(OneshotSender<()>, Option<SpanId>)>,
}

/// A set of class indices popped in ascending order: a bitset and a
/// forward cursor. Inserting while popping is only valid above the index
/// popped last, which is all progressive filling needs.
#[derive(Default)]
struct ClassSet {
    words: Vec<u64>,
    /// Words below `cursor` and from `end` on are all zero.
    cursor: usize,
    end: usize,
}

impl ClassSet {
    /// Makes room for classes `0..n`; the set must be empty.
    fn reserve(&mut self, n: usize) {
        self.words.resize(n.div_ceil(64), 0);
    }

    fn insert(&mut self, ci: u32) {
        let w = ci as usize / 64;
        self.words[w] |= 1 << (ci % 64);
        self.cursor = self.cursor.min(w);
        self.end = self.end.max(w + 1);
    }

    fn pop_min(&mut self) -> Option<u32> {
        while self.cursor < self.end {
            let bits = self.words[self.cursor];
            if bits != 0 {
                self.words[self.cursor] = bits & (bits - 1);
                return Some((self.cursor * 64) as u32 + bits.trailing_zeros());
            }
            self.cursor += 1;
        }
        self.cursor = usize::MAX;
        self.end = 0;
        None
    }
}

struct Inner {
    links: Vec<f64>, // capacity in bytes/s
    /// Per link, what the interned routes through it share.
    cover: Vec<Cover>,
    /// Live flows crossing each link.
    link_members: Vec<u32>,
    /// Active classes crossing each link.
    link_classes: Vec<Vec<u32>>,
    /// Links with live flows, and each link's position in that list.
    live_links: Vec<u32>,
    live_pos: Vec<u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    active: usize,
    /// Flows that arrived since the last drain, as `(slot, bytes)`. The
    /// next drain files them after advancing their classes.
    joins: Vec<(u32, f64)>,
    /// Interned routes: shared slices for callers, and for the solver
    /// one flat array of the routes without their dominated links (spans
    /// per route). The per-link member counts, adjacency and live list
    /// count only the links the solver keeps.
    routes: Vec<Rc<[LinkId]>>,
    route_index: HashMap<Rc<[LinkId]>, RouteId>,
    solver_links: Vec<LinkId>,
    solver_spans: Vec<(u32, u32)>,
    classes: Vec<Class>,
    /// Per class, its virtual-time queue.
    queues: Vec<Queue>,
    class_index: HashMap<ClassKey, u32>,
    /// Classes with live flows, in no particular order.
    active_classes: Vec<u32>,
    /// Live flows per dense cap-group id.
    group_ids: HashMap<u64, u32>,
    group_counts: Vec<u32>,
    last_update: SimTime,
    /// Cumulative bytes delivered, for debugging/accounting.
    delivered: f64,
    /// Membership changed since the last recompute.
    dirty: bool,
    /// A settle event for the current instant is already queued.
    settle_queued: bool,
    /// Pending next-completion wakeup.
    timer: Option<TimerHandle>,
    stats: SolverStats,
    scratch: Scratch,
    #[cfg(test)]
    naive: bool,
}

/// Panics unless `cap_gib` is a usable link capacity.
fn check_capacity(cap_gib: f64) {
    assert!(
        cap_gib.is_finite() && cap_gib > 0.0,
        "link capacity must be finite and positive, got {cap_gib}"
    );
}

/// The flow network. Cheap to clone; all clones share one state.
///
/// ```
/// use daosim_kernel::Sim;
/// use daosim_net::{FlowCap, FlowNet};
///
/// let sim = Sim::new();
/// let net = FlowNet::new(&sim);
/// let link = net.add_link(2.0); // 2 GiB/s
/// let n = net.clone();
/// let end = sim.block_on(async move {
///     // 2 GiB over a 2 GiB/s link: one second.
///     n.transfer(&[link], 2 << 30, FlowCap::unlimited()).await;
/// });
/// assert!((end.as_secs_f64() - 1.0).abs() < 1e-6);
/// ```
#[derive(Clone)]
pub struct FlowNet {
    sim: Sim,
    inner: Rc<RefCell<Inner>>,
}

impl FlowNet {
    pub fn new(sim: &Sim) -> Self {
        Self::build(sim, false)
    }

    /// A network driven by the reference per-flow solver, for equivalence
    /// tests.
    #[cfg(test)]
    pub fn new_naive(sim: &Sim) -> Self {
        Self::build(sim, true)
    }

    fn build(sim: &Sim, naive: bool) -> Self {
        #[cfg(not(test))]
        let _ = naive;
        FlowNet {
            sim: sim.clone(),
            inner: Rc::new(RefCell::new(Inner {
                links: Vec::new(),
                cover: Vec::new(),
                link_members: Vec::new(),
                link_classes: Vec::new(),
                live_links: Vec::new(),
                live_pos: Vec::new(),
                slots: Vec::new(),
                free: Vec::new(),
                active: 0,
                joins: Vec::new(),
                routes: Vec::new(),
                route_index: HashMap::new(),
                solver_links: Vec::new(),
                solver_spans: Vec::new(),
                classes: Vec::new(),
                queues: Vec::new(),
                class_index: HashMap::new(),
                active_classes: Vec::new(),
                group_ids: HashMap::new(),
                group_counts: Vec::new(),
                last_update: SimTime::ZERO,
                delivered: 0.0,
                dirty: false,
                settle_queued: false,
                timer: None,
                stats: SolverStats::default(),
                scratch: Scratch::default(),
                #[cfg(test)]
                naive,
            })),
        }
    }

    /// Adds a link with the given capacity (GiB/s) and returns its id.
    /// Links can be added at any time; capacities can later be rescaled
    /// with [`FlowNet::set_link_capacity`] (e.g. for fault injection).
    pub fn add_link(&self, cap_gib: f64) -> LinkId {
        check_capacity(cap_gib);
        let mut inner = self.inner.borrow_mut();
        let id = LinkId(inner.links.len() as u32);
        inner.links.push(cap_gib * GIB);
        inner.cover.push(Cover::default());
        inner.link_members.push(0);
        inner.link_classes.push(Vec::new());
        inner.live_pos.push(0);
        id
    }

    /// Rescales an existing link's capacity to `cap_gib` (GiB/s) at the
    /// current simulated instant. In-flight flows keep the bytes already
    /// drained at the old rate; fair shares are recomputed from here on.
    /// Used by fault campaigns to model NIC/link degradation and recovery.
    pub fn set_link_capacity(&self, link: LinkId, cap_gib: f64) {
        check_capacity(cap_gib);
        let now = self.sim.now();
        let queue_settle;
        {
            let mut inner = self.inner.borrow_mut();
            let slot = link.0 as usize;
            assert!(slot < inner.links.len(), "unknown link {link:?}");
            inner.advance_to(now);
            inner.links[slot] = cap_gib * GIB;
            inner.recheck_dominated();
            inner.dirty = true;
            queue_settle = !inner.settle_queued;
            inner.settle_queued = true;
        }
        if queue_settle {
            let this = self.clone();
            self.sim.schedule_at(now, move || this.settle());
        }
    }

    /// Current capacity of `link` in GiB/s.
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.inner.borrow().links[link.0 as usize] / GIB
    }

    pub fn link_count(&self) -> usize {
        self.inner.borrow().links.len()
    }

    pub fn active_flows(&self) -> usize {
        self.inner.borrow().active
    }

    /// Total bytes delivered by completed and in-progress flows.
    pub fn bytes_delivered(&self) -> f64 {
        let mut inner = self.inner.borrow_mut();
        let now = self.sim.now();
        inner.advance_to(now);
        inner.delivered
    }

    /// Settle-path counters (see [`SolverStats`]).
    pub fn solver_stats(&self) -> SolverStats {
        self.inner.borrow().stats
    }

    /// Interns `route`, validating every link, and returns its id. Call
    /// sites that reuse a route should intern once and use
    /// [`FlowNet::transfer_interned`].
    pub fn intern_route(&self, route: &[LinkId]) -> RouteId {
        self.inner.borrow_mut().intern_route(route)
    }

    /// The link sequence behind an interned route.
    pub fn route_links(&self, route: RouteId) -> Rc<[LinkId]> {
        Rc::clone(&self.inner.borrow().routes[route.0 as usize])
    }

    /// Starts a transfer of `bytes` over `route` and returns a future that
    /// resolves when the last byte has drained. A zero-byte transfer (or an
    /// empty route, i.e. a node-local copy) completes immediately.
    pub fn transfer(&self, route: &[LinkId], bytes: u64, cap: FlowCap) -> OneshotReceiver<()> {
        if route.is_empty() {
            let (tx, rx) = oneshot();
            tx.send(());
            return rx;
        }
        let route = self.intern_route(route);
        self.transfer_interned(route, bytes, cap)
    }

    /// [`FlowNet::transfer`] over a pre-interned route: the hot path for
    /// repeated transfers between the same endpoints.
    pub fn transfer_interned(
        &self,
        route: RouteId,
        bytes: u64,
        cap: FlowCap,
    ) -> OneshotReceiver<()> {
        let (tx, rx) = oneshot();
        let now = self.sim.now();
        let queue_settle;
        {
            let mut inner = self.inner.borrow_mut();
            let empty = inner
                .routes
                .get(route.0 as usize)
                .unwrap_or_else(|| panic!("unknown route {route:?}"))
                .is_empty();
            if bytes == 0 || empty {
                drop(inner);
                tx.send(());
                return rx;
            }
            let class = inner.class_for(route, cap);
            inner.join(class);
            // Leaf span: the admit side runs in the issuing task (so the
            // span parents under its open op span), but the end fires in
            // a settle event once the last byte drains.
            let span = if self.sim.trace_enabled() {
                self.sim
                    .obs()
                    .span_begin_leaf("net", &format!("xfer {bytes} B"))
            } else {
                None
            };
            // No drain here. The next drain (at the latest, the settle
            // queued below) ends at this instant and files the new flow.
            let id = inner.insert_flow(Flow {
                class,
                done: Some(tx),
                span,
            });
            inner.joins.push((id.slot(), bytes as f64));
            queue_settle = !inner.settle_queued;
            inner.settle_queued = true;
        }
        if queue_settle {
            // Coalesce: every same-instant arrival after the first rides
            // this one event, so a batch triggers a single recompute.
            let this = self.clone();
            self.sim.schedule_at(now, move || this.settle());
        }
        rx
    }

    /// Brings remaining byte counts up to date, completes drained flows,
    /// recomputes fair rates if membership changed and (re)schedules the
    /// next completion wakeup. Idempotent and cheap when nothing changed.
    fn settle(&self) {
        let now = self.sim.now();
        let (mut finished, retime) = {
            let mut inner = self.inner.borrow_mut();
            inner.settle_queued = false;
            inner.stats.settles += 1;
            let mut finished = std::mem::take(&mut inner.scratch.finished);
            inner.advance_and_drain(now, &mut finished);
            if inner.dirty && inner.active > 0 {
                inner.recompute();
                inner.stats.recomputes += 1;
            }
            inner.dirty = false;
            #[cfg(test)]
            inner.check_bookkeeping();
            let next_at = inner.next_completion(now);
            let keep =
                matches!(&inner.timer, Some(t) if t.is_armed() && Some(t.deadline()) == next_at);
            let retime = if keep {
                None
            } else {
                if let Some(t) = inner.timer.take() {
                    t.cancel();
                }
                next_at
            };
            (finished, retime)
        };
        if let Some(at) = retime {
            let this = self.clone();
            let handle = self.sim.schedule_cancellable_at(at, move || this.settle());
            self.inner.borrow_mut().timer = Some(handle);
        }
        // Fire completions outside the borrow: the woken tasks may start
        // new transfers re-entering this FlowNet. Spans close before the
        // send so the flow's End precedes anything the woken task logs.
        for (tx, span) in finished.drain(..) {
            if let Some(s) = span {
                self.sim.obs().span_end(s);
            }
            tx.send(());
        }
        self.inner.borrow_mut().scratch.finished = finished;
    }

    /// Runs any settle pending for the current instant so observers see
    /// rates that reflect every transfer issued so far this tick.
    fn ensure_settled(&self) {
        let stale = {
            let inner = self.inner.borrow();
            inner.settle_queued || inner.dirty
        };
        if stale {
            self.settle();
        }
    }

    /// Current rate of every active flow in GiB/s (diagnostics/tests).
    /// Routes are shared slices into the intern table — no cloning.
    pub fn snapshot_rates(&self) -> Vec<(Rc<[LinkId]>, f64)> {
        self.ensure_settled();
        let inner = self.inner.borrow();
        inner
            .slots
            .iter()
            .filter_map(|s| s.flow.as_ref())
            .map(|f| {
                let c = &inner.classes[f.class as usize];
                (Rc::clone(&inner.routes[c.route.0 as usize]), c.rate / GIB)
            })
            .collect()
    }
}

impl Inner {
    fn intern_route(&mut self, route: &[LinkId]) -> RouteId {
        if let Some(&id) = self.route_index.get(route) {
            return id;
        }
        for l in route {
            assert!(
                (l.0 as usize) < self.links.len(),
                "route references unknown link {l:?}"
            );
        }
        // The new route narrows what the routes through its links share,
        // so a link on an older route can only stop being dominated.
        let mut flipped = false;
        for (i, l) in route.iter().enumerate() {
            if route[..i].contains(l) {
                continue;
            }
            let li = l.0 as usize;
            let cover = &mut self.cover[li];
            cover.repeated |= route[i + 1..].contains(l);
            match &mut cover.shared {
                Some(shared) => shared.retain(|&b| route.contains(&LinkId(b))),
                None => cover.shared = Some(route.iter().map(|l| l.0).collect()),
            }
            let dominated = cover.is_dominated(&self.links, li);
            flipped |= cover.dominated && !dominated;
            cover.dominated = dominated;
        }
        let shared: Rc<[LinkId]> = Rc::from(route);
        let id = RouteId(self.routes.len() as u32);
        self.routes.push(Rc::clone(&shared));
        self.route_index.insert(shared, id);
        if flipped {
            self.reprune();
        } else {
            push_pruned(
                &self.cover,
                route,
                &mut self.solver_links,
                &mut self.solver_spans,
            );
        }
        id
    }

    /// Re-derives every link's dominated flag after a capacity change,
    /// which can flip it either way, and re-prunes if any flipped.
    fn recheck_dominated(&mut self) {
        let mut flipped = false;
        for (l, cover) in self.cover.iter_mut().enumerate() {
            let dominated = cover.is_dominated(&self.links, l);
            flipped |= cover.dominated != dominated;
            cover.dominated = dominated;
        }
        if flipped {
            self.reprune();
        }
    }

    /// Rebuilds the solver's routes from the dominated flags, then the
    /// per-link member counts, adjacency and live list from the active
    /// classes (flows that joined but are not filed yet included).
    fn reprune(&mut self) {
        self.solver_links.clear();
        self.solver_spans.clear();
        for route in &self.routes {
            push_pruned(
                &self.cover,
                route,
                &mut self.solver_links,
                &mut self.solver_spans,
            );
        }
        for c in &mut self.classes {
            c.links = self.solver_spans[c.route.0 as usize];
        }
        self.link_members.fill(0);
        for adj in &mut self.link_classes {
            adj.clear();
        }
        self.live_links.clear();
        for i in 0..self.active_classes.len() {
            let ci = self.active_classes[i];
            let c = &self.classes[ci as usize];
            for l in &self.solver_links[c.links.0 as usize..c.links.1 as usize] {
                self.link_members[l.0 as usize] += c.active;
            }
            self.adjoin(ci);
        }
    }

    fn class_for(&mut self, route: RouteId, cap: FlowCap) -> u32 {
        let key = ClassKey::new(route, cap);
        if let Some(&c) = self.class_index.get(&key) {
            return c;
        }
        let group = cap.group.map(|g| {
            let next = self.group_ids.len() as u32;
            *self.group_ids.entry(g).or_insert(next)
        });
        if let Some(g) = group {
            if g as usize == self.group_counts.len() {
                self.group_counts.push(0);
            }
        }
        let id = self.classes.len() as u32;
        self.classes.push(Class {
            route,
            links: self.solver_spans[route.0 as usize],
            cap,
            group,
            active: 0,
            active_pos: 0,
            rate: 0.0,
            eff_cap: cap.base_gib * GIB,
            cap_count: 0,
            min_remaining: f64::INFINITY,
        });
        self.queues.push(Queue::default());
        self.class_index.insert(key, id);
        id
    }

    /// Books one arriving flow of `class` into the per-link, per-group and
    /// active-class state.
    fn join(&mut self, class: u32) {
        let (s, e) = self.classes[class as usize].links;
        for i in s..e {
            self.link_members[self.solver_links[i as usize].0 as usize] += 1;
        }
        let c = &mut self.classes[class as usize];
        if let Some(g) = c.group {
            self.group_counts[g as usize] += 1;
        }
        c.active += 1;
        if c.active > 1 {
            return;
        }
        c.active_pos = self.active_classes.len() as u32;
        self.active_classes.push(class);
        self.adjoin(class);
    }

    /// Adds a newly active `class` to its links' adjacency, making live
    /// the links it is the first class on.
    fn adjoin(&mut self, class: u32) {
        let (s, e) = self.classes[class as usize].links;
        for i in s..e {
            let l = self.solver_links[i as usize].0;
            let adj = &mut self.link_classes[l as usize];
            if adj.is_empty() {
                self.live_pos[l as usize] = self.live_links.len() as u32;
                self.live_links.push(l);
            }
            adj.push(class);
        }
    }

    /// Reverses [`Inner::join`] for one departing flow of `class`.
    fn leave(&mut self, class: u32) {
        let (s, e) = self.classes[class as usize].links;
        for i in s..e {
            self.link_members[self.solver_links[i as usize].0 as usize] -= 1;
        }
        let c = &mut self.classes[class as usize];
        if let Some(g) = c.group {
            self.group_counts[g as usize] -= 1;
        }
        c.active -= 1;
        if c.active > 0 {
            return;
        }
        // No member is left to measure against, so virtual time restarts
        // (keeping `served` no larger than the bytes of one busy period).
        self.queues[class as usize].served = 0.0;
        let pos = c.active_pos as usize;
        self.active_classes.swap_remove(pos);
        if let Some(&moved) = self.active_classes.get(pos) {
            self.classes[moved as usize].active_pos = pos as u32;
        }
        for i in s..e {
            let l = self.solver_links[i as usize].0 as usize;
            let adj = &mut self.link_classes[l];
            let at = adj
                .iter()
                .position(|&c| c == class)
                .expect("active class missing from link adjacency");
            adj.swap_remove(at);
            if adj.is_empty() {
                let pos = self.live_pos[l] as usize;
                self.live_links.swap_remove(pos);
                if let Some(&moved) = self.live_links.get(pos) {
                    self.live_pos[moved as usize] = pos as u32;
                }
            }
        }
    }

    fn insert_flow(&mut self, flow: Flow) -> FlowId {
        self.active += 1;
        self.dirty = true;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.flow.is_none(), "free list pointed at a live slot");
            s.flow = Some(flow);
            FlowId::new(slot, s.generation)
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                generation: 0,
                flow: Some(flow),
            });
            FlowId::new(slot, 0)
        }
    }

    /// Advances every active class's virtual time to `now`, adding
    /// `rate · dt` to its `served` and the bytes its filed members took to
    /// `delivered`. Then files the flows that joined since the last drain
    /// at the advanced `served`: an arrival ends the interval just
    /// drained, so the new flow owes nothing for it.
    fn advance_to(&mut self, now: SimTime) {
        let dt = now
            .saturating_duration_since(self.last_update)
            .as_secs_f64();
        self.last_update = now;
        if dt != 0.0 {
            for &ci in &self.active_classes {
                let q = &mut self.queues[ci as usize];
                let d = self.classes[ci as usize].rate * dt;
                q.served += d;
                self.delivered += d * q.filed.len() as f64;
            }
        }
        for (slot, bytes) in self.joins.drain(..) {
            let f = self.slots[slot as usize]
                .flow
                .as_ref()
                .expect("joined flow left before it was filed");
            let q = &mut self.queues[f.class as usize];
            q.filed.push(Reverse(((q.served + bytes).to_bits(), slot)));
        }
    }

    /// [`Inner::advance_to`], then retires every flow with at most
    /// [`DRAIN_EPS`] bytes left: a class's drained flows are the top of
    /// its heap. They retire in ascending slot order, so same-instant
    /// completions fire deterministically, and `delivered` gives back
    /// what each overshot its bytes by.
    fn advance_and_drain(
        &mut self,
        now: SimTime,
        finished: &mut Vec<(OneshotSender<()>, Option<SpanId>)>,
    ) {
        self.advance_to(now);
        self.stats.drain_visits += self.active_classes.len() as u64;
        let mut retired = std::mem::take(&mut self.scratch.retired);
        for &ci in &self.active_classes {
            let q = &mut self.queues[ci as usize];
            self.classes[ci as usize].min_remaining = loop {
                let Some(&Reverse((tag, slot))) = q.filed.peek() else {
                    break f64::INFINITY;
                };
                let left = f64::from_bits(tag) - q.served;
                if left > DRAIN_EPS {
                    break left;
                }
                q.filed.pop();
                self.delivered += left.min(0.0);
                retired.push(slot);
            };
        }
        retired.sort_unstable();
        for &idx in &retired {
            let slot = &mut self.slots[idx as usize];
            let f = slot.flow.take().expect("retired an empty slot");
            slot.generation = slot.generation.wrapping_add(1);
            self.free.push(idx);
            self.active -= 1;
            self.dirty = true;
            self.leave(f.class);
            finished.extend(f.done.map(|tx| (tx, f.span)));
        }
        retired.clear();
        self.scratch.retired = retired;
    }

    /// Earliest completion instant across active flows, if any. Per class
    /// this is `min_remaining / rate`: division by a positive rate is
    /// monotone, so it equals the least per-flow quotient exactly.
    fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let mut best: Option<f64> = None;
        for &c in &self.active_classes {
            let c = &self.classes[c as usize];
            debug_assert!(c.rate > 0.0, "flow starved by zero rate");
            let t = c.min_remaining.max(0.0) / c.rate;
            best = Some(best.map_or(t, |b| b.min(t)));
        }
        best.map(|secs| now + SimDuration::from_secs_f64(secs))
    }

    fn recompute(&mut self) {
        #[cfg(test)]
        if self.naive {
            for (slot, rate) in self.naive_rates() {
                let class = self.slots[slot as usize]
                    .flow
                    .as_ref()
                    .expect("naive rate for empty slot")
                    .class;
                self.classes[class as usize].rate = rate;
            }
            return;
        }
        self.fill();
    }

    /// Progressive-filling max-min fairness over the active
    /// route-equivalence classes.
    ///
    /// Each round takes the level — the least fair share over live links
    /// or cap over unfrozen classes — and freezes every class bound at it
    /// (its cap is within tolerance of the level, or its route crosses a
    /// link whose share is), subtracting its members' rates from the link
    /// residuals. Only candidates are visited: classes with a binding
    /// cap, and classes on links tight at the level, taken in ascending
    /// class index and re-checked against the current residuals. When a
    /// freeze leaves another link tight, that link's higher-index classes
    /// join the candidates, so the freeze set and subtraction order equal
    /// those of an ascending scan over every unfrozen class.
    ///
    /// Caps do not change within a fill, so the unfrozen caps are only
    /// rescanned in a round whose tolerance reaches `floor`, the least cap
    /// at the last rescan; below it no cap can bind. A link leaves `live`
    /// as soon as its last class freezes. The level scan keeps, in `near`,
    /// each link whose share is at most the running minimum times
    /// `1 + 1e-9`. The final `level` is at most every running minimum and
    /// rounding is monotone, so every link with share ≤ `tol` is in `near`.
    fn fill(&mut self) {
        let Inner {
            links,
            link_members,
            link_classes,
            live_links,
            solver_links,
            classes,
            active_classes,
            group_counts,
            stats,
            scratch,
            ..
        } = self;
        let Scratch {
            residual,
            count,
            share,
            tight,
            live,
            live_pos,
            frozen,
            pending,
            near,
            ..
        } = scratch;
        // Only live links are read: every route of an active class is.
        let nl = links.len();
        residual.resize(nl, 0.0);
        count.resize(nl, 0);
        share.resize(nl, 0.0);
        tight.resize(nl, 0);
        live_pos.resize(nl, 0);
        live.clear();
        live.extend_from_slice(live_links);
        for (pos, &l) in live.iter().enumerate() {
            let l = l as usize;
            residual[l] = links[l];
            count[l] = link_members[l];
            share[l] = residual[l] / count[l] as f64;
            live_pos[l] = pos as u32;
        }
        frozen.resize(classes.len(), false);
        pending.reserve(classes.len());
        let mut floor = f64::INFINITY;
        for &ci in active_classes.iter() {
            frozen[ci as usize] = false;
            floor = floor.min(classes[ci as usize].refresh_cap(group_counts));
        }
        let mut left = active_classes.len();
        stats.class_freezes += left as u64;

        while left > 0 {
            // The round count stamps the links found tight this round.
            stats.fill_rounds += 1;
            let stamp = stats.fill_rounds;
            // Tightest link share, keeping every link within tolerance of
            // the least share so far: the round's tight links are among
            // them. Then the tightest class cap, if one can bind.
            let mut level = f64::INFINITY;
            near.clear();
            for &l in live.iter() {
                level = level.min(share[l as usize]);
                if share[l as usize] <= level * (1.0 + 1e-9) {
                    near.push(l);
                }
            }
            stats.link_visits += (live.len() + near.len()) as u64;
            let rescan = level * (1.0 + 1e-9) >= floor;
            if rescan {
                stats.cap_rescans += 1;
                floor = f64::INFINITY;
                for &ci in active_classes.iter() {
                    if !frozen[ci as usize] {
                        floor = floor.min(classes[ci as usize].eff_cap);
                    }
                }
                level = level.min(floor);
            }
            assert!(
                level.is_finite() && level > 0.0,
                "progressive filling found no finite positive level"
            );
            let tol = level * (1.0 + 1e-9);
            if rescan {
                for &ci in active_classes.iter() {
                    if !frozen[ci as usize] && classes[ci as usize].eff_cap <= tol {
                        pending.insert(ci);
                    }
                }
            }
            for &l in near.iter() {
                if share[l as usize] <= tol {
                    tight[l as usize] = stamp;
                    for &ci in &link_classes[l as usize] {
                        if !frozen[ci as usize] {
                            pending.insert(ci);
                        }
                    }
                }
            }
            let mut froze_any = false;
            while let Some(ci) = pending.pop_min() {
                let c = &mut classes[ci as usize];
                let route = &solver_links[c.links.0 as usize..c.links.1 as usize];
                let capped = c.eff_cap <= tol;
                let link_bound = route.iter().any(|l| share[l.0 as usize] <= tol);
                if !(capped || link_bound) {
                    continue;
                }
                let rate = if capped { c.eff_cap } else { level };
                let members = c.active;
                stats.route_visits += route.len() as u64;
                for l in route {
                    let li = l.0 as usize;
                    residual[li] = (residual[li] - rate * members as f64).max(0.0);
                    count[li] -= members;
                    if count[li] > 0 {
                        share[li] = residual[li] / count[li] as f64;
                        continue;
                    }
                    share[li] = f64::INFINITY;
                    let pos = live_pos[li] as usize;
                    live.swap_remove(pos);
                    if let Some(&moved) = live.get(pos) {
                        live_pos[moved as usize] = pos as u32;
                    }
                }
                c.rate = rate;
                frozen[ci as usize] = true;
                froze_any = true;
                left -= 1;
                // A link this freeze left tight binds its later classes.
                for l in route {
                    let li = l.0 as usize;
                    if tight[li] == stamp || share[li] > tol {
                        continue;
                    }
                    tight[li] = stamp;
                    for &cj in &link_classes[li] {
                        if cj > ci && !frozen[cj as usize] {
                            pending.insert(cj);
                        }
                    }
                }
            }
            assert!(froze_any, "progressive filling made no progress");
        }
    }

    /// The pre-incremental reference solver: per-flow progressive filling,
    /// allocating its working sets per call. Returns `(slot, rate)` pairs.
    /// Kept as the oracle the incremental solver is property-tested
    /// against.
    #[cfg(test)]
    fn naive_rates(&self) -> Vec<(u32, f64)> {
        let nl = self.links.len();
        let mut residual = self.links.clone();
        let mut link_count = vec![0u32; nl];
        let mut eff_cap: HashMap<u32, f64> = HashMap::new();
        let mut unfrozen: Vec<u32> = Vec::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            let Some(f) = &slot.flow else { continue };
            let c = &self.classes[f.class as usize];
            let mut cap = c.cap.base_gib * GIB;
            if let (Some(g), true) = (c.group, c.cap.alpha > 0.0) {
                let n = self.group_counts[g as usize] as f64;
                cap *= n.powf(-c.cap.alpha);
            }
            eff_cap.insert(idx as u32, cap);
            for l in self.routes[c.route.0 as usize].iter() {
                link_count[l.0 as usize] += 1;
            }
            unfrozen.push(idx as u32);
        }
        let mut rates: Vec<(u32, f64)> = Vec::with_capacity(unfrozen.len());
        while !unfrozen.is_empty() {
            let mut level = f64::INFINITY;
            for l in 0..nl {
                if link_count[l] > 0 {
                    level = level.min(residual[l] / link_count[l] as f64);
                }
            }
            for idx in &unfrozen {
                level = level.min(eff_cap[idx]);
            }
            assert!(
                level.is_finite() && level > 0.0,
                "naive progressive filling found no finite positive level"
            );
            let tol = level * (1.0 + 1e-9);
            let mut still = Vec::with_capacity(unfrozen.len());
            let mut froze_any = false;
            for idx in unfrozen {
                let f = self.slots[idx as usize].flow.as_ref().expect("live slot");
                let route = &self.routes[self.classes[f.class as usize].route.0 as usize];
                let capped = eff_cap[&idx] <= tol;
                let link_bound = route
                    .iter()
                    .any(|l| residual[l.0 as usize] / link_count[l.0 as usize] as f64 <= tol);
                if capped || link_bound {
                    let rate = if capped { eff_cap[&idx] } else { level };
                    for l in route.iter() {
                        let li = l.0 as usize;
                        residual[li] = (residual[li] - rate).max(0.0);
                        link_count[li] -= 1;
                    }
                    rates.push((idx, rate));
                    froze_any = true;
                } else {
                    still.push(idx);
                }
            }
            assert!(froze_any, "naive progressive filling made no progress");
            unfrozen = still;
        }
        rates
    }

    #[cfg(test)]
    fn route_of(&self, class: u32) -> &[LinkId] {
        let (s, e) = self.classes[class as usize].links;
        &self.solver_links[s as usize..e as usize]
    }

    /// Recomputes the incremental bookkeeping from the live flows and
    /// asserts it matches: per-link member counts, the active-class list
    /// and positions, per-class and per-group counts, the link → class
    /// adjacency and the live-link list. Each class's heap holds exactly
    /// its filed members, and the heaps plus the pending joins hold every
    /// live flow. Every link's dominated flag is re-derived from all
    /// interned routes, and the solver's routes and class spans must be
    /// the routes without their dominated links.
    #[cfg(test)]
    fn check_bookkeeping(&self) {
        let nl = self.links.len();
        let mut shared: Vec<Option<Vec<u32>>> = vec![None; nl];
        let mut repeated = vec![false; nl];
        for route in &self.routes {
            for (i, l) in route.iter().enumerate() {
                let li = l.0 as usize;
                repeated[li] |= route[i + 1..].contains(l);
                let mut on_all = shared[li]
                    .take()
                    .unwrap_or_else(|| route.iter().map(|l| l.0).collect());
                on_all.retain(|&b| route.contains(&LinkId(b)));
                shared[li] = Some(on_all);
            }
        }
        for l in 0..nl {
            let cap = self.links[l];
            let below = |b: usize| self.links[b] < cap || (self.links[b] == cap && b < l);
            let dominated = !repeated[l] && shared[l].iter().flatten().any(|&b| below(b as usize));
            assert_eq!(
                self.cover[l].dominated, dominated,
                "link {l} dominated flag"
            );
        }
        assert_eq!(self.solver_spans.len(), self.routes.len());
        for (r, route) in self.routes.iter().enumerate() {
            let (s, e) = self.solver_spans[r];
            let kept: Vec<LinkId> = (route.iter().copied())
                .filter(|l| !self.cover[l.0 as usize].dominated)
                .collect();
            assert_eq!(
                &self.solver_links[s as usize..e as usize],
                &kept[..],
                "route {r} solver links"
            );
            assert_eq!(kept.is_empty(), route.is_empty(), "route {r} pruned empty");
        }
        for (ci, c) in self.classes.iter().enumerate() {
            assert_eq!(
                c.links, self.solver_spans[c.route.0 as usize],
                "class {ci} span"
            );
        }
        let mut members = vec![0u32; self.links.len()];
        let mut per_class = vec![0u32; self.classes.len()];
        let mut groups = vec![0u32; self.group_counts.len()];
        let mut filed = vec![Vec::new(); self.classes.len()];
        let joined: Vec<u32> = self.joins.iter().map(|&(slot, _)| slot).collect();
        for (idx, slot) in self.slots.iter().enumerate() {
            let Some(f) = &slot.flow else { continue };
            if !joined.contains(&(idx as u32)) {
                filed[f.class as usize].push(idx as u32);
            }
            per_class[f.class as usize] += 1;
            for l in self.route_of(f.class) {
                members[l.0 as usize] += 1;
            }
            if let Some(g) = self.classes[f.class as usize].group {
                groups[g as usize] += 1;
            }
        }
        assert_eq!(members, self.link_members, "per-link member counts");
        assert_eq!(groups, self.group_counts, "group counts");
        let mut adjacency = vec![Vec::new(); self.links.len()];
        for (ci, c) in self.classes.iter().enumerate() {
            assert_eq!(c.active, per_class[ci], "class {ci} member count");
            let queue = &self.queues[ci].filed;
            let mut heap: Vec<u32> = queue.iter().map(|&Reverse((_, slot))| slot).collect();
            heap.sort_unstable();
            assert_eq!(heap, filed[ci], "class {ci} filed members");
            let listed = self.active_classes.contains(&(ci as u32));
            assert_eq!(listed, c.active > 0, "class {ci} active-list membership");
            if c.active > 0 {
                assert_eq!(self.active_classes[c.active_pos as usize], ci as u32);
                for l in self.route_of(ci as u32) {
                    adjacency[l.0 as usize].push(ci as u32);
                }
            }
        }
        for (l, expect) in adjacency.iter_mut().enumerate() {
            let mut got = self.link_classes[l].clone();
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(&got, expect, "link {l} adjacency");
            let live = self.live_links.contains(&(l as u32));
            assert_eq!(live, self.link_members[l] > 0, "link {l} liveness");
            if live {
                assert_eq!(self.live_links[self.live_pos[l] as usize], l as u32);
            }
        }
        assert_eq!(self.active_classes.len(), {
            let mut v = self.active_classes.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        });
        assert_eq!(
            self.active,
            per_class.iter().map(|&n| n as usize).sum::<usize>()
        );
        let heaps: usize = self.queues.iter().map(|q| q.filed.len()).sum();
        assert_eq!(heaps + joined.len(), self.active, "filed plus joined flows");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    fn run_transfer(caps: &[f64], routes: Vec<(Vec<usize>, u64, FlowCap)>) -> Vec<u64> {
        // Returns completion time (ns) per flow, started simultaneously.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let links: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
        let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
        for (i, (route, bytes, cap)) in routes.into_iter().enumerate() {
            let route: Vec<LinkId> = route.into_iter().map(|r| links[r]).collect();
            let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
            sim.spawn(async move {
                net.transfer(&route, bytes, cap).await;
                done.borrow_mut().push((i, sim2.now().as_nanos()));
            });
        }
        sim.run().expect_quiescent();
        let mut v = done.borrow().clone();
        v.sort();
        v.into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn mid_flow_capacity_rescale_changes_drain_rate() {
        // 2 GiB over a 2 GiB/s link would finish at t=1s; degrading the
        // link to 1 GiB/s at t=0.5s leaves 1 GiB to drain at 1 GiB/s, so
        // the transfer completes at t=1.5s instead.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let link = net.add_link(2.0);
        let done: Rc<Cell<u64>> = Rc::default();
        {
            let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
            sim.spawn(async move {
                net.transfer(&[link], 2 * GIB as u64, FlowCap::unlimited())
                    .await;
                done.set(sim2.now().as_nanos());
            });
        }
        {
            let net = net.clone();
            sim.schedule_after(SimDuration::from_millis(500), move || {
                net.set_link_capacity(link, 1.0);
                assert!((net.link_capacity(link) - 1.0).abs() < 1e-12);
            });
        }
        sim.run().expect_quiescent();
        assert!(
            (done.get() as f64 / 1e9 - 1.5).abs() < 1e-6,
            "completed at {} ns, expected ~1.5e9",
            done.get()
        );
    }

    #[test]
    fn single_flow_takes_bytes_over_capacity() {
        // 1 GiB over a 1 GiB/s link = 1 second.
        let t = run_transfer(&[1.0], vec![(vec![0], GIB as u64, FlowCap::unlimited())]);
        assert!(
            (t[0] as f64 / 1e9 - 1.0).abs() < 1e-6,
            "1 GiB over 1 GiB/s should take ~1s, got {t:?}"
        );
    }

    #[test]
    fn per_flow_cap_binds_below_link() {
        // 10 GiB/s link, flow capped at 2 GiB/s: 1 GiB takes 0.5s... no, 1/2 s.
        let t = run_transfer(&[10.0], vec![(vec![0], GIB as u64, FlowCap::capped(2.0))]);
        assert!((t[0] as f64 / 1e9 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_link_evenly() {
        // Two equal flows on a 2 GiB/s link: each gets 1 GiB/s.
        let t = run_transfer(
            &[2.0],
            vec![
                (vec![0], GIB as u64, FlowCap::unlimited()),
                (vec![0], GIB as u64, FlowCap::unlimited()),
            ],
        );
        assert!((t[0] as f64 / 1e9 - 1.0).abs() < 1e-6);
        assert!((t[1] as f64 / 1e9 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_textbook_example() {
        // Link0 cap 10 shared by flows A and B; link1 cap 4 crossed only by
        // B. Max-min: B = 4, A = 6.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l0 = net.add_link(10.0);
        let l1 = net.add_link(4.0);
        let a_rate: Rc<Cell<f64>> = Rc::default();
        let (net2, ar) = (net.clone(), Rc::clone(&a_rate));
        sim.spawn(async move {
            let fa = net2.transfer(&[l0], (10.0 * GIB) as u64, FlowCap::unlimited());
            let fb = net2.transfer(&[l0, l1], (10.0 * GIB) as u64, FlowCap::unlimited());
            // Inspect rates right after both flows are active.
            let rates = net2.snapshot_rates();
            for (route, r) in rates {
                if route.len() == 1 {
                    ar.set(r);
                }
            }
            fa.await;
            fb.await;
        });
        sim.run().expect_quiescent();
        assert!((a_rate.get() - 6.0).abs() < 1e-6, "A got {}", a_rate.get());
    }

    #[test]
    fn arrival_slows_existing_flow() {
        // Flow 1 alone for 0.5 s at 2 GiB/s, then flow 2 arrives and they
        // share 1 GiB/s each. Flow 1 carries 2 GiB total:
        //   0.5s * 2 + t * 1 = 2 GiB -> t = 1s -> completes at 1.5s.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l = net.add_link(2.0);
        let t1: Rc<Cell<u64>> = Rc::default();
        let (n1, s1, t1c) = (net.clone(), sim.clone(), Rc::clone(&t1));
        sim.spawn(async move {
            n1.transfer(&[l], (2.0 * GIB) as u64, FlowCap::unlimited())
                .await;
            t1c.set(s1.now().as_nanos());
        });
        let (n2, s2) = (net.clone(), sim.clone());
        sim.spawn(async move {
            s2.sleep(SimDuration::from_millis(500)).await;
            n2.transfer(&[l], (4.0 * GIB) as u64, FlowCap::unlimited())
                .await;
        });
        sim.run().expect_quiescent();
        assert!(
            (t1.get() as f64 / 1e9 - 1.5).abs() < 1e-6,
            "flow1 finished at {}",
            t1.get()
        );
    }

    #[test]
    fn departure_speeds_up_survivor() {
        // Both start together on 2 GiB/s: 1 GiB/s each. Small flow (0.5 GiB)
        // leaves at 0.5s; big flow (2 GiB) then runs at 2 GiB/s:
        //   0.5 GiB done, 1.5 GiB left at 2 GiB/s -> +0.75s -> 1.25s total.
        let t = run_transfer(
            &[2.0],
            vec![
                (vec![0], (2.0 * GIB) as u64, FlowCap::unlimited()),
                (vec![0], (0.5 * GIB) as u64, FlowCap::unlimited()),
            ],
        );
        assert!((t[0] as f64 / 1e9 - 1.25).abs() < 1e-6, "{t:?}");
        assert!((t[1] as f64 / 1e9 - 0.5).abs() < 1e-6, "{t:?}");
    }

    #[test]
    fn group_alpha_scales_down_parallel_streams() {
        // Two grouped flows with alpha=1: each capped at base/2, so two
        // flows are no faster in aggregate than one.
        let cap = FlowCap {
            base_gib: 2.0,
            group: Some(7),
            alpha: 1.0,
        };
        let t = run_transfer(
            &[100.0],
            vec![(vec![0], GIB as u64, cap), (vec![0], GIB as u64, cap)],
        );
        // Each runs at 1 GiB/s -> 1 s.
        assert!((t[0] as f64 / 1e9 - 1.0).abs() < 1e-6, "{t:?}");
    }

    #[test]
    fn group_count_resets_after_drain() {
        // After the first grouped transfer finishes, a new one sees n=1.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l = net.add_link(100.0);
        let cap = FlowCap {
            base_gib: 2.0,
            group: Some(1),
            alpha: 1.0,
        };
        let times: Rc<RefCell<Vec<u64>>> = Rc::default();
        let (n, s, tc) = (net.clone(), sim.clone(), Rc::clone(&times));
        sim.spawn(async move {
            n.transfer(&[l], (2.0 * GIB) as u64, cap).await;
            tc.borrow_mut().push(s.now().as_nanos());
            n.transfer(&[l], (2.0 * GIB) as u64, cap).await;
            tc.borrow_mut().push(s.now().as_nanos());
        });
        sim.run().expect_quiescent();
        let t = times.borrow().clone();
        // Each runs alone at the full 2 GiB/s cap: 1 s each.
        assert!((t[0] as f64 / 1e9 - 1.0).abs() < 1e-6, "{t:?}");
        assert!(((t[1] - t[0]) as f64 / 1e9 - 1.0).abs() < 1e-6, "{t:?}");
    }

    #[test]
    fn same_instant_completions_fire_in_slot_order() {
        // Two classes whose flows all finish at t = 1 s: A's two 1 GiB
        // flows share a 2 GiB/s link, B's two 2 GiB flows a 4 GiB/s one.
        // Issued B, A, B, A, they hold slots 0–3 and interleave the
        // classes, so draining class by class would fire 0, 2, 1, 3 (or
        // 1, 3, 0, 2); completions fire in slot order instead.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let (a, b) = (net.add_link(2.0), net.add_link(4.0));
        let fired: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
        for (i, (link, gib)) in [(b, 2), (a, 1), (b, 2), (a, 1)].into_iter().enumerate() {
            let rx = net.transfer(&[link], gib * GIB as u64, FlowCap::unlimited());
            let (sim2, fired) = (sim.clone(), Rc::clone(&fired));
            sim.spawn(async move {
                rx.await;
                fired.borrow_mut().push((i, sim2.now().as_nanos()));
            });
        }
        sim.run().expect_quiescent();
        let at = 1_000_000_000;
        assert_eq!(*fired.borrow(), [(0, at), (1, at), (2, at), (3, at)]);
    }

    #[test]
    fn zero_bytes_completes_instantly() {
        let t = run_transfer(&[1.0], vec![(vec![0], 0, FlowCap::unlimited())]);
        assert_eq!(t, vec![0]);
    }

    #[test]
    fn empty_route_is_local_copy() {
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let end = sim.block_on({
            let net = net.clone();
            async move {
                net.transfer(&[], 1_000_000, FlowCap::unlimited()).await;
            }
        });
        assert_eq!(end.as_nanos(), 0);
    }

    #[test]
    fn bytes_delivered_accounts_everything() {
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l = net.add_link(1.0);
        for _ in 0..3 {
            let net = net.clone();
            sim.spawn(async move {
                net.transfer(&[l], 1_000_000, FlowCap::unlimited()).await;
            });
        }
        sim.run().expect_quiescent();
        assert!((net.bytes_delivered() - 3_000_000.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "link capacity must be finite and positive")]
    fn add_link_rejects_infinite_capacity() {
        let sim = Sim::new();
        FlowNet::new(&sim).add_link(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "link capacity must be finite and positive")]
    fn set_link_capacity_rejects_infinite_capacity() {
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l = net.add_link(1.0);
        net.set_link_capacity(l, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn bad_route_panics() {
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        drop(net.transfer(&[LinkId(5)], 10, FlowCap::unlimited()));
    }

    #[test]
    fn routes_intern_to_one_id() {
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let a = net.add_link(1.0);
        let b = net.add_link(1.0);
        let r1 = net.intern_route(&[a, b]);
        let r2 = net.intern_route(&[a, b]);
        let r3 = net.intern_route(&[b, a]);
        assert_eq!(r1, r2);
        assert_ne!(r1, r3);
        assert_eq!(&*net.route_links(r1), &[a, b]);
    }

    #[test]
    fn flow_ids_do_not_alias_across_slot_reuse() {
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l = net.add_link(10.0);
        let ids: Rc<RefCell<Vec<FlowId>>> = Rc::default();
        {
            let (net, ids) = (net.clone(), Rc::clone(&ids));
            sim.spawn(async move {
                // Sequential transfers reuse slot 0 with bumped generations.
                for _ in 0..3 {
                    let rx = net.transfer(&[l], 1 << 20, FlowCap::unlimited());
                    let generation = net.inner.borrow().slots[0].generation;
                    ids.borrow_mut().push(FlowId::new(0, generation));
                    rx.await;
                }
            });
        }
        sim.run().expect_quiescent();
        let ids = ids.borrow();
        assert_eq!(ids.len(), 3);
        assert!(ids[0] != ids[1] && ids[1] != ids[2], "{ids:?}");
        assert_eq!(ids[0].slot(), ids[1].slot());
        assert!(ids[1].generation() > ids[0].generation());
    }

    #[test]
    fn same_instant_batch_coalesces_settles() {
        // 64 flows started at one tick must trigger far fewer settles than
        // one per arrival: one for the batch plus one per completion wave.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l = net.add_link(64.0);
        for _ in 0..64 {
            let net = net.clone();
            sim.spawn(async move {
                net.transfer(&[l], GIB as u64, FlowCap::unlimited()).await;
            });
        }
        sim.run().expect_quiescent();
        let stats = net.solver_stats();
        assert!(
            stats.settles <= 4,
            "expected coalesced settles, got {stats:?}"
        );
        assert!(stats.recomputes <= stats.settles);
    }

    #[test]
    fn incremental_matches_naive_on_mixed_population() {
        // A fixed mixed scenario: shared links, caps, a group — completion
        // times must agree with the reference solver to float tolerance.
        let specs: Vec<(Vec<usize>, u64, FlowCap)> = vec![
            (vec![0], (2.0 * GIB) as u64, FlowCap::unlimited()),
            (vec![0, 1], GIB as u64, FlowCap::capped(1.5)),
            (vec![1], (3.0 * GIB) as u64, FlowCap::unlimited()),
            (
                vec![0, 2],
                GIB as u64,
                FlowCap {
                    base_gib: 2.0,
                    group: Some(9),
                    alpha: 0.5,
                },
            ),
            (
                vec![0, 2],
                GIB as u64,
                FlowCap {
                    base_gib: 2.0,
                    group: Some(9),
                    alpha: 0.5,
                },
            ),
        ];
        let run = |naive: bool| -> Vec<u64> {
            let sim = Sim::new();
            let net = if naive {
                FlowNet::new_naive(&sim)
            } else {
                FlowNet::new(&sim)
            };
            let links: Vec<LinkId> = [4.0, 3.0, 8.0].iter().map(|&c| net.add_link(c)).collect();
            let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
            for (i, (route, bytes, cap)) in specs.iter().enumerate() {
                let route: Vec<LinkId> = route.iter().map(|&r| links[r]).collect();
                let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
                let (bytes, cap) = (*bytes, *cap);
                sim.spawn(async move {
                    net.transfer(&route, bytes, cap).await;
                    done.borrow_mut().push((i, sim2.now().as_nanos()));
                });
            }
            sim.run().expect_quiescent();
            let mut v = done.borrow().clone();
            v.sort();
            v.into_iter().map(|(_, t)| t).collect()
        };
        let fast = run(false);
        let slow = run(true);
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            let (f, s) = (*f as f64 / 1e9, *s as f64 / 1e9);
            assert!(
                (f - s).abs() < 1e-6,
                "incremental {fast:?} vs naive {slow:?}"
            );
        }
    }

    #[test]
    fn same_instant_batch_times_match_forced_per_arrival_settling() {
        // Coalescing must be timing-neutral: a batch of same-instant
        // arrivals settled once has to finish exactly like the same batch
        // settled after every arrival (the pre-coalescing behaviour, forced
        // here via the snapshot path).
        let run = |force_per_arrival: bool| -> (Vec<u64>, SolverStats) {
            let sim = Sim::new();
            let net = FlowNet::new(&sim);
            let l = net.add_link(8.0);
            let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
            for i in 0..32 {
                let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
                sim.spawn(async move {
                    let bytes = ((i as u64 % 7) + 1) << 27;
                    let rx = net.transfer(&[l], bytes, FlowCap::unlimited());
                    if force_per_arrival {
                        drop(net.snapshot_rates());
                    }
                    rx.await;
                    done.borrow_mut().push((i, sim2.now().as_nanos()));
                });
            }
            sim.run().expect_quiescent();
            let mut v = done.borrow().clone();
            v.sort();
            (v.into_iter().map(|(_, t)| t).collect(), net.solver_stats())
        };
        let (coalesced, cs) = run(false);
        let (forced, fs) = run(true);
        assert_eq!(coalesced, forced, "coalescing changed completion times");
        assert!(
            cs.recomputes < fs.recomputes,
            "coalesced path should recompute less: {cs:?} vs {fs:?}"
        );
    }

    #[test]
    fn late_arrival_with_same_instant_observers_is_bit_stable() {
        // Three flows start at t=0; E finishes at ~20 µs, so the last
        // settle before 100 µs is E's. At 100 µs, C joins A's active class
        // and F revives E's class (which still holds E's old rate); in the
        // same instant an observer reads `bytes_delivered` and rescales a
        // link before the arrivals' settle runs. Neither newcomer may be
        // charged for the interval before it arrived.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l0 = net.add_link(4.0);
        let l1 = net.add_link(3.0);
        let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
        let observed: Rc<RefCell<Vec<u64>>> = Rc::default();
        let start = |i: usize, rx: OneshotReceiver<()>| {
            let (sim2, done) = (sim.clone(), Rc::clone(&done));
            sim.spawn(async move {
                rx.await;
                done.borrow_mut().push((i, sim2.now().as_nanos()));
            });
        };
        start(0, net.transfer(&[l0], GIB as u64, FlowCap::unlimited()));
        start(1, net.transfer(&[l0, l1], 3 << 28, FlowCap::capped(1.5)));
        start(2, net.transfer(&[l1], 1 << 15, FlowCap::unlimited()));
        {
            let (net, sim2, done, observed) = (
                net.clone(),
                sim.clone(),
                Rc::clone(&done),
                Rc::clone(&observed),
            );
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_micros(100)).await;
                let c = net.transfer(&[l0], 1 << 29, FlowCap::unlimited());
                let f = net.transfer(&[l1], 1 << 28, FlowCap::unlimited());
                observed.borrow_mut().push(net.bytes_delivered().to_bits());
                net.set_link_capacity(l1, 2.5);
                observed.borrow_mut().push(net.bytes_delivered().to_bits());
                for (i, rx) in [(3, c), (4, f)] {
                    let (sim3, done) = (sim2.clone(), Rc::clone(&done));
                    sim2.spawn(async move {
                        rx.await;
                        done.borrow_mut().push((i, sim3.now().as_nanos()));
                    });
                }
            });
        }
        sim.run().expect_quiescent();
        observed.borrow_mut().push(net.bytes_delivered().to_bits());
        let mut done = done.borrow().clone();
        done.sort();
        let times: Vec<u64> = done.into_iter().map(|(_, t)| t).collect();
        // Recorded with the solver that drained every flow at each arrival.
        assert_eq!(
            times,
            [562_500_001, 552_083_334, 20_346, 368_850_000, 200_100_000],
            "completion instants"
        );
        assert_eq!(
            *observed.borrow(),
            [
                0x411c_36e2_eb1c_432c,
                0x411c_36e2_eb1c_432c,
                0x41e4_0010_0000_0000
            ],
            "bytes_delivered bits"
        );
    }

    pub(super) fn dominated(net: &FlowNet, l: LinkId) -> bool {
        net.inner.borrow().cover[l.0 as usize].dominated
    }

    /// The links of `route` the solver keeps.
    pub(super) fn solver_route(net: &FlowNet, route: RouteId) -> Vec<LinkId> {
        let inner = net.inner.borrow();
        let (s, e) = inner.solver_spans[route.0 as usize];
        inner.solver_links[s as usize..e as usize].to_vec()
    }

    fn rates(net: &FlowNet) -> Vec<f64> {
        net.snapshot_rates().into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn equal_capacity_twins_keep_the_lower_index() {
        // a and b have one capacity and lie on the same routes, so each
        // would drop the other; only the higher index goes. c lies only
        // beside the slower a.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let (a, b, c) = (net.add_link(3.0), net.add_link(3.0), net.add_link(5.0));
        let r1 = net.intern_route(&[b, a]);
        let r2 = net.intern_route(&[c, a, b]);
        assert!(!dominated(&net, a));
        assert!(dominated(&net, b) && dominated(&net, c));
        assert_eq!(solver_route(&net, r1), [a]);
        assert_eq!(solver_route(&net, r2), [a]);
        assert_eq!(&*net.route_links(r2), &[c, a, b]);
        let pending = [r1, r2].map(|r| net.transfer_interned(r, GIB as u64, FlowCap::unlimited()));
        assert_eq!(rates(&net), [1.5, 1.5]);
        drop(pending);
        sim.run().expect_quiescent();
    }

    #[test]
    fn a_link_crossed_twice_is_never_pruned() {
        // [l5, l2, l5] counts its flow twice on l5, so l5's 6 GiB/s gives
        // it 3, under l2's 4. l2 lies on every route through l5 and is
        // slower, yet pruning l5 would let the flow run at 4.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l: Vec<LinkId> = [8.0, 8.0, 4.0, 8.0, 8.0, 6.0]
            .iter()
            .map(|&c| net.add_link(c))
            .collect();
        let r = net.intern_route(&[l[5], l[2], l[5]]);
        assert!(!dominated(&net, l[5]) && !dominated(&net, l[2]));
        assert_eq!(solver_route(&net, r), [l[5], l[2], l[5]]);
        let pending = net.transfer_interned(r, GIB as u64, FlowCap::unlimited());
        assert_eq!(rates(&net), [3.0]);
        drop(pending);
        sim.run().expect_quiescent();
    }

    #[test]
    fn a_route_interned_mid_flight_restores_a_pruned_link() {
        // b lies only on [a, b], beside the slower a, so it is pruned
        // while the first flow runs. Interning [b] mid-flight breaks that:
        // b rejoins with the in-flight flow counted, and the two flows
        // share b's 3 GiB/s at 1.5 each. Counting only the newcomer on b
        // would give them 2 and 3.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let (a, b) = (net.add_link(2.0), net.add_link(3.0));
        let (n, s) = (net.clone(), sim.clone());
        sim.spawn(async move {
            let first = n.transfer(&[a, b], GIB as u64, FlowCap::unlimited());
            s.sleep(SimDuration::from_millis(100)).await;
            assert!(dominated(&n, b));
            assert_eq!(n.inner.borrow().link_members[b.0 as usize], 0);
            let r = n.intern_route(&[b]);
            assert!(!dominated(&n, b));
            {
                let inner = n.inner.borrow();
                assert_eq!(inner.link_members[b.0 as usize], 1);
                assert!(inner.live_links.contains(&b.0));
            }
            let second = n.transfer_interned(r, GIB as u64, FlowCap::unlimited());
            assert_eq!(rates(&n), [1.5, 1.5]);
            first.await;
            second.await;
        });
        sim.run().expect_quiescent();
    }

    #[test]
    fn mid_fill_caps_and_emptied_links_are_bit_stable() {
        // Four route shapes whose levels interleave: a narrow link L0
        // freezes its classes first, which empties L1 (crossed only by
        // L0's classes) while others stay unfrozen; grouped caps
        // (2 GiB/s · n^-0.5) then bind in a later round, below L3's share.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l: Vec<LinkId> = [1.0, 2.0, 40.0, 10.0]
            .iter()
            .map(|&c| net.add_link(c))
            .collect();
        let flows = 400usize;
        let done: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; flows]));
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..flows {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let grouped = FlowCap {
                base_gib: 2.0,
                group: Some(x >> 60 & 3),
                alpha: 0.5,
            };
            let (route, cap) = match x % 5 {
                0 => (vec![l[0], l[1]], FlowCap::unlimited()),
                1 => (vec![l[0], l[2]], FlowCap::unlimited()),
                2 | 3 => (vec![l[2]], grouped),
                _ => (vec![l[2], l[3]], FlowCap::capped(6.0)),
            };
            let bytes = ((x >> 8) % 8 + 1) << 20;
            let start = SimDuration::from_micros((i as u64 / 6) * 40);
            let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
            sim.spawn(async move {
                sim2.sleep(start).await;
                net.transfer(&route, bytes, cap).await;
                done.borrow_mut()[i] = sim2.now().as_nanos();
            });
        }
        sim.run().expect_quiescent();
        let sum = done
            .borrow()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &t| {
                (h ^ t).wrapping_mul(0x0000_0100_0000_01b3)
            });
        // Recorded with the solver that rescanned every unfrozen class cap
        // each round, on x86-64 Linux (glibc `powf`).
        assert_eq!(sum, 0x0179_25f5_8b64_6c3b, "checksum {sum:#018x}");
    }
}

#[cfg(test)]
mod solver_equivalence {
    //! Property tests pitting the incremental class solver against the
    //! retained per-flow oracle on randomized topologies.
    use super::*;
    use proptest::prelude::*;
    use std::rc::Rc;

    #[derive(Debug, Clone)]
    struct Spec {
        route: Vec<u8>,
        megs: u32,
        cap_decigib: u32,
        group: u8,
        alpha_centi: u8,
        start_us: u32,
    }

    fn spec() -> impl Strategy<Value = Spec> {
        (
            proptest::collection::vec(0u8..8, 1..4),
            1u32..64,
            5u32..200,
            0u8..4,
            0u8..100,
            0u32..1500,
        )
            .prop_map(
                |(route, megs, cap_decigib, group, alpha_centi, start_us)| Spec {
                    route,
                    megs,
                    cap_decigib,
                    group,
                    alpha_centi,
                    start_us,
                },
            )
    }

    fn cap_of(s: &Spec) -> FlowCap {
        FlowCap {
            base_gib: s.cap_decigib as f64 / 10.0,
            group: if s.group == 0 {
                None
            } else {
                Some(s.group as u64)
            },
            alpha: if s.group == 0 {
                0.0
            } else {
                s.alpha_centi as f64 / 100.0
            },
        }
    }

    fn route_of(s: &Spec, links: &[LinkId]) -> Vec<LinkId> {
        let mut r: Vec<LinkId> = s
            .route
            .iter()
            .map(|&l| links[l as usize % links.len()])
            .collect();
        r.sort_by_key(|l| l.0);
        r.dedup();
        r
    }

    fn run_mode(nl: u8, specs: &[Spec], naive: bool) -> Vec<u64> {
        let sim = Sim::new();
        let net = if naive {
            FlowNet::new_naive(&sim)
        } else {
            FlowNet::new(&sim)
        };
        let links: Vec<LinkId> = (0..nl)
            .map(|i| net.add_link(2.0 + (i % 7) as f64))
            .collect();
        let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
        for (i, s) in specs.iter().enumerate() {
            let route = route_of(s, &links);
            let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
            let bytes = s.megs as u64 * 1024 * 1024;
            let cap = cap_of(s);
            let start = SimDuration::from_micros(s.start_us as u64);
            sim.spawn(async move {
                sim2.sleep(start).await;
                net.transfer(&route, bytes, cap).await;
                done.borrow_mut().push((i, sim2.now().as_nanos()));
            });
        }
        sim.run().expect_quiescent();
        let mut v = done.borrow().clone();
        v.sort();
        v.into_iter().map(|(_, t)| t).collect()
    }

    /// One step of a churn program: a transfer, or a link rescale.
    #[derive(Debug, Clone)]
    enum Churn {
        Transfer(Spec),
        Rescale { link: u8, decigib: u32, at_us: u32 },
    }

    fn churn() -> impl Strategy<Value = Churn> {
        prop_oneof![
            4 => spec().prop_map(|mut s| {
                // Few distinct start instants: same-instant batches, and
                // arrivals after earlier flows drained (slot reuse).
                s.megs = 1 + s.megs % 16;
                s.start_us = (s.start_us % 40) * 50;
                Churn::Transfer(s)
            }),
            1 => (0u8..8, 5u32..100, 0u32..40).prop_map(|(link, decigib, at)| Churn::Rescale {
                link,
                decigib,
                at_us: at * 50,
            }),
        ]
    }

    /// Runs a churn program; every settle checks the incremental
    /// bookkeeping (`Inner::check_bookkeeping`). Returns completion
    /// instants in program order and the slab size at the end.
    fn run_churn(nl: u8, prog: &[Churn], naive: bool) -> (Vec<u64>, usize) {
        let sim = Sim::new();
        let net = if naive {
            FlowNet::new_naive(&sim)
        } else {
            FlowNet::new(&sim)
        };
        let links: Vec<LinkId> = (0..nl)
            .map(|i| net.add_link(2.0 + (i % 7) as f64))
            .collect();
        let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
        for (i, op) in prog.iter().enumerate() {
            let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
            match op {
                Churn::Transfer(s) => {
                    let (route, cap) = (route_of(s, &links), cap_of(s));
                    let bytes = s.megs as u64 * 1024 * 1024;
                    let start = SimDuration::from_micros(s.start_us as u64);
                    sim.spawn(async move {
                        sim2.sleep(start).await;
                        net.transfer(&route, bytes, cap).await;
                        done.borrow_mut().push((i, sim2.now().as_nanos()));
                    });
                }
                &Churn::Rescale {
                    link,
                    decigib,
                    at_us,
                } => {
                    let link = links[link as usize % links.len()];
                    let at = SimDuration::from_micros(at_us as u64);
                    sim.schedule_after(at, move || {
                        net.set_link_capacity(link, decigib as f64 / 10.0)
                    });
                }
            }
        }
        sim.run().expect_quiescent();
        net.inner.borrow().check_bookkeeping();
        assert_eq!(net.active_flows(), 0);
        let mut v = done.borrow().clone();
        v.sort();
        let slots = net.inner.borrow().slots.len();
        (v.into_iter().map(|(_, t)| t).collect(), slots)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn static_rates_agree(nl in 1u8..9, specs in proptest::collection::vec(spec(), 1..200)) {
            // Same flow population in both networks: every flow's settled
            // rate must match the oracle to 1e-6.
            let sim = Sim::new();
            let fast = FlowNet::new(&sim);
            let slow = FlowNet::new_naive(&sim);
            let fl: Vec<LinkId> = (0..nl).map(|i| fast.add_link(2.0 + (i % 7) as f64)).collect();
            let sl: Vec<LinkId> = (0..nl).map(|i| slow.add_link(2.0 + (i % 7) as f64)).collect();
            let mut pending = Vec::new();
            for s in &specs {
                let bytes = s.megs as u64 * 1024 * 1024;
                pending.push(fast.transfer(&route_of(s, &fl), bytes, cap_of(s)));
                pending.push(slow.transfer(&route_of(s, &sl), bytes, cap_of(s)));
            }
            let a = fast.snapshot_rates();
            let b = slow.snapshot_rates();
            prop_assert_eq!(a.len(), b.len());
            for ((ra, va), (rb, vb)) in a.iter().zip(&b) {
                prop_assert_eq!(ra.len(), rb.len());
                let scale = va.abs().max(vb.abs()).max(1.0);
                prop_assert!(
                    (va - vb).abs() <= 1e-6 * scale,
                    "rate mismatch: incremental {} vs naive {}", va, vb
                );
            }
            drop(pending);
        }

        #[test]
        fn churn_keeps_bookkeeping_exact(nl in 1u8..9, prog in proptest::collection::vec(churn(), 1..80)) {
            // Arrivals, departures, rescales, same-instant batches and
            // slot reuse: the incremental per-link, per-class and
            // per-group state must equal a from-scratch recount after
            // every settle, and the schedule must match the oracle's.
            let (fast, slots) = run_churn(nl, &prog, false);
            let (slow, _) = run_churn(nl, &prog, true);
            let transfers = prog.iter().filter(|op| matches!(op, Churn::Transfer(_))).count();
            prop_assert_eq!(fast.len(), transfers);
            prop_assert!(slots <= transfers.max(1));
            for (f, s) in fast.iter().zip(&slow) {
                let tol = (1e-6 * (*f as f64)).max(2e3);
                prop_assert!(
                    ((*f as f64) - (*s as f64)).abs() <= tol,
                    "completion mismatch: incremental {} vs naive {}", f, s
                );
            }
        }

        #[test]
        fn completion_times_agree(nl in 1u8..9, specs in proptest::collection::vec(spec(), 1..60)) {
            // Full dynamic runs (staggered arrivals, same-instant batches
            // via repeated start times): completion schedules must match
            // the oracle to 1e-6 relative.
            let fast = run_mode(nl, &specs, false);
            let slow = run_mode(nl, &specs, true);
            prop_assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                let tol = (1e-6 * (*f as f64)).max(2e3);
                prop_assert!(
                    ((*f as f64) - (*s as f64)).abs() <= tol,
                    "completion mismatch: incremental {} vs naive {}", f, s
                );
            }
        }
    }
}

#[cfg(test)]
mod ior_shaped {
    //! The settle path on the shape `ior-bulk` gives it: the `tcp(8,16)`
    //! deployment's fabric plus per-engine and per-client-socket stack
    //! links, ~1000 staggered 1 MiB shard flows, host-pair cap groups at
    //! alpha 0.45.
    use super::tests::{dominated, solver_route};
    use super::*;
    use crate::fabric::{Endpoint, Fabric, FabricSpec, ProviderProfile};
    use std::rc::Rc;

    const FLOWS: u64 = 1024;
    const SAMPLE_EVERY: SimDuration = SimDuration::from_micros(400);

    /// Every live flow's (route, rate in GiB/s), sorted.
    type Snapshot = Vec<(Vec<u32>, f64)>;

    /// Completion instant (ns) per flow, in flow order, plus the rate
    /// snapshots taken every [`SAMPLE_EVERY`] when `sample` is set.
    type Run = (Vec<u64>, Vec<Snapshot>);

    /// An endpoint with its inbound and outbound stack links.
    type Host = (Endpoint, LinkId, LinkId);

    /// The `tcp(8,16)` fabric: 16 engines and 32 client sockets, with the
    /// NEXTGenIO calibration's stack capacities.
    fn shape(sim: &Sim, naive: bool) -> (Fabric, Vec<Host>, Vec<Host>) {
        let mut spec = FabricSpec::new(24, ProviderProfile::tcp());
        spec.host_efficiency = 0.8;
        let fabric = if naive {
            Fabric::new_naive(sim, spec)
        } else {
            Fabric::new(sim, spec)
        };
        let net = fabric.net();
        let engines = (0..16u16)
            .map(|e| {
                let ep = Endpoint::new(e / 2, (e % 2) as u8);
                (ep, net.add_link(2.9), net.add_link(7.8))
            })
            .collect();
        let clients = (0..32u16)
            .map(|c| {
                let ep = Endpoint::new(8 + c / 2, (c % 2) as u8);
                (ep, net.add_link(3.9), net.add_link(9.0))
            })
            .collect();
        (fabric, engines, clients)
    }

    /// A transfer from `src` to `dst` through both stacks: its route and
    /// cap.
    fn stack_route(fabric: &Fabric, src: Host, dst: Host) -> (Vec<LinkId>, FlowCap) {
        let mut r = vec![src.2];
        r.extend(fabric.route(src.0, dst.0));
        r.push(dst.1);
        (r, fabric.flow_cap(src.0, dst.0))
    }

    fn run(naive: bool, sample: bool) -> Run {
        let sim = Sim::new();
        let (fabric, engines, clients) = shape(&sim, naive);
        let net = fabric.net().clone();
        let done: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; FLOWS as usize]));
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..FLOWS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (client, engine) = (clients[(i % 32) as usize], engines[(x % 16) as usize]);
            let (route, cap) = if x & 0x100 == 0 {
                stack_route(&fabric, client, engine)
            } else {
                stack_route(&fabric, engine, client)
            };
            // Batches of eight same-instant arrivals, 100 µs apart.
            let start = SimDuration::from_micros((i / 8) * 100);
            let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
            sim.spawn(async move {
                sim2.sleep(start).await;
                net.transfer(&route, 1 << 20, cap).await;
                done.borrow_mut()[i as usize] = sim2.now().as_nanos();
            });
        }
        let samples: Rc<RefCell<Vec<Snapshot>>> = Rc::default();
        if sample {
            let (net, sim2, samples) = (net.clone(), sim.clone(), Rc::clone(&samples));
            sim.spawn(async move {
                sim2.sleep(SAMPLE_EVERY).await;
                while net.active_flows() > 0 {
                    let mut snap: Snapshot = net
                        .snapshot_rates()
                        .into_iter()
                        .map(|(r, v)| (r.iter().map(|l| l.0).collect(), v))
                        .collect();
                    snap.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
                    samples.borrow_mut().push(snap);
                    sim2.sleep(SAMPLE_EVERY).await;
                }
            });
        }
        sim.run().expect_quiescent();
        let times = done.borrow().clone();
        let samples = samples.borrow().clone();
        (times, samples)
    }

    #[test]
    fn rates_and_completions_match_naive_oracle() {
        let (fast_t, fast_s) = run(false, true);
        let (slow_t, slow_s) = run(true, true);
        assert!(fast_s.len() >= 10, "only {} rate samples", fast_s.len());
        assert_eq!(fast_s.len(), slow_s.len());
        for (a, b) in fast_s.iter().zip(&slow_s) {
            assert_eq!(a.len(), b.len());
            for ((ra, va), (rb, vb)) in a.iter().zip(b) {
                assert_eq!(ra, rb);
                assert!(
                    (va - vb).abs() <= 1e-6 * va.abs().max(1.0),
                    "rate {va} vs {vb}"
                );
            }
        }
        for (f, s) in fast_t.iter().zip(&slow_t) {
            let tol = (1e-6 * (*f as f64)).max(2e3);
            assert!(
                ((*f as f64) - (*s as f64)).abs() <= tol,
                "completion {f} vs {s}"
            );
        }
    }

    /// `flows` concurrent 1 MiB writes on the `ior-bulk` shape: 256
    /// ranks, 8 per client socket, each writing to the engine its file
    /// lives on, and each leaving the barrier up to 200 µs late; flow `i`
    /// is rank `i % 256`'s. Returns the solver's counters and each flow's
    /// route, start and completion instant.
    fn concurrent_writes(flows: usize) -> (SolverStats, Vec<(Vec<LinkId>, u64, u64)>) {
        let sim = Sim::new();
        let (fabric, engines, clients) = shape(&sim, false);
        let net = fabric.net().clone();
        let ranks: Vec<(usize, u64)> = (0..256u64)
            .map(|rank| {
                let mut x = 0x2545_f491_4f6c_dd1d ^ rank.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % 16) as usize, (x >> 8) % 200_000)
            })
            .collect();
        let done: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; flows]));
        let mut specs = Vec::new();
        for i in 0..flows {
            let (engine, skew) = ranks[i % 256];
            let (route, cap) = stack_route(&fabric, clients[i % 256 / 8], engines[engine]);
            specs.push((route.clone(), skew));
            let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_nanos(skew)).await;
                net.transfer(&route, 1 << 20, cap).await;
                done.borrow_mut()[i] = sim2.now().as_nanos();
            });
        }
        sim.run().expect_quiescent();
        let flows = (specs.into_iter().zip(done.borrow().iter()))
            .map(|((route, start), &end)| (route, start, end))
            .collect();
        (net.solver_stats(), flows)
    }

    #[test]
    fn drains_visit_active_classes_not_flows() {
        // (flows, flows live over the settles, counters). A per-flow drain
        // visits at least the live flows; from 256 to 1024 flows they grow
        // fourfold, while the classes, and so the drain visits, do not.
        let pins = [
            (
                256,
                65_510,
                SolverStats {
                    settles: 510,
                    recomputes: 509,
                    drain_visits: 58_432,
                    fill_rounds: 3_104,
                    class_freezes: 58_213,
                    link_visits: 95_885,
                    route_visits: 174_260,
                    cap_rescans: 117,
                },
            ),
            (
                1024,
                261_228,
                SolverStats {
                    settles: 509,
                    recomputes: 508,
                    drain_visits: 58_128,
                    fill_rounds: 2_805,
                    class_freezes: 57_909,
                    link_visits: 86_335,
                    route_visits: 173_348,
                    cap_rescans: 0,
                },
            ),
        ];
        for (n, live_pin, pinned) in pins {
            let (stats, flows) = concurrent_writes(n);
            // One settle per instant at which flows start or complete.
            let mut instants: Vec<u64> = flows.iter().flat_map(|f| [f.1, f.2]).collect();
            instants.sort_unstable();
            instants.dedup();
            assert_eq!(stats.settles, instants.len() as u64, "{n} flows");
            // A settle at `t` drains every flow live at `t`: started by
            // then, and completing then or later. A flow's route is its
            // class, since the route fixes the endpoints and so the cap.
            let (mut classes, mut live) = (0, 0);
            for &t in &instants {
                let mut active: Vec<Vec<u32>> = (flows.iter())
                    .filter(|f| f.1 <= t && t <= f.2)
                    .map(|f| f.0.iter().map(|l| l.0).collect())
                    .collect();
                live += active.len() as u64;
                active.sort_unstable();
                active.dedup();
                classes += active.len() as u64;
            }
            assert_eq!(stats.drain_visits, classes, "{n} flows");
            assert_eq!(live, live_pin, "{n} flows");
            // Recorded on x86-64 Linux (glibc `powf` sets the grouped
            // caps). A scan reading every live link twice per round gives
            // the same counts except `link_visits`: 538,808 and 478,992.
            assert_eq!(stats, pinned, "{n} flows");
        }
    }

    #[test]
    fn every_bulk_route_is_pruned_to_three_links() {
        // With hosts at 9.7 × 0.8 = 7.76 GiB/s, a write keeps the client
        // host, the server host and the engine's 2.9 GiB/s rx stack; a
        // read keeps the server host, the client host and the client's
        // 3.9 GiB/s rx stack. Stacks, NICs and UPIs above those hosts
        // never bind.
        let sim = Sim::new();
        let (fabric, engines, clients) = shape(&sim, false);
        let net = fabric.net();
        let mut interned = Vec::new();
        for &c in &clients {
            for &e in &engines {
                let write = net.intern_route(&stack_route(&fabric, c, e).0);
                let read = net.intern_route(&stack_route(&fabric, e, c).0);
                interned.push((c, e, write, read));
            }
        }
        let host = |ep: Endpoint, other: Endpoint| fabric.route(ep, other)[1];
        for (c, e, write, read) in interned {
            let (client_host, server_host) = (host(c.0, e.0), host(e.0, c.0));
            assert_eq!(solver_route(net, write), [client_host, server_host, e.1]);
            assert_eq!(solver_route(net, read), [server_host, client_host, c.1]);
        }
    }

    #[test]
    fn rescaling_a_pruned_stack_below_its_dominator_restores_it() {
        // Engine 0's tx stack (7.8 GiB/s) is pruned under its server host
        // (7.76 GiB/s). Halving both its stacks at 1 ms, as
        // `Deployment::degrade_engine_nic` does, takes the tx stack to
        // 3.9 GiB/s: it rejoins the solver with its flows in flight.
        // Restoring them at 2 ms prunes it again. Completions match the
        // naive oracle.
        let run = |naive: bool| -> Vec<u64> {
            let sim = Sim::new();
            let (fabric, engines, clients) = shape(&sim, naive);
            let net = fabric.net().clone();
            let done: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; 256]));
            for i in 0..256usize {
                let (client, engine) = (clients[i % 32], engines[i / 32 % 2]);
                let (route, cap) = if i % 3 == 0 {
                    stack_route(&fabric, client, engine)
                } else {
                    stack_route(&fabric, engine, client)
                };
                let start = SimDuration::from_micros(i as u64 * 10);
                let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
                sim.spawn(async move {
                    sim2.sleep(start).await;
                    net.transfer(&route, 1 << 20, cap).await;
                    done.borrow_mut()[i] = sim2.now().as_nanos();
                });
            }
            let (_, rx, tx) = engines[0];
            for (at_us, factor, pruned) in [(1000, 0.5, false), (2000, 1.0, true)] {
                let net = net.clone();
                sim.schedule_after(SimDuration::from_micros(at_us), move || {
                    net.set_link_capacity(rx, 2.9 * factor);
                    net.set_link_capacity(tx, 7.8 * factor);
                    if naive {
                        return;
                    }
                    assert_eq!(dominated(&net, tx), pruned, "at {at_us} µs");
                    let inner = net.inner.borrow();
                    let through = (inner.slots.iter().filter_map(|s| s.flow.as_ref()))
                        .filter(|f| {
                            let c = &inner.classes[f.class as usize];
                            inner.routes[c.route.0 as usize].contains(&tx)
                        })
                        .count() as u32;
                    assert!(through > 0, "no flow on the tx stack at {at_us} µs");
                    let counted = if pruned { 0 } else { through };
                    assert_eq!(inner.link_members[tx.0 as usize], counted);
                });
            }
            sim.run().expect_quiescent();
            let times = done.borrow().clone();
            times
        };
        let (fast, slow) = (run(false), run(true));
        for (f, s) in fast.iter().zip(&slow) {
            let tol = (1e-6 * (*f as f64)).max(2e3);
            assert!(
                ((*f as f64) - (*s as f64)).abs() <= tol,
                "completion {f} vs {s}"
            );
        }
    }

    #[test]
    fn completion_instants_are_bit_stable() {
        let (times, _) = run(false, false);
        let sum = times.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &t| {
            (h ^ t).wrapping_mul(0x0000_0100_0000_01b3)
        });
        // Computed with the plain ascending-scan solver this one replaced,
        // on x86-64 Linux (glibc `powf`): any change to the freeze set or
        // the order of residual subtraction shows up here, not just
        // beyond a tolerance.
        assert_eq!(sum, 0x57d7_c030_b5d3_4c84, "checksum {sum:#018x}");
    }
}
