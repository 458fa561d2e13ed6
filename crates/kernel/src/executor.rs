//! The event-driven executor.
//!
//! A [`Sim`] owns an event calendar (a hierarchical timer wheel keyed on
//! `(time, sequence)` — see [`crate::calendar`]) and a set of cooperative
//! async tasks. Tasks advance only when an event they are waiting on
//! fires, so simulated time moves in discrete jumps and the whole run is
//! deterministic: ties are broken by insertion sequence and the executor
//! is single-threaded.
//!
//! `Sim` is a cheap `Rc` handle; clone it freely into spawned tasks.
//!
//! Tasks live in a generational slab arena: a [`TaskId`] is a slot index
//! plus a generation stamp, polls index straight into the slab (no
//! remove/reinsert hashing), each slot caches its `Waker`, and wakes
//! dedup through one atomic flag per task instead of a hash-set insert
//! under the queue mutex (see DESIGN.md §8).
//!
//! Timers live in a second generational slab, beside the kernel rather
//! than inside it. A [`Sleep`], a `sync::timeout` deadline or a
//! [`TimerHandle`] owns one slot, and its calendar entry names the slot
//! and the generation it was armed under. Firing or disarming releases
//! the slot and bumps its generation, so a stale entry is recognised as
//! a tombstone and never fires. Sleeping allocates nothing once the slab
//! and the wheel's slot buffers have warmed up; a cancellable action
//! costs the one box that holds it.
//!
//! The order in which *ready* tasks are polled within one instant is a
//! [`SchedPolicy`]. The default ([`SchedPolicy::Fifo`]) preserves the
//! historical wake order bit-for-bit; the other policies perturb it
//! deterministically from a seed so schedule-invariance can be fuzzed
//! (see DESIGN.md §7).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use crate::calendar::TimerWheel;
use crate::obs::{Obs, SpanGuard};
use crate::rng::splitmix64;
use crate::time::{SimDuration, SimTime};

/// Identity of a spawned task: the slab slot it occupies, the slot's
/// generation at spawn (so a reused slot never aliases a dead task), and
/// the spawn ordinal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TaskId {
    slot: u32,
    gen: u32,
    ordinal: u64,
}

impl TaskId {
    /// The task's ordinal (spawn order). Stable for the lifetime of the
    /// sim; used as the lane id in trace exports.
    pub fn as_u64(self) -> u64 {
        self.ordinal
    }
}

type TaskFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;
type EventAction = Box<dyn FnOnce() + 'static>;

/// What a calendar entry runs when it fires. Timer entries name a slot
/// of the [`Timers`] slab; once that slot's generation has moved on (the
/// sleep was dropped, the handle cancelled) the entry is a tombstone and
/// is discarded *without* advancing simulated time (a cancelled deadline
/// leaves no trace on the clock).
enum CalendarAction {
    Fixed(EventAction),
    Timer(TimerKey),
}

impl CalendarAction {
    /// A cancelled entry still sitting in the calendar (a tombstone).
    fn is_dead(&self, timers: &Timers) -> bool {
        match self {
            CalendarAction::Fixed(_) => false,
            CalendarAction::Timer(key) => !timers.is_armed(*key),
        }
    }
}

/// A timer slot and the generation it was armed under.
#[derive(Clone, Copy)]
struct TimerKey {
    slot: u32,
    gen: u32,
}

/// What an armed timer slot does when its deadline fires.
enum TimerState {
    /// The slot is on the free list.
    Free,
    /// A [`Sleep`] (or a `sync::timeout` deadline): the waker to call,
    /// once the sleep has been polled.
    Wake(Option<Waker>),
    /// A [`TimerHandle`]'s action.
    Action(EventAction),
}

struct TimerSlot {
    gen: u32,
    state: TimerState,
}

/// The timer slab: one slot per armed sleep or cancellable action,
/// reused through a free list with a bumped generation, so arming a
/// sleep allocates nothing once the slab has grown to the peak number
/// of pending timers. It sits in its own `RefCell` beside the kernel:
/// dropping a `Sleep` or cancelling a `TimerHandle` touches only this
/// slab, never the kernel, so it is safe while the run loop (or a
/// compaction) holds the kernel borrow. Slot state that could run code
/// on drop (a waker, an action) always leaves the slab before it is
/// dropped or called.
#[derive(Default)]
struct Timers {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    /// Calendar entries whose slot was released before they fired
    /// (tombstones not yet discarded or compacted away).
    dead: usize,
}

impl Timers {
    fn arm(&mut self, state: TimerState) -> TimerKey {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.state = state;
                TimerKey { slot, gen: s.gen }
            }
            None => {
                self.slots.push(TimerSlot { gen: 0, state });
                TimerKey {
                    slot: (self.slots.len() - 1) as u32,
                    gen: 0,
                }
            }
        }
    }

    /// True while the timer has neither fired nor been disarmed.
    fn is_armed(&self, key: TimerKey) -> bool {
        self.slots[key.slot as usize].gen == key.gen
    }

    /// Frees the slot (bumping its generation, which kills every calendar
    /// entry and handle naming the old one) and returns what it held.
    fn release(&mut self, slot: u32) -> TimerState {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        std::mem::replace(&mut s.state, TimerState::Free)
    }

    /// Releases an armed timer before its deadline, counting the
    /// tombstone its calendar entry leaves behind. The caller drops the
    /// returned state after letting go of the slab.
    fn disarm(&mut self, key: TimerKey) -> Option<TimerState> {
        if !self.is_armed(key) {
            return None;
        }
        self.dead += 1;
        Some(self.release(key.slot))
    }
}

/// How the executor picks the next task from the ready set. Every policy
/// is deterministic: given the same seed and the same program, the same
/// schedule replays bit-for-bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Poll ready tasks in wake order. The default, and the contract for
    /// every checked-in artifact: byte-identical to historical runs.
    #[default]
    Fifo,
    /// Poll the most recently woken ready task first.
    Lifo,
    /// Poll a seeded-random member of the ready set.
    Random {
        /// Seed for the pick sequence (`splitmix64` stream).
        seed: u64,
    },
    /// FIFO order, but each wake may be deferred by a calendar entry up
    /// to `max_delay_ns` of virtual time (drawn per wake from `seed`).
    /// A deferred wake is deferred at most once, so progress is bounded.
    WakeDelay {
        /// Seed for the delay draws (`splitmix64` stream).
        seed: u64,
        /// Upper bound (inclusive) on one deferral, in simulated ns.
        max_delay_ns: u64,
    },
}

/// A `(slot, generation)` pair as it travels through the wake queue.
/// Stale pairs (generation no longer matching the slab) are discarded at
/// pick time, exactly as wakes of completed tasks always were.
type WakeEntry = (u32, u32);

/// Cross-thread wake mailbox. A `Waker` must be `Send + Sync`, so this
/// small piece of shared state uses a real mutex even though the
/// executor itself is single-threaded; the executor drains it in batches
/// into a local queue, so the mutex is taken once per batch rather than
/// once per pick (and per-wake dedup happens on [`WakeSlot::queued`]
/// without touching the lock at all for coalesced wakes).
#[derive(Default)]
struct WakeQueue {
    ready: Mutex<Vec<WakeEntry>>,
}

/// The per-task wake state a `Waker` points at. One allocation per task
/// for its whole lifetime (the slab caches the constructed `Waker`), not
/// one per poll. `queued` makes a wake storm between polls cost one
/// queue entry: only the transition false→true enqueues.
struct WakeSlot {
    slot: u32,
    gen: u32,
    queued: AtomicBool,
    queue: Arc<WakeQueue>,
}

impl WakeSlot {
    fn enqueue(&self) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            self.queue.ready.lock().unwrap().push((self.slot, self.gen));
        }
    }
}

impl Wake for WakeSlot {
    fn wake(self: Arc<Self>) {
        self.enqueue();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.enqueue();
    }
}

/// One slab slot. `gen` is bumped when the occupant completes, so stale
/// wake entries and stale `TaskId`s can never reach a reused slot.
struct TaskSlot {
    gen: u32,
    ordinal: u64,
    /// `None` while the slot is free *or* while its future is out being
    /// polled (the executor takes it, polls without holding the kernel
    /// borrow, and puts it back if pending).
    fut: Option<TaskFuture>,
    /// Wake state + cached waker; `None` while the slot is free.
    wake: Option<Arc<WakeSlot>>,
    waker: Option<Waker>,
    /// This task's current wake was already deferred once by
    /// `SchedPolicy::WakeDelay` (deferral is never compounded).
    deferred: bool,
}

impl TaskSlot {
    fn free() -> Self {
        TaskSlot {
            gen: 0,
            ordinal: 0,
            fut: None,
            wake: None,
            waker: None,
            deferred: false,
        }
    }
}

struct Kernel {
    now: SimTime,
    seq: u64,
    next_ordinal: u64,
    events: TimerWheel<CalendarAction>,
    /// The task arena. Freed slots go on `free_slots` and are reused
    /// with a bumped generation.
    slab: Vec<TaskSlot>,
    free_slots: Vec<u32>,
    /// Number of spawned-and-not-yet-completed tasks.
    live: usize,
    /// Executor-local ready queue, refilled by draining [`WakeQueue`].
    local_ready: VecDeque<WakeEntry>,
    /// Ready-set discipline; `SchedPolicy::Fifo` unless perturbed.
    policy: SchedPolicy,
    /// `splitmix64` counter state behind the policy's random draws.
    sched_rng: u64,
}

impl Kernel {
    fn next_sched_rand(&mut self) -> u64 {
        self.sched_rng = self.sched_rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.sched_rng)
    }

    /// Compacts cancelled timers out of the calendar once they are both
    /// numerous (so small sims never bother) and the majority of it.
    /// Called from the schedule paths, where the calendar grows.
    fn maybe_compact(&mut self, timers: &mut Timers) {
        let dead = timers.dead;
        if dead > 64 && dead * 2 > self.events.len() {
            let removed = self.events.compact(|e| e.is_dead(timers));
            timers.dead = dead.saturating_sub(removed);
        }
    }

    /// Files `action` at `at` with a fresh sequence number.
    fn push(&mut self, at: SimTime, timers: &mut Timers, action: CalendarAction) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        self.maybe_compact(timers);
        let seq = self.seq;
        self.seq += 1;
        self.events.push(at.as_nanos(), seq, action);
    }
}

/// Result of driving a simulation to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Simulated time when the run stopped.
    pub end_time: SimTime,
    /// Tasks still pending when the event calendar drained. Non-zero means
    /// a deadlock in the modelled system (e.g. a barrier nobody reaches).
    pub stranded_tasks: usize,
}

impl RunOutcome {
    /// Panics if any task was left stranded — the normal assertion after a
    /// complete benchmark run.
    pub fn expect_quiescent(self) -> SimTime {
        assert_eq!(
            self.stranded_tasks, 0,
            "simulation deadlocked with {} stranded task(s) at {}",
            self.stranded_tasks, self.end_time
        );
        self.end_time
    }
}

/// Handle to a simulation world. Cloning is cheap and all clones refer to
/// the same world.
#[derive(Clone)]
pub struct Sim {
    kernel: Rc<RefCell<Kernel>>,
    timers: Rc<RefCell<Timers>>,
    wakes: Arc<WakeQueue>,
    obs: Rc<Obs>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    pub fn new() -> Self {
        Self::with_policy(SchedPolicy::Fifo)
    }

    /// A world whose ready-set order follows `policy`. `Sim::new()` is
    /// `with_policy(SchedPolicy::Fifo)`.
    pub fn with_policy(policy: SchedPolicy) -> Self {
        let sched_rng = match policy {
            SchedPolicy::Random { seed } | SchedPolicy::WakeDelay { seed, .. } => seed,
            SchedPolicy::Fifo | SchedPolicy::Lifo => 0,
        };
        Sim {
            kernel: Rc::new(RefCell::new(Kernel {
                now: SimTime::ZERO,
                seq: 0,
                next_ordinal: 0,
                events: TimerWheel::new(),
                slab: Vec::new(),
                free_slots: Vec::new(),
                live: 0,
                local_ready: VecDeque::new(),
                policy,
                sched_rng,
            })),
            timers: Rc::default(),
            wakes: Arc::new(WakeQueue::default()),
            obs: Rc::new(Obs::default()),
        }
    }

    /// The ready-set discipline this world runs under.
    pub fn sched_policy(&self) -> SchedPolicy {
        self.kernel.borrow().policy
    }

    /// The observability layer (span tracer + metrics registry) of this
    /// world. See [`crate::obs`].
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Whether span recording is on; gate dynamic span-name formatting on
    /// this at hot call sites.
    pub fn trace_enabled(&self) -> bool {
        self.obs.is_enabled()
    }

    /// Opens a stacked span and returns a guard that closes it on drop.
    /// When tracing is disabled this is a single flag check.
    pub fn span(&self, category: &'static str, name: &str) -> SpanGuard {
        let id = self.obs.span_begin(category, name);
        SpanGuard::new(Rc::clone(&self.obs), id)
    }

    /// Leaf-span variant of [`Sim::span`]: parented to the current stack
    /// top but not pushed, so concurrent branches of one task (e.g.
    /// `join_all` arms) can hold overlapping spans without adopting each
    /// other as children.
    pub fn span_leaf(&self, category: &'static str, name: &str) -> SpanGuard {
        let id = self.obs.span_begin_leaf(category, name);
        SpanGuard::new(Rc::clone(&self.obs), id)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.borrow().now
    }

    /// Number of tasks that have been spawned and not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.kernel.borrow().live
    }

    /// Number of entries in the event calendar, including tombstones of
    /// cancelled timers that have not been compacted away yet.
    pub fn pending_events(&self) -> usize {
        self.kernel.borrow().events.len()
    }

    /// Spawns a task onto the simulation. The task starts running at the
    /// current simulated time, when the executor next polls.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) -> TaskId {
        let (id, wake) = {
            let mut k = self.kernel.borrow_mut();
            let ordinal = k.next_ordinal;
            k.next_ordinal += 1;
            let slot = match k.free_slots.pop() {
                Some(s) => s,
                None => {
                    k.slab.push(TaskSlot::free());
                    (k.slab.len() - 1) as u32
                }
            };
            let gen = k.slab[slot as usize].gen;
            let wake = Arc::new(WakeSlot {
                slot,
                gen,
                queued: AtomicBool::new(false),
                queue: Arc::clone(&self.wakes),
            });
            k.slab[slot as usize] = TaskSlot {
                gen,
                ordinal,
                fut: Some(Box::pin(fut)),
                wake: Some(Arc::clone(&wake)),
                waker: Some(Waker::from(Arc::clone(&wake))),
                deferred: false,
            };
            k.live += 1;
            (TaskId { slot, gen, ordinal }, wake)
        };
        if self.obs.is_enabled() {
            self.obs
                .instant("executor", &format!("spawn t{}", id.as_u64()));
        }
        // Make sure the new task gets a first poll.
        wake.enqueue();
        id
    }

    /// Schedules `action` to run at absolute time `at`. Actions scheduled
    /// for the same instant run in scheduling order.
    pub fn schedule_at(&self, at: SimTime, action: impl FnOnce() + 'static) {
        let mut timers = self.timers.borrow_mut();
        self.kernel
            .borrow_mut()
            .push(at, &mut timers, CalendarAction::Fixed(Box::new(action)));
    }

    /// Schedules `action` to run after `delay`.
    pub fn schedule_after(&self, delay: SimDuration, action: impl FnOnce() + 'static) {
        let at = self.now() + delay;
        self.schedule_at(at, action);
    }

    /// Arms a timer slot holding `state` and files its calendar entry.
    fn arm_timer(&self, at: SimTime, state: TimerState) -> TimerKey {
        let mut timers = self.timers.borrow_mut();
        let mut k = self.kernel.borrow_mut();
        let key = timers.arm(state);
        k.push(at, &mut timers, CalendarAction::Timer(key));
        key
    }

    /// Schedules `action` at `at` and returns a handle that can cancel it.
    ///
    /// Cancellation drops the action immediately (so captured state is
    /// released right away, rather than living in the calendar until the
    /// deadline), and the run loop discards the dead calendar entry
    /// without advancing the clock — a cancelled deadline neither runs
    /// nor stretches the simulation's end time. This is the primitive
    /// components with *moving deadlines* (e.g. the flow network's
    /// next-completion event, client RPC timeouts) should use instead of
    /// the schedule-and-check-epoch pattern, which leaks one stale
    /// closure into the calendar per reschedule. Tombstones of cancelled
    /// entries are counted and compacted away once they outnumber the
    /// live half of the calendar, so cancellation-heavy workloads (e.g.
    /// a timeout cancelled per successful attempt) stay bounded. The
    /// action lives in a timer-slab slot, so arming costs one allocation
    /// (the boxed action) once the slab has warmed up.
    pub fn schedule_cancellable_at(
        &self,
        at: SimTime,
        action: impl FnOnce() + 'static,
    ) -> TimerHandle {
        let key = self.arm_timer(at, TimerState::Action(Box::new(action)));
        TimerHandle {
            at,
            key,
            timers: Rc::clone(&self.timers),
        }
    }

    /// Cancellable variant of [`Sim::schedule_after`].
    pub fn schedule_cancellable_after(
        &self,
        delay: SimDuration,
        action: impl FnOnce() + 'static,
    ) -> TimerHandle {
        self.schedule_cancellable_at(self.now() + delay, action)
    }

    /// Suspends the calling task for `delay` of simulated time. The
    /// wakeup is a cancellable calendar entry: dropping the `Sleep`
    /// (e.g. when a `timeout` or `race` abandons it) disarms the entry,
    /// so abandoned sleeps leave no trace on the simulation clock. A
    /// sleep is a timer-slab slot plus a calendar entry and allocates
    /// nothing once the slab and the wheel's slot buffers have warmed up.
    pub fn sleep(&self, delay: SimDuration) -> Sleep {
        let key = self.arm_timer(self.now() + delay, TimerState::Wake(None));
        Sleep {
            key,
            timers: Rc::clone(&self.timers),
        }
    }

    /// Runs the simulation until both the event calendar and the ready
    /// queue are empty.
    pub fn run(&self) -> RunOutcome {
        loop {
            // Drain all tasks runnable at the current instant first; only
            // when nothing is ready does time advance.
            self.poll_ready();
            let next = {
                let mut k = self.kernel.borrow_mut();
                let mut timers = self.timers.borrow_mut();
                // Cancelled entries are discarded inside the wheel,
                // without advancing the clock the simulation observes —
                // a cancelled deadline leaves no trace on the run.
                let popped = k.events.pop_next_alive(|entry| {
                    let dead = entry.is_dead(&timers);
                    if dead {
                        timers.dead = timers.dead.saturating_sub(1);
                    }
                    dead
                });
                match popped {
                    Some((at, _seq, entry)) => {
                        // A timer's slot is released before its action
                        // runs: the action may inspect or re-arm its
                        // handle, and must see it as no longer armed.
                        let fire = match entry {
                            CalendarAction::Fixed(a) => TimerState::Action(a),
                            CalendarAction::Timer(key) => timers.release(key.slot),
                        };
                        let at = SimTime::from_nanos(at);
                        debug_assert!(at >= k.now);
                        k.now = at;
                        Some((at, fire))
                    }
                    None => None,
                }
            };
            match next {
                Some((at, fire)) => {
                    // Keep the tracer's clock mirror in step so span
                    // probes never need to borrow the kernel.
                    self.obs.set_now(at.as_nanos());
                    match fire {
                        TimerState::Action(action) => action(),
                        TimerState::Wake(Some(waker)) => waker.wake(),
                        TimerState::Wake(None) => {}
                        TimerState::Free => unreachable!("liveness was checked in the wheel"),
                    }
                }
                None => break,
            }
        }
        let k = self.kernel.borrow();
        RunOutcome {
            end_time: k.now,
            stranded_tasks: k.live,
        }
    }

    /// Picks the next ready task per the scheduling policy and clears its
    /// in-queue flag (so wakes during its poll re-enqueue it). Returns a
    /// `(slot, gen)` whose liveness has already been checked — stale
    /// entries (completed tasks, reused slots) are skipped here.
    ///
    /// FIFO (and `WakeDelay`, which picks FIFO) refills the local queue
    /// by draining the shared mailbox only when the local queue is empty:
    /// one mutex round-trip per batch. That preserves wake order exactly
    /// — entries pushed during polls of this batch sort after the batch,
    /// as they did through the single shared queue. LIFO and Random must
    /// see the *full* ready set on every pick (the newest wake, the true
    /// set size), so they drain the mailbox before each pick.
    fn next_ready(&self) -> Option<(u32, u32)> {
        let mut k = self.kernel.borrow_mut();
        loop {
            let entry = match k.policy {
                SchedPolicy::Fifo | SchedPolicy::WakeDelay { .. } => {
                    if k.local_ready.is_empty() {
                        let mut shared = self.wakes.ready.lock().unwrap();
                        if shared.is_empty() {
                            return None;
                        }
                        k.local_ready.extend(shared.drain(..));
                    }
                    k.local_ready.pop_front()
                }
                SchedPolicy::Lifo | SchedPolicy::Random { .. } => {
                    {
                        let mut shared = self.wakes.ready.lock().unwrap();
                        k.local_ready.extend(shared.drain(..));
                    }
                    let len = k.local_ready.len();
                    if len == 0 {
                        return None;
                    }
                    let idx = match k.policy {
                        SchedPolicy::Lifo => len - 1,
                        _ => (k.next_sched_rand() % len as u64) as usize,
                    };
                    k.local_ready.remove(idx)
                }
            };
            let (slot, gen) = entry?;
            let Some(s) = k.slab.get(slot as usize) else {
                continue;
            };
            if s.gen != gen {
                continue; // completed (slot freed or reused); spurious wake
            }
            if let Some(w) = &s.wake {
                w.queued.store(false, Ordering::Release);
            }
            return Some((slot, gen));
        }
    }

    /// Under `WakeDelay`, decides whether this pick is deferred: draws a
    /// delay in `[0, max_delay_ns]` and, if non-zero, re-queues the task
    /// via a calendar entry that many virtual ns from now. Each wake is
    /// deferred at most once (the `deferred` mark is consumed on the next
    /// pick), so a task is never pushed back indefinitely.
    fn maybe_defer(&self, slot: u32) -> bool {
        let (delay, wake) = {
            let mut k = self.kernel.borrow_mut();
            let SchedPolicy::WakeDelay { max_delay_ns, .. } = k.policy else {
                return false;
            };
            if k.slab[slot as usize].deferred {
                k.slab[slot as usize].deferred = false;
                return false;
            }
            let d = k.next_sched_rand() % (max_delay_ns + 1);
            if d == 0 {
                return false;
            }
            let s = &mut k.slab[slot as usize];
            s.deferred = true;
            let wake = Arc::clone(s.wake.as_ref().expect("live slot has wake state"));
            (SimDuration::from_nanos(d), wake)
        };
        self.schedule_after(delay, move || {
            wake.enqueue();
        });
        true
    }

    /// Polls every task currently in the ready queue (and any tasks they
    /// spawn) until the queue drains at this instant.
    fn poll_ready(&self) {
        while let Some((slot, gen)) = self.next_ready() {
            if self.maybe_defer(slot) {
                continue;
            }
            let (mut fut, waker, id) = {
                let mut k = self.kernel.borrow_mut();
                let s = &mut k.slab[slot as usize];
                let Some(fut) = s.fut.take() else {
                    continue; // spurious wake between pick and poll
                };
                let waker = s.waker.clone().expect("live slot has cached waker");
                let id = TaskId {
                    slot,
                    gen,
                    ordinal: s.ordinal,
                };
                (fut, waker, id)
            };
            let mut cx = Context::from_waker(&waker);
            // Attribute spans opened during the poll to this task, and
            // record the poll itself as a parentless leaf span (zero sim
            // duration — polls never advance the clock; parentless
            // because stacked spans open and close inside polls).
            self.obs.set_current_task(Some(id));
            let poll_span = self.obs.span_begin_orphan("executor", "poll");
            let polled = fut.as_mut().poll(&mut cx);
            if let Some(s) = poll_span {
                self.obs.span_end(s);
            }
            self.obs.set_current_task(None);
            match polled {
                Poll::Ready(()) => {
                    let mut k = self.kernel.borrow_mut();
                    let s = &mut k.slab[slot as usize];
                    s.gen = s.gen.wrapping_add(1);
                    s.wake = None;
                    s.waker = None;
                    s.deferred = false;
                    k.free_slots.push(slot);
                    k.live -= 1;
                    if self.obs.is_enabled() {
                        drop(k);
                        self.obs
                            .instant("executor", &format!("done t{}", id.as_u64()));
                    }
                }
                Poll::Pending => {
                    self.kernel.borrow_mut().slab[slot as usize].fut = Some(fut);
                }
            }
        }
    }

    /// Convenience: spawn a root task, run to quiescence, and assert no
    /// task was stranded. Returns the final simulated time.
    pub fn block_on(&self, fut: impl Future<Output = ()> + 'static) -> SimTime {
        self.spawn(fut);
        self.run().expect_quiescent()
    }
}

/// Handle to a pending event scheduled with
/// [`Sim::schedule_cancellable_at`]. Dropping the handle does *not*
/// cancel the event (fire-and-forget remains possible); call
/// [`TimerHandle::cancel`].
pub struct TimerHandle {
    at: SimTime,
    key: TimerKey,
    timers: Rc<RefCell<Timers>>,
}

impl TimerHandle {
    /// The instant the event is scheduled for.
    pub fn deadline(&self) -> SimTime {
        self.at
    }

    /// True while the action has neither fired nor been cancelled.
    pub fn is_armed(&self) -> bool {
        self.timers.borrow().is_armed(self.key)
    }

    /// Cancels the event, dropping its action immediately. Idempotent;
    /// returns whether the action was still pending.
    pub fn cancel(&self) -> bool {
        let action = self.timers.borrow_mut().disarm(self.key);
        action.is_some()
    }
}

/// Future returned by [`Sim::sleep`]. Dropping it before the deadline
/// cancels the underlying calendar entry.
pub struct Sleep {
    key: TimerKey,
    timers: Rc<RefCell<Timers>>,
}

impl Future for Sleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let replaced = {
            let mut timers = self.timers.borrow_mut();
            if !timers.is_armed(self.key) {
                // Fired (the slot was released and may already serve
                // another timer under a newer generation).
                return Poll::Ready(());
            }
            match &mut timers.slots[self.key.slot as usize].state {
                TimerState::Wake(w) if w.as_ref().is_some_and(|w| w.will_wake(cx.waker())) => None,
                TimerState::Wake(w) => w.replace(cx.waker().clone()),
                _ => unreachable!("a sleep's slot holds a waker"),
            }
        };
        drop(replaced);
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        let waker = self.timers.borrow_mut().disarm(self.key);
        drop(waker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        for &t in &[30u64, 10, 20] {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move || log.borrow_mut().push(t));
        }
        let out = sim.run();
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
        assert_eq!(out.end_time, SimTime::from_nanos(30));
        assert_eq!(out.stranded_tasks, 0);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        for i in 0..10u32 {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(5), move || log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sleep_advances_time() {
        let sim = Sim::new();
        let s = sim.clone();
        let end = sim.block_on(async move {
            assert_eq!(s.now(), SimTime::ZERO);
            s.sleep(SimDuration::from_micros(5)).await;
            assert_eq!(s.now().as_nanos(), 5_000);
            s.sleep(SimDuration::from_micros(7)).await;
            assert_eq!(s.now().as_nanos(), 12_000);
        });
        assert_eq!(end.as_nanos(), 12_000);
    }

    #[test]
    fn spawned_tasks_interleave_deterministically() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u32, u64)>>> = Rc::default();
        for i in 0..3u32 {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for step in 0..3u64 {
                    s.sleep(SimDuration::from_nanos(10 + i as u64)).await;
                    log.borrow_mut().push((i, s.now().as_nanos()));
                    let _ = step;
                }
            });
        }
        sim.run().expect_quiescent();
        let got = log.borrow().clone();
        // Task 0 ticks at 10,20,30; task 1 at 11,22,33; task 2 at 12,24,36.
        assert_eq!(
            got,
            vec![
                (0, 10),
                (1, 11),
                (2, 12),
                (0, 20),
                (1, 22),
                (2, 24),
                (0, 30),
                (1, 33),
                (2, 36)
            ]
        );
    }

    #[test]
    fn stranded_task_detected() {
        let sim = Sim::new();
        sim.spawn(async {
            // A future that never resolves: poll once, then pend forever.
            std::future::pending::<()>().await;
        });
        let out = sim.run();
        assert_eq!(out.stranded_tasks, 1);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn expect_quiescent_panics_on_strand() {
        let sim = Sim::new();
        sim.spawn(async {
            std::future::pending::<()>().await;
        });
        sim.run().expect_quiescent();
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn schedule_into_past_panics() {
        let sim = Sim::new();
        sim.schedule_at(SimTime::from_nanos(10), || {});
        let s = sim.clone();
        sim.schedule_at(SimTime::from_nanos(20), move || {
            s.schedule_at(SimTime::from_nanos(15), || {});
        });
        sim.run();
    }

    #[test]
    fn zero_length_sleep_still_yields() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let (l1, l2) = (Rc::clone(&log), Rc::clone(&log));
        let s1 = sim.clone();
        sim.spawn(async move {
            l1.borrow_mut().push("a-before");
            s1.sleep(SimDuration::ZERO).await;
            l1.borrow_mut().push("a-after");
        });
        sim.spawn(async move {
            l2.borrow_mut().push("b");
        });
        sim.run().expect_quiescent();
        assert_eq!(*log.borrow(), vec!["a-before", "b", "a-after"]);
    }

    #[test]
    fn cancelled_timer_neither_fires_nor_advances_the_clock() {
        let sim = Sim::new();
        let fired: Rc<Cell<bool>> = Rc::default();
        let f = Rc::clone(&fired);
        let h = sim.schedule_cancellable_at(SimTime::from_nanos(1_000), move || f.set(true));
        sim.schedule_at(SimTime::from_nanos(10), || {});
        assert!(h.is_armed());
        assert!(h.cancel());
        assert!(!h.is_armed());
        assert!(!h.cancel(), "cancel is idempotent");
        let out = sim.run();
        assert!(!fired.get());
        // The dead entry at t=1000 must not stretch the run.
        assert_eq!(out.end_time, SimTime::from_nanos(10));
    }

    #[test]
    fn fired_timer_disarms_its_handle() {
        let sim = Sim::new();
        let fired: Rc<Cell<bool>> = Rc::default();
        let f = Rc::clone(&fired);
        let h = sim.schedule_cancellable_at(SimTime::from_nanos(5), move || f.set(true));
        let out = sim.run();
        assert!(fired.get());
        assert!(!h.is_armed());
        assert_eq!(out.end_time, SimTime::from_nanos(5));
    }

    /// Satellite regression: cancelled timers used to sit in the
    /// calendar as tombstones until their deadline popped. Under a
    /// cancellation-heavy retry pattern (arm a timeout, succeed, cancel
    /// — the RetryPolicy shape) the calendar grew without bound in the
    /// timeout horizon. Compaction now caps tombstones at roughly the
    /// live entry count, whichever way a timer dies: a cancelled handle,
    /// a dropped sleep, or the deadline of a `timeout` whose future won.
    #[test]
    fn cancellation_storm_is_compacted_out_of_the_calendar() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            let far = SimDuration::from_secs(30);
            let step = SimDuration::from_nanos(50);
            for i in 0..15_000u32 {
                // Arm a far-future deadline, make one unit of progress,
                // then abandon the deadline — the per-attempt pattern of
                // a retrying RPC client.
                match i % 3 {
                    0 => {
                        let timeout = s.schedule_cancellable_after(far, || {
                            panic!("timeout must never fire");
                        });
                        s.sleep(step).await;
                        timeout.cancel();
                    }
                    1 => {
                        let abandoned = s.sleep(far);
                        s.sleep(step).await;
                        drop(abandoned);
                    }
                    _ => {
                        let won = crate::sync::timeout(&s, far, s.sleep(step)).await;
                        assert!(won.is_ok());
                    }
                }
                // The calendar must stay bounded: at most the live
                // entries (one sleep in flight) plus a tombstone
                // fraction below the compaction threshold.
                assert!(
                    s.pending_events() <= 256,
                    "calendar bloated to {} entries",
                    s.pending_events()
                );
            }
        });
        // No abandoned deadline stretches the run.
        let end = sim.run().expect_quiescent();
        assert_eq!(end.as_nanos(), 15_000 * 50);
    }

    /// A sleep dropped before its deadline frees its timer slot at once.
    /// The next sleep reuses the slot under a new generation, whether
    /// its deadline equals the stale entry's or comes later. Each new
    /// sleeper wakes exactly at its own deadline, and the stale entry
    /// neither fires nor advances the clock.
    #[test]
    fn dropped_sleep_slot_is_reused_without_firing_its_stale_entry() {
        let sim = Sim::new();
        let woke: Rc<RefCell<Vec<u64>>> = Rc::default();
        let (s, log) = (sim.clone(), Rc::clone(&woke));
        sim.spawn(async move {
            for (stale_ns, fresh_ns) in [(500, 500), (1_000, 2_000)] {
                let t0 = s.now().as_nanos();
                let stale = s.sleep(SimDuration::from_nanos(stale_ns));
                let stale_key = stale.key;
                drop(stale);
                let fresh = s.sleep(SimDuration::from_nanos(fresh_ns));
                assert_eq!(fresh.key.slot, stale_key.slot, "slot reused at once");
                assert_ne!(fresh.key.gen, stale_key.gen);
                fresh.await;
                assert_eq!(s.now().as_nanos(), t0 + fresh_ns);
                log.borrow_mut().push(s.now().as_nanos());
            }
            // A last abandoned deadline far beyond everything else.
            drop(s.sleep(SimDuration::from_secs(1)));
        });
        let end = sim.run().expect_quiescent();
        assert_eq!(*woke.borrow(), vec![500, 2_500]);
        assert_eq!(end.as_nanos(), 2_500, "a stale entry advanced the clock");
        assert_eq!(sim.pending_events(), 0);
    }

    /// A future that pends until `done` is set, recording every poll and
    /// parking its waker where the test can reach it.
    struct CountedPend {
        polls: Rc<Cell<u32>>,
        done: Rc<Cell<bool>>,
        waker_out: Rc<RefCell<Option<Waker>>>,
    }

    impl Future for CountedPend {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            self.polls.set(self.polls.get() + 1);
            if self.done.get() {
                Poll::Ready(())
            } else {
                *self.waker_out.borrow_mut() = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    /// Satellite regression: before the ready-set dedup, every wake
    /// pushed another queue entry, so a 10k-wake storm between polls
    /// polled the task 10k times (and grew the queue without bound).
    /// With the per-task dedup flag the storm coalesces into exactly one
    /// poll — and only the first wake of the storm touches the mailbox
    /// mutex at all.
    #[test]
    fn wake_storm_between_polls_coalesces_to_one_poll() {
        let sim = Sim::new();
        let polls: Rc<Cell<u32>> = Rc::default();
        let done: Rc<Cell<bool>> = Rc::default();
        let waker: Rc<RefCell<Option<Waker>>> = Rc::default();
        sim.spawn(CountedPend {
            polls: Rc::clone(&polls),
            done: Rc::clone(&done),
            waker_out: Rc::clone(&waker),
        });
        {
            let waker = Rc::clone(&waker);
            sim.schedule_at(SimTime::from_nanos(10), move || {
                let w = waker.borrow().clone().expect("first poll parked a waker");
                for _ in 0..10_000 {
                    w.wake_by_ref();
                }
            });
        }
        {
            let (waker, done) = (Rc::clone(&waker), Rc::clone(&done));
            sim.schedule_at(SimTime::from_nanos(20), move || {
                done.set(true);
                waker.borrow().clone().expect("waker parked").wake();
            });
        }
        sim.run().expect_quiescent();
        // Initial poll + one coalesced storm poll + the completing poll.
        assert_eq!(polls.get(), 3, "wake storm must coalesce to one poll");
    }

    /// A wake that lands after its task completed must be discarded —
    /// even when the task's slab slot has been reused by a new task (the
    /// generation stamp, not the slot index, is the identity).
    #[test]
    fn stale_wake_of_reused_slot_does_not_poll_the_new_occupant() {
        let sim = Sim::new();
        let polls: Rc<Cell<u32>> = Rc::default();
        let done: Rc<Cell<bool>> = Rc::default();
        let stale_waker: Rc<RefCell<Option<Waker>>> = Rc::default();
        {
            // Task 1 completes at t=10, parking its waker outside.
            let s = sim.clone();
            let w = Rc::clone(&stale_waker);
            sim.spawn(async move {
                let sleep = s.sleep(SimDuration::from_nanos(10));
                // Park a clone of our waker where the test can fire it
                // after completion.
                futures_noop_park(&w).await;
                sleep.await;
            });
        }
        // At t=20 (task 1 long gone, its slot reused by task 2), fire the
        // stale waker repeatedly.
        {
            let w = Rc::clone(&stale_waker);
            sim.schedule_at(SimTime::from_nanos(20), move || {
                let waker = w.borrow().clone().expect("waker parked");
                waker.wake_by_ref();
                waker.wake();
            });
        }
        // Task 2 spawns at t=15 — after task 1's slot was freed — and
        // pends on an external flag, counting its polls.
        {
            let sim2 = sim.clone();
            let (polls, done) = (Rc::clone(&polls), Rc::clone(&done));
            sim.schedule_at(SimTime::from_nanos(15), move || {
                sim2.spawn(CountedPend {
                    polls,
                    done,
                    waker_out: Rc::default(),
                });
            });
        }
        {
            let done = Rc::clone(&done);
            sim.schedule_at(SimTime::from_nanos(30), move || done.set(true));
        }
        let out = sim.run();
        // Task 2 is polled at spawn and once when the calendar drains
        // (its own waker never fires; the t=30 event sets done but task 2
        // is only re-polled if something wakes it — the stale wake must
        // NOT be that something).
        assert_eq!(
            polls.get(),
            1,
            "stale wake must not poll the slot's new occupant"
        );
        assert_eq!(out.stranded_tasks, 1, "task 2 legitimately strands");
    }

    /// Awaitable that parks a waker clone into `out` and completes on
    /// the second poll.
    fn futures_noop_park(out: &Rc<RefCell<Option<Waker>>>) -> impl Future<Output = ()> + 'static {
        struct Park {
            out: Rc<RefCell<Option<Waker>>>,
            polled: bool,
        }
        impl Future for Park {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                *self.out.borrow_mut() = Some(cx.waker().clone());
                if self.polled {
                    Poll::Ready(())
                } else {
                    self.polled = true;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        Park {
            out: Rc::clone(out),
            polled: false,
        }
    }

    #[test]
    fn lifo_reverses_same_instant_wake_order() {
        // Three tasks are spawned (= woken) before the run starts, so all
        // three sit in one ready batch; FIFO polls them in wake order,
        // LIFO in reverse.
        let order_under = |policy: SchedPolicy| {
            let sim = Sim::with_policy(policy);
            let log: Rc<RefCell<Vec<u32>>> = Rc::default();
            for i in 0..3u32 {
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    log.borrow_mut().push(i);
                });
            }
            sim.run().expect_quiescent();
            Rc::try_unwrap(log).unwrap().into_inner()
        };
        assert_eq!(order_under(SchedPolicy::Fifo), vec![0, 1, 2]);
        assert_eq!(order_under(SchedPolicy::Lifo), vec![2, 1, 0]);
    }

    #[test]
    fn perturbed_policies_replay_bit_identically_per_seed() {
        let run_under = |policy: SchedPolicy| {
            let sim = Sim::with_policy(policy);
            let log: Rc<RefCell<Vec<(u32, u64)>>> = Rc::default();
            for i in 0..4u32 {
                let s = sim.clone();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    for _ in 0..4u64 {
                        s.sleep(SimDuration::from_nanos(7 + i as u64)).await;
                        log.borrow_mut().push((i, s.now().as_nanos()));
                    }
                });
            }
            sim.run().expect_quiescent();
            Rc::try_unwrap(log).unwrap().into_inner()
        };
        for policy in [
            SchedPolicy::Random { seed: 42 },
            SchedPolicy::WakeDelay {
                seed: 42,
                max_delay_ns: 50,
            },
        ] {
            assert_eq!(run_under(policy), run_under(policy), "{policy:?}");
        }
        // Distinct seeds are allowed to differ (and these do): the point
        // of the perturbation is to explore other legal schedules.
        assert_ne!(
            run_under(SchedPolicy::WakeDelay {
                seed: 1,
                max_delay_ns: 50
            }),
            run_under(SchedPolicy::WakeDelay {
                seed: 2,
                max_delay_ns: 50
            }),
        );
    }

    #[test]
    fn wake_delay_defers_at_most_once_and_stays_quiescent() {
        // Heavy deferral pressure must not strand tasks or livelock: every
        // deferral is a calendar entry, so the run loop drains them all.
        let sim = Sim::with_policy(SchedPolicy::WakeDelay {
            seed: 7,
            max_delay_ns: 1_000,
        });
        let hits: Rc<Cell<u32>> = Rc::default();
        for _ in 0..8 {
            let s = sim.clone();
            let hits = Rc::clone(&hits);
            sim.spawn(async move {
                for _ in 0..8 {
                    s.sleep(SimDuration::from_nanos(3)).await;
                }
                hits.set(hits.get() + 1);
            });
        }
        sim.run().expect_quiescent();
        assert_eq!(hits.get(), 8);
    }

    #[test]
    fn tasks_spawned_from_events_run() {
        let sim = Sim::new();
        let hit: Rc<Cell<bool>> = Rc::default();
        let s = sim.clone();
        let h = Rc::clone(&hit);
        sim.schedule_at(SimTime::from_nanos(100), move || {
            let h = Rc::clone(&h);
            let s2 = s.clone();
            s.spawn(async move {
                s2.sleep(SimDuration::from_nanos(1)).await;
                h.set(true);
            });
        });
        sim.run().expect_quiescent();
        assert!(hit.get());
    }

    /// Slot reuse bookkeeping: ordinals keep counting up (they are the
    /// trace lane ids), generations advance per reuse, and `live_tasks`
    /// tracks spawn/complete exactly.
    #[test]
    fn slab_reuses_slots_with_fresh_generations_and_stable_ordinals() {
        let sim = Sim::new();
        let mut ids = Vec::new();
        for wave in 0..3u64 {
            for i in 0..4u64 {
                let id = sim.spawn(async {});
                assert_eq!(id.as_u64(), wave * 4 + i, "ordinals are spawn order");
                ids.push(id);
            }
            assert_eq!(sim.live_tasks(), 4);
            sim.run().expect_quiescent();
            assert_eq!(sim.live_tasks(), 0);
        }
        // All 12 TaskIds must be distinct even though only 4 slots exist.
        for a in 0..ids.len() {
            for b in (a + 1)..ids.len() {
                assert_ne!(ids[a], ids[b]);
            }
        }
    }
}
