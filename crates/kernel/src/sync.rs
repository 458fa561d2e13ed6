//! Synchronization primitives for simulated processes.
//!
//! These mirror the primitives the modelled systems rely on: FIFO
//! semaphores (service queues at DAOS targets), barriers (MPI-style
//! synchronization in IOR), one-shot completions and unbounded channels.
//! All of them are single-threaded (`Rc`-based) and strictly FIFO, which
//! keeps runs deterministic.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemWaiter {
    n: usize,
    granted: Cell<bool>,
    cancelled: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

struct SemInner {
    permits: Cell<usize>,
    waiters: RefCell<VecDeque<Rc<SemWaiter>>>,
}

impl SemInner {
    /// Hands permits to queued waiters in FIFO order. A large request at
    /// the head blocks smaller ones behind it (no barging), which is the
    /// behaviour wanted for modelling service queues.
    fn drain(&self) {
        loop {
            let front = {
                let waiters = self.waiters.borrow();
                match waiters.front() {
                    Some(w) if w.cancelled.get() => Some(None),
                    Some(w) if w.n <= self.permits.get() => Some(Some(Rc::clone(w))),
                    _ => None,
                }
            };
            match front {
                Some(Some(w)) => {
                    self.waiters.borrow_mut().pop_front();
                    self.permits.set(self.permits.get() - w.n);
                    w.granted.set(true);
                    if let Some(waker) = w.waker.borrow_mut().take() {
                        waker.wake();
                    }
                }
                Some(None) => {
                    self.waiters.borrow_mut().pop_front();
                }
                None => break,
            }
        }
    }
}

/// A FIFO counting semaphore.
///
/// ```
/// use daosim_kernel::{Sim, SimDuration};
/// use daosim_kernel::sync::Semaphore;
///
/// let sim = Sim::new();
/// let sem = Semaphore::new(1); // a single-server service queue
/// for _ in 0..3 {
///     let (s, m) = (sim.clone(), sem.clone());
///     sim.spawn(async move {
///         let _permit = m.acquire_one().await;
///         s.sleep(SimDuration::from_micros(10)).await; // service time
///     });
/// }
/// // Three requests serialize: 30 us total.
/// assert_eq!(sim.run().expect_quiescent().as_nanos(), 30_000);
/// ```
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<SemInner>,
}

impl Semaphore {
    pub fn new(permits: usize) -> Self {
        Semaphore {
            inner: Rc::new(SemInner {
                permits: Cell::new(permits),
                waiters: RefCell::new(VecDeque::new()),
            }),
        }
    }

    pub fn available(&self) -> usize {
        self.inner.permits.get()
    }

    /// Number of requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.inner
            .waiters
            .borrow()
            .iter()
            .filter(|w| !w.cancelled.get())
            .count()
    }

    /// Acquires `n` permits, waiting FIFO behind earlier requests. The
    /// returned guard releases the permits when dropped.
    pub fn acquire(&self, n: usize) -> Acquire {
        Acquire {
            sem: self.clone(),
            n,
            waiter: None,
        }
    }

    /// Acquires a single permit.
    pub fn acquire_one(&self) -> Acquire {
        self.acquire(1)
    }

    fn release(&self, n: usize) {
        self.inner.permits.set(self.inner.permits.get() + n);
        self.inner.drain();
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
    n: usize,
    waiter: Option<Rc<SemWaiter>>,
}

impl Future for Acquire {
    type Output = SemPermit;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<SemPermit> {
        let this = &mut *self;
        if let Some(w) = &this.waiter {
            if w.granted.get() {
                this.waiter = None;
                return Poll::Ready(SemPermit {
                    sem: this.sem.clone(),
                    n: this.n,
                });
            }
            *w.waker.borrow_mut() = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let inner = &this.sem.inner;
        if inner.waiters.borrow().is_empty() && inner.permits.get() >= this.n {
            inner.permits.set(inner.permits.get() - this.n);
            return Poll::Ready(SemPermit {
                sem: this.sem.clone(),
                n: this.n,
            });
        }
        let waiter = Rc::new(SemWaiter {
            n: this.n,
            granted: Cell::new(false),
            cancelled: Cell::new(false),
            waker: RefCell::new(Some(cx.waker().clone())),
        });
        inner.waiters.borrow_mut().push_back(Rc::clone(&waiter));
        this.waiter = Some(waiter);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(w) = self.waiter.take() {
            if w.granted.get() {
                // Granted but never observed: hand the permits back.
                self.sem.release(self.n);
            } else {
                // Remove the queue slot immediately and re-drain: a
                // cancelled waiter at the head (e.g. a big request whose
                // retry timeout fired) must not keep blocking grantable
                // waiters behind it until some unrelated release happens.
                w.cancelled.set(true);
                self.sem
                    .inner
                    .waiters
                    .borrow_mut()
                    .retain(|q| !Rc::ptr_eq(q, &w));
                self.sem.inner.drain();
            }
        }
    }
}

/// Permits held on a [`Semaphore`]; released on drop.
pub struct SemPermit {
    sem: Semaphore,
    n: usize,
}

impl Drop for SemPermit {
    fn drop(&mut self) {
        self.sem.release(self.n);
    }
}

// ---------------------------------------------------------------------------
// PrioritySemaphore
// ---------------------------------------------------------------------------

/// How a [`PrioritySemaphore`] picks the next waiter to admit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Strict arrival order across every class. Grant order (and therefore
    /// simulated timing) is byte-identical to a plain [`Semaphore`].
    #[default]
    Fifo,
    /// Urgent-class waiters (deadline-carrying writers) are admitted ahead
    /// of normal-class waiters. `aging` bounds starvation: once `aging`
    /// consecutive urgent grants have been made while a normal waiter sat
    /// queued, the next grant is forced to the normal lane's oldest
    /// waiter. Values below 1 behave as 1.
    WriterPriority { aging: u32 },
}

impl AdmissionPolicy {
    /// Default anti-starvation credit for [`Self::writer_priority`].
    pub const DEFAULT_AGING: u32 = 4;

    /// `WriterPriority` with the default aging credit.
    pub fn writer_priority() -> Self {
        AdmissionPolicy::WriterPriority {
            aging: Self::DEFAULT_AGING,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::Fifo => "fifo",
            AdmissionPolicy::WriterPriority { .. } => "writer-priority",
        }
    }

    /// Parses the CLI spelling (`fifo` / `writer-priority`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fifo" => Some(AdmissionPolicy::Fifo),
            "writer-priority" => Some(Self::writer_priority()),
            _ => None,
        }
    }
}

/// The admission lane a waiter queues in. The kernel does not know about
/// QoS classes; callers map their traffic classes onto these two lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionClass {
    /// Deadline-carrying traffic: admitted first under
    /// [`AdmissionPolicy::WriterPriority`].
    Urgent,
    /// Everything else.
    #[default]
    Normal,
}

fn lane_of(class: AdmissionClass) -> usize {
    match class {
        AdmissionClass::Urgent => 0,
        AdmissionClass::Normal => 1,
    }
}

struct PrioWaiter {
    n: usize,
    /// Global arrival order across both lanes; the FIFO tie-break.
    seq: u64,
    class: AdmissionClass,
    granted: Cell<bool>,
    cancelled: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

struct PrioInner {
    policy: AdmissionPolicy,
    permits: Cell<usize>,
    next_seq: Cell<u64>,
    /// `lanes[0]` = urgent, `lanes[1]` = normal (see [`lane_of`]).
    lanes: [RefCell<VecDeque<Rc<PrioWaiter>>>; 2],
    /// Consecutive urgent grants made while a normal waiter sat queued.
    credit: Cell<u32>,
    /// Grants forced to the normal lane by the aging credit.
    aged_grants: Cell<u64>,
}

impl PrioInner {
    /// Drops cancelled waiters off the front of `lane` and returns its
    /// live head.
    fn head(&self, lane: usize) -> Option<Rc<PrioWaiter>> {
        let mut q = self.lanes[lane].borrow_mut();
        while q.front().is_some_and(|w| w.cancelled.get()) {
            q.pop_front();
        }
        q.front().cloned()
    }

    /// The waiter the policy would admit next, with its lane. Deterministic:
    /// within a lane FIFO by `seq`; across lanes either global `seq` order
    /// (Fifo) or urgent-first with the aging override (WriterPriority).
    fn pick(&self) -> Option<(usize, Rc<PrioWaiter>)> {
        match (self.head(0), self.head(1)) {
            (None, None) => None,
            (Some(w), None) => Some((0, w)),
            (None, Some(w)) => Some((1, w)),
            (Some(urgent), Some(normal)) => match self.policy {
                AdmissionPolicy::Fifo => {
                    if urgent.seq < normal.seq {
                        Some((0, urgent))
                    } else {
                        Some((1, normal))
                    }
                }
                AdmissionPolicy::WriterPriority { aging } => {
                    if self.credit.get() >= aging.max(1) {
                        Some((1, normal))
                    } else {
                        Some((0, urgent))
                    }
                }
            },
        }
    }

    /// Hands permits to waiters in policy order. The selected head blocks
    /// smaller requests behind it (no barging within the grant order),
    /// exactly like [`SemInner::drain`].
    fn drain(&self) {
        loop {
            let Some((lane, w)) = self.pick() else { break };
            if w.n > self.permits.get() {
                break;
            }
            self.lanes[lane].borrow_mut().pop_front();
            self.permits.set(self.permits.get() - w.n);
            w.granted.set(true);
            if let AdmissionPolicy::WriterPriority { aging } = self.policy {
                if lane == 0 {
                    let normal_waiting = self.lanes[1].borrow().iter().any(|q| !q.cancelled.get());
                    if normal_waiting {
                        self.credit.set(self.credit.get().saturating_add(1));
                    } else {
                        self.credit.set(0);
                    }
                } else {
                    if self.credit.get() >= aging.max(1) {
                        self.aged_grants.set(self.aged_grants.get() + 1);
                    }
                    self.credit.set(0);
                }
            }
            let waker = w.waker.borrow_mut().take();
            if let Some(waker) = waker {
                waker.wake();
            }
        }
    }
}

/// A counting semaphore with per-class FIFO lanes and a pluggable
/// admission policy — the QoS enforcement point for target service
/// queues.
///
/// Under [`AdmissionPolicy::Fifo`] the grant order is global arrival
/// order (unique `(class, seq)` tie-break), byte-identical to a plain
/// [`Semaphore`]. Under [`AdmissionPolicy::WriterPriority`] urgent
/// waiters go first, with an aging credit so normal waiters are never
/// starved forever. Dropping a pending [`PrioAcquire`] (a cancelled
/// retry attempt) removes its queue slot immediately and re-drains.
#[derive(Clone)]
pub struct PrioritySemaphore {
    inner: Rc<PrioInner>,
}

impl PrioritySemaphore {
    pub fn new(permits: usize, policy: AdmissionPolicy) -> Self {
        PrioritySemaphore {
            inner: Rc::new(PrioInner {
                policy,
                permits: Cell::new(permits),
                next_seq: Cell::new(0),
                lanes: [RefCell::new(VecDeque::new()), RefCell::new(VecDeque::new())],
                credit: Cell::new(0),
                aged_grants: Cell::new(0),
            }),
        }
    }

    /// A FIFO-admission instance (the default policy).
    pub fn fifo(permits: usize) -> Self {
        Self::new(permits, AdmissionPolicy::Fifo)
    }

    pub fn policy(&self) -> AdmissionPolicy {
        self.inner.policy
    }

    pub fn available(&self) -> usize {
        self.inner.permits.get()
    }

    /// Number of live requests queued across both lanes.
    pub fn queue_len(&self) -> usize {
        self.inner
            .lanes
            .iter()
            .map(|l| l.borrow().iter().filter(|w| !w.cancelled.get()).count())
            .sum()
    }

    /// Grants the aging credit forced to the normal lane so far — the
    /// anti-starvation counter surfaced in QoS metrics.
    pub fn aged_grants(&self) -> u64 {
        self.inner.aged_grants.get()
    }

    /// Acquires `n` permits in `class`'s lane. The returned guard
    /// releases the permits when dropped.
    pub fn acquire(&self, n: usize, class: AdmissionClass) -> PrioAcquire {
        PrioAcquire {
            sem: self.clone(),
            n,
            class,
            waiter: None,
        }
    }

    /// Acquires a single permit in `class`'s lane.
    pub fn acquire_one(&self, class: AdmissionClass) -> PrioAcquire {
        self.acquire(1, class)
    }

    fn release(&self, n: usize) {
        self.inner.permits.set(self.inner.permits.get() + n);
        self.inner.drain();
    }
}

/// Future returned by [`PrioritySemaphore::acquire`].
pub struct PrioAcquire {
    sem: PrioritySemaphore,
    n: usize,
    class: AdmissionClass,
    waiter: Option<Rc<PrioWaiter>>,
}

impl Future for PrioAcquire {
    type Output = PrioPermit;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<PrioPermit> {
        let this = &mut *self;
        if let Some(w) = &this.waiter {
            if w.granted.get() {
                this.waiter = None;
                return Poll::Ready(PrioPermit {
                    sem: this.sem.clone(),
                    n: this.n,
                });
            }
            *w.waker.borrow_mut() = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let inner = &this.sem.inner;
        let seq = inner.next_seq.get();
        inner.next_seq.set(seq + 1);
        if this.n <= inner.permits.get() && inner.head(0).is_none() && inner.head(1).is_none() {
            // Uncontended: `drain()` would grant this lone waiter on the
            // spot. Apply exactly its bookkeeping without queueing one.
            inner.permits.set(inner.permits.get() - this.n);
            if let AdmissionPolicy::WriterPriority { aging } = inner.policy {
                if this.class == AdmissionClass::Normal && inner.credit.get() >= aging.max(1) {
                    inner.aged_grants.set(inner.aged_grants.get() + 1);
                }
                inner.credit.set(0);
            }
            return Poll::Ready(PrioPermit {
                sem: this.sem.clone(),
                n: this.n,
            });
        }
        let waiter = Rc::new(PrioWaiter {
            n: this.n,
            seq,
            class: this.class,
            granted: Cell::new(false),
            cancelled: Cell::new(false),
            waker: RefCell::new(None),
        });
        inner.lanes[lane_of(this.class)]
            .borrow_mut()
            .push_back(Rc::clone(&waiter));
        inner.drain();
        if waiter.granted.get() {
            // Drained synchronously (an urgent arrival admitted past a
            // blocked normal head): no wake round-trip.
            return Poll::Ready(PrioPermit {
                sem: this.sem.clone(),
                n: this.n,
            });
        }
        *waiter.waker.borrow_mut() = Some(cx.waker().clone());
        this.waiter = Some(waiter);
        Poll::Pending
    }
}

impl Drop for PrioAcquire {
    fn drop(&mut self) {
        if let Some(w) = self.waiter.take() {
            if w.granted.get() {
                // Granted but never observed: hand the permits back.
                self.sem.release(self.n);
            } else {
                // Cancellation-safe removal: free the slot now and
                // re-drain so a cancelled head cannot swallow the wakeup
                // destined for the waiter behind it.
                w.cancelled.set(true);
                self.sem.inner.lanes[lane_of(w.class)]
                    .borrow_mut()
                    .retain(|q| !Rc::ptr_eq(q, &w));
                self.sem.inner.drain();
            }
        }
    }
}

/// Permits held on a [`PrioritySemaphore`]; released on drop.
pub struct PrioPermit {
    sem: PrioritySemaphore,
    n: usize,
}

impl Drop for PrioPermit {
    fn drop(&mut self) {
        self.sem.release(self.n);
    }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

struct BarrierInner {
    parties: usize,
    arrived: Cell<usize>,
    generation: Cell<u64>,
    wakers: RefCell<Vec<Waker>>,
}

/// An MPI-style reusable barrier for `parties` tasks.
///
/// ```
/// use daosim_kernel::{Sim, SimDuration};
/// use daosim_kernel::sync::Barrier;
///
/// let sim = Sim::new();
/// let bar = Barrier::new(2);
/// for i in 1..=2u64 {
///     let (s, b) = (sim.clone(), bar.clone());
///     sim.spawn(async move {
///         s.sleep(SimDuration::from_micros(i)).await;
///         b.wait().await; // both released when the slower one arrives
///         assert_eq!(s.now().as_nanos(), 2_000);
///     });
/// }
/// sim.run().expect_quiescent();
/// ```
#[derive(Clone)]
pub struct Barrier {
    inner: Rc<BarrierInner>,
}

impl Barrier {
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        Barrier {
            inner: Rc::new(BarrierInner {
                parties,
                arrived: Cell::new(0),
                generation: Cell::new(0),
                wakers: RefCell::new(Vec::new()),
            }),
        }
    }

    pub fn parties(&self) -> usize {
        self.inner.parties
    }

    /// Waits until all parties have called `wait` for this generation.
    pub fn wait(&self) -> BarrierWait {
        let inner = &self.inner;
        let gen = inner.generation.get();
        let arrived = inner.arrived.get() + 1;
        if arrived == inner.parties {
            inner.arrived.set(0);
            inner.generation.set(gen + 1);
            for w in inner.wakers.borrow_mut().drain(..) {
                w.wake();
            }
        } else {
            inner.arrived.set(arrived);
        }
        BarrierWait {
            barrier: self.clone(),
            generation: gen,
        }
    }
}

/// Future returned by [`Barrier::wait`].
pub struct BarrierWait {
    barrier: Barrier,
    generation: u64,
}

impl Future for BarrierWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.barrier.inner.generation.get() > self.generation {
            Poll::Ready(())
        } else {
            self.barrier
                .inner
                .wakers
                .borrow_mut()
                .push(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Oneshot completion
// ---------------------------------------------------------------------------

struct OneshotInner<T> {
    value: RefCell<Option<T>>,
    waker: RefCell<Option<Waker>>,
}

/// Creates a one-shot completion pair.
pub fn oneshot<T: 'static>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let inner = Rc::new(OneshotInner {
        value: RefCell::new(None),
        waker: RefCell::new(None),
    });
    (
        OneshotSender {
            inner: Rc::clone(&inner),
        },
        OneshotReceiver { inner },
    )
}

pub struct OneshotSender<T> {
    inner: Rc<OneshotInner<T>>,
}

impl<T> OneshotSender<T> {
    pub fn send(self, value: T) {
        *self.inner.value.borrow_mut() = Some(value);
        if let Some(w) = self.inner.waker.borrow_mut().take() {
            w.wake();
        }
    }
}

pub struct OneshotReceiver<T> {
    inner: Rc<OneshotInner<T>>,
}

impl<T> Future for OneshotReceiver<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        if let Some(v) = self.inner.value.borrow_mut().take() {
            Poll::Ready(v)
        } else {
            *self.inner.waker.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Unbounded channel
// ---------------------------------------------------------------------------

struct ChannelInner<T> {
    queue: RefCell<VecDeque<T>>,
    waker: RefCell<Option<Waker>>,
    senders: Cell<usize>,
}

/// Creates an unbounded single-consumer channel.
pub fn channel<T: 'static>() -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(ChannelInner {
        queue: RefCell::new(VecDeque::new()),
        waker: RefCell::new(None),
        senders: Cell::new(1),
    });
    (
        Sender {
            inner: Rc::clone(&inner),
        },
        Receiver { inner },
    )
}

pub struct Sender<T> {
    inner: Rc<ChannelInner<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.senders.set(self.inner.senders.get() + 1);
        Sender {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let left = self.inner.senders.get() - 1;
        self.inner.senders.set(left);
        if left == 0 {
            if let Some(w) = self.inner.waker.borrow_mut().take() {
                w.wake();
            }
        }
    }
}

impl<T> Sender<T> {
    pub fn send(&self, value: T) {
        self.inner.queue.borrow_mut().push_back(value);
        if let Some(w) = self.inner.waker.borrow_mut().take() {
            w.wake();
        }
    }
}

pub struct Receiver<T> {
    inner: Rc<ChannelInner<T>>,
}

impl<T> Receiver<T> {
    /// Receives the next value; resolves to `None` when every sender has
    /// been dropped and the queue is empty.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { rx: self }
    }
}

pub struct Recv<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let inner = &self.rx.inner;
        if let Some(v) = inner.queue.borrow_mut().pop_front() {
            return Poll::Ready(Some(v));
        }
        if inner.senders.get() == 0 {
            return Poll::Ready(None);
        }
        *inner.waker.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// join_all
// ---------------------------------------------------------------------------

/// Drives a set of futures concurrently within one task and collects their
/// outputs in input order. This is how one simulated process issues
/// parallel stripe transfers.
pub fn join_all<F: Future>(futures: Vec<F>) -> JoinAll<F> {
    JoinAll {
        slots: futures
            .into_iter()
            .map(|f| JoinSlot::Pending(Box::pin(f)))
            .collect(),
    }
}

enum JoinSlot<F: Future> {
    Pending(Pin<Box<F>>),
    Done(Option<F::Output>),
}

pub struct JoinAll<F: Future> {
    slots: Vec<JoinSlot<F>>,
}

impl<F: Future> Future for JoinAll<F> {
    type Output = Vec<F::Output>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<F::Output>> {
        // Safety: the inner futures are heap-pinned (`Pin<Box<F>>`); nothing
        // here moves out of a pinned future.
        let this = unsafe { self.get_unchecked_mut() };
        let mut all_done = true;
        for slot in &mut this.slots {
            if let JoinSlot::Pending(fut) = slot {
                match fut.as_mut().poll(cx) {
                    Poll::Ready(v) => *slot = JoinSlot::Done(Some(v)),
                    Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            let outs = this
                .slots
                .iter_mut()
                .map(|s| match s {
                    JoinSlot::Done(v) => v.take().expect("join_all polled after completion"),
                    JoinSlot::Pending(_) => unreachable!(),
                })
                .collect();
            Poll::Ready(outs)
        } else {
            Poll::Pending
        }
    }
}

/// Drives two futures concurrently within one task and resolves with both
/// outputs — [`join_all`] for a fixed pair, without its `Vec` and boxes.
/// Each poll polls the left future, then the right, skipping a finished
/// one, which is the order `join_all` polls its slots in.
pub fn join2<A: Future, B: Future>(a: A, b: B) -> Join2<A, B> {
    Join2 {
        a: JoinHalf::Pending(a),
        b: JoinHalf::Pending(b),
    }
}

enum JoinHalf<F: Future> {
    Pending(F),
    Done(Option<F::Output>),
}

impl<F: Future> JoinHalf<F> {
    /// Polls a pending half; true once its output is in.
    fn poll_half(self: Pin<&mut Self>, cx: &mut Context<'_>) -> bool {
        // SAFETY: a pending future is never moved out of its half. It is
        // polled where it lies and, once ready, dropped in place when the
        // half is overwritten with its output; the output itself is not
        // pinned.
        let this = unsafe { self.get_unchecked_mut() };
        if let JoinHalf::Pending(f) = this {
            // SAFETY: `f` stays inside the pinned half, as argued above.
            match unsafe { Pin::new_unchecked(f) }.poll(cx) {
                Poll::Ready(v) => *this = JoinHalf::Done(Some(v)),
                Poll::Pending => return false,
            }
        }
        true
    }

    fn take(&mut self) -> F::Output {
        match self {
            JoinHalf::Done(v) => v.take().expect("join2 polled after completion"),
            JoinHalf::Pending(_) => unreachable!(),
        }
    }
}

/// Future returned by [`join2`].
pub struct Join2<A: Future, B: Future> {
    a: JoinHalf<A>,
    b: JoinHalf<B>,
}

impl<A: Future, B: Future> Future for Join2<A, B> {
    type Output = (A::Output, B::Output);
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pinning of the two halves: `Join2` never
        // moves them, and `take` only moves an output out of a finished one.
        let this = unsafe { self.get_unchecked_mut() };
        let a_done = unsafe { Pin::new_unchecked(&mut this.a) }.poll_half(cx);
        let b_done = unsafe { Pin::new_unchecked(&mut this.b) }.poll_half(cx);
        if a_done && b_done {
            Poll::Ready((this.a.take(), this.b.take()))
        } else {
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// race / WaitGroup
// ---------------------------------------------------------------------------

/// Polls two futures concurrently; resolves with the first to finish
/// (`Either::Left` on ties, since the left side is polled first). The
/// loser is dropped, cancelling it; dropped sleeps disarm their calendar
/// entries, so an abandoned contestant leaves no trace on the clock.
pub fn race<A: Future, B: Future>(a: A, b: B) -> Race<A, B> {
    Race {
        a: Box::pin(a),
        b: Box::pin(b),
    }
}

/// Which contestant of a [`race`] won.
#[derive(Debug, PartialEq, Eq)]
pub enum Either<A, B> {
    Left(A),
    Right(B),
}

pub struct Race<A: Future, B: Future> {
    a: Pin<Box<A>>,
    b: Pin<Box<B>>,
}

impl<A: Future, B: Future> Future for Race<A, B> {
    type Output = Either<A::Output, B::Output>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // Safety: contestants stay heap-pinned; nothing moves out of them.
        let this = unsafe { self.get_unchecked_mut() };
        if let Poll::Ready(v) = this.a.as_mut().poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = this.b.as_mut().poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    }
}

/// Runs `fut` with a simulated-time deadline: `Ok(value)` if it resolves
/// within `limit`, `Err(Elapsed)` otherwise (the future is dropped, i.e.
/// cancelled). The deadline is armed as a *cancellable* calendar timer:
/// when the future wins — or the `Timeout` itself is dropped — the timer
/// is cancelled and leaves no trace on the clock, so wrapping fast
/// operations in generous deadlines does not stretch the simulation's
/// end time.
pub fn timeout<F: Future>(
    sim: &crate::executor::Sim,
    limit: crate::time::SimDuration,
    fut: F,
) -> Timeout<F> {
    Timeout {
        fut: Box::pin(fut),
        deadline: Some(sim.sleep(limit)),
    }
}

/// Error returned when a [`timeout`] deadline passes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

pub struct Timeout<F: Future> {
    fut: Pin<Box<F>>,
    /// The deadline, a slab timer like any [`crate::Sleep`]; dropping
    /// it disarms the calendar entry.
    deadline: Option<crate::executor::Sleep>,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // The wrapped future gets the first look, so a same-instant
        // completion beats the deadline (left-biased, like `race`).
        if let Poll::Ready(v) = self.fut.as_mut().poll(cx) {
            self.deadline = None;
            return Poll::Ready(Ok(v));
        }
        let elapsed = match self.deadline.as_mut() {
            Some(d) => Pin::new(d).poll(cx).is_ready(),
            None => true,
        };
        if elapsed {
            Poll::Ready(Err(Elapsed))
        } else {
            Poll::Pending
        }
    }
}

struct WaitGroupInner {
    count: Cell<usize>,
    wakers: RefCell<Vec<Waker>>,
}

/// Counts outstanding work; `wait` resolves when the count reaches zero.
/// The idiomatic way for an orchestrator task to join a set of spawned
/// simulated processes.
#[derive(Clone)]
pub struct WaitGroup {
    inner: Rc<WaitGroupInner>,
}

impl Default for WaitGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitGroup {
    pub fn new() -> Self {
        WaitGroup {
            inner: Rc::new(WaitGroupInner {
                count: Cell::new(0),
                wakers: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Registers one unit of outstanding work; the returned token
    /// completes it on drop.
    pub fn add(&self) -> WorkToken {
        self.inner.count.set(self.inner.count.get() + 1);
        WorkToken {
            inner: Rc::clone(&self.inner),
        }
    }

    pub fn outstanding(&self) -> usize {
        self.inner.count.get()
    }

    /// Resolves once every token has been dropped.
    pub fn wait(&self) -> WaitGroupWait {
        WaitGroupWait {
            inner: Rc::clone(&self.inner),
        }
    }
}

/// One unit of outstanding [`WaitGroup`] work.
pub struct WorkToken {
    inner: Rc<WaitGroupInner>,
}

impl Drop for WorkToken {
    fn drop(&mut self) {
        let left = self.inner.count.get() - 1;
        self.inner.count.set(left);
        if left == 0 {
            for w in self.inner.wakers.borrow_mut().drain(..) {
                w.wake();
            }
        }
    }
}

pub struct WaitGroupWait {
    inner: Rc<WaitGroupInner>,
}

impl Future for WaitGroupWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.inner.count.get() == 0 {
            Poll::Ready(())
        } else {
            self.inner.wakers.borrow_mut().push(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::{SimDuration, SimTime};
    use std::rc::Rc;

    #[test]
    fn semaphore_serializes_fifo() {
        let sim = Sim::new();
        let sem = Semaphore::new(1);
        let log: Rc<RefCell<Vec<(u32, u64)>>> = Rc::default();
        for i in 0..4u32 {
            let (s, sem, log) = (sim.clone(), sem.clone(), Rc::clone(&log));
            sim.spawn(async move {
                // Stagger arrivals so the queue order is well-defined.
                s.sleep(SimDuration::from_nanos(i as u64)).await;
                let _permit = sem.acquire_one().await;
                log.borrow_mut().push((i, s.now().as_nanos()));
                s.sleep(SimDuration::from_nanos(100)).await;
            });
        }
        sim.run().expect_quiescent();
        let got = log.borrow().clone();
        assert_eq!(got.len(), 4);
        // FIFO: tasks enter in arrival order, each 100ns apart.
        assert_eq!(got[0], (0, 0));
        assert_eq!(got[1], (1, 100));
        assert_eq!(got[2], (2, 200));
        assert_eq!(got[3], (3, 300));
    }

    #[test]
    fn semaphore_multi_permit_no_barging() {
        let sim = Sim::new();
        let sem = Semaphore::new(2);
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let (s1, m1, l1) = (sim.clone(), sem.clone(), Rc::clone(&log));
        sim.spawn(async move {
            let _p = m1.acquire(2).await;
            l1.borrow_mut().push("big-in");
            s1.sleep(SimDuration::from_nanos(50)).await;
            l1.borrow_mut().push("big-out");
        });
        let (s2, m2, l2) = (sim.clone(), sem.clone(), Rc::clone(&log));
        sim.spawn(async move {
            s2.sleep(SimDuration::from_nanos(1)).await;
            // Queued behind nothing, but only 0 permits free until big-out.
            let _p = m2.acquire(1).await;
            l2.borrow_mut().push("small");
        });
        sim.run().expect_quiescent();
        assert_eq!(*log.borrow(), vec!["big-in", "big-out", "small"]);
    }

    #[test]
    fn semaphore_cancelled_waiter_is_skipped() {
        let sim = Sim::new();
        let sem = Semaphore::new(0);
        {
            // Create and immediately drop a pending acquire.
            let mut acq = sem.acquire(1);
            let waker = Waker::noop();
            let mut cx = Context::from_waker(waker);
            assert!(Pin::new(&mut acq).poll(&mut cx).is_pending());
        }
        assert_eq!(sem.queue_len(), 0);
        let hit: Rc<Cell<bool>> = Rc::default();
        let (m, h) = (sem.clone(), Rc::clone(&hit));
        sim.spawn(async move {
            let _p = m.acquire_one().await;
            h.set(true);
        });
        sem.release(1);
        sim.run().expect_quiescent();
        assert!(hit.get());
    }

    #[test]
    fn cancelled_oversized_waiter_unblocks_queue() {
        // A waiter whose request can never be granted (n > permits) is
        // dropped while queued; the waiter behind it must be admitted
        // without any further release() happening.
        let sim = Sim::new();
        let sem = Semaphore::new(1);
        let mut big = sem.acquire(2);
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        assert!(Pin::new(&mut big).poll(&mut cx).is_pending());
        let hit: Rc<Cell<bool>> = Rc::default();
        let (m, h) = (sem.clone(), Rc::clone(&hit));
        sim.spawn(async move {
            let _p = m.acquire_one().await;
            h.set(true);
        });
        drop(big);
        assert_eq!(sem.queue_len(), 0);
        sim.run().expect_quiescent();
        assert!(
            hit.get(),
            "cancelled head swallowed the next waiter's wakeup"
        );
    }

    /// Staggered arrivals through `sem`, one task per entry of `plan`
    /// (`(class, hold_ns)`), logging `(task, grant_time)`.
    fn prio_grant_log(
        sim: &Sim,
        sem: &PrioritySemaphore,
        plan: &[(AdmissionClass, u64)],
    ) -> Vec<(u32, u64)> {
        let log: Rc<RefCell<Vec<(u32, u64)>>> = Rc::default();
        for (i, &(class, hold)) in plan.iter().enumerate() {
            let (s, m, log) = (sim.clone(), sem.clone(), Rc::clone(&log));
            sim.spawn(async move {
                s.sleep(SimDuration::from_nanos(i as u64)).await;
                let _p = m.acquire_one(class).await;
                log.borrow_mut().push((i as u32, s.now().as_nanos()));
                s.sleep(SimDuration::from_nanos(hold)).await;
            });
        }
        sim.run().expect_quiescent();
        Rc::try_unwrap(log).unwrap().into_inner()
    }

    #[test]
    fn priority_fifo_matches_plain_semaphore() {
        // Under AdmissionPolicy::Fifo the (class, seq) tie-break reduces
        // to global arrival order: grant times must match the plain
        // Semaphore exactly, whatever the class mix.
        let plan: Vec<(AdmissionClass, u64)> = (0..6)
            .map(|i| {
                let class = if i % 2 == 0 {
                    AdmissionClass::Urgent
                } else {
                    AdmissionClass::Normal
                };
                (class, 100)
            })
            .collect();
        let sim = Sim::new();
        let got = prio_grant_log(&sim, &PrioritySemaphore::fifo(1), &plan);
        let plain = Sim::new();
        let sem = Semaphore::new(1);
        let log: Rc<RefCell<Vec<(u32, u64)>>> = Rc::default();
        for (i, &(_, hold)) in plan.iter().enumerate() {
            let (s, m, log) = (plain.clone(), sem.clone(), Rc::clone(&log));
            plain.spawn(async move {
                s.sleep(SimDuration::from_nanos(i as u64)).await;
                let _p = m.acquire_one().await;
                log.borrow_mut().push((i as u32, s.now().as_nanos()));
                s.sleep(SimDuration::from_nanos(hold)).await;
            });
        }
        plain.run().expect_quiescent();
        assert_eq!(got, log.borrow().clone());
    }

    #[test]
    fn writer_priority_admits_urgent_before_earlier_normals() {
        // Normals arrive first (tasks 1..3), the urgent writer last
        // (task 4); while task 0 holds the permit the urgent waiter
        // jumps the whole normal lane.
        let plan = vec![
            (AdmissionClass::Normal, 100),
            (AdmissionClass::Normal, 100),
            (AdmissionClass::Normal, 100),
            (AdmissionClass::Normal, 100),
            (AdmissionClass::Urgent, 100),
        ];
        let sim = Sim::new();
        let sem = PrioritySemaphore::new(1, AdmissionPolicy::WriterPriority { aging: 10 });
        let got = prio_grant_log(&sim, &sem, &plan);
        let order: Vec<u32> = got.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, vec![0, 4, 1, 2, 3]);
    }

    #[test]
    fn aging_credit_unstarves_the_normal_lane() {
        // One normal waiter queued at t=1 behind a stream of urgent
        // holders; with aging = 2 it must be admitted after exactly two
        // urgent grants made while it waited, and the forced grant is
        // counted.
        let plan = vec![
            (AdmissionClass::Urgent, 100), // holds [1, 101]
            (AdmissionClass::Normal, 100),
            (AdmissionClass::Urgent, 100),
            (AdmissionClass::Urgent, 100),
            (AdmissionClass::Urgent, 100),
            (AdmissionClass::Urgent, 100),
        ];
        let sim = Sim::new();
        let sem = PrioritySemaphore::new(1, AdmissionPolicy::WriterPriority { aging: 2 });
        let got = prio_grant_log(&sim, &sem, &plan);
        let order: Vec<u32> = got.iter().map(|&(i, _)| i).collect();
        // Two urgent grants accrue credit, then the normal waiter goes,
        // then the remaining urgents.
        assert_eq!(order, vec![0, 2, 3, 1, 4, 5]);
        assert_eq!(sem.aged_grants(), 1);
    }

    #[test]
    fn priority_cancelled_urgent_head_admits_normal() {
        // Mirror of cancelled_oversized_waiter_unblocked for the
        // priority lanes: an unsatisfiable urgent request is dropped and
        // the normal lane must be admitted with no release().
        let sim = Sim::new();
        let sem = PrioritySemaphore::new(1, AdmissionPolicy::writer_priority());
        let mut big = sem.acquire(2, AdmissionClass::Urgent);
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        assert!(Pin::new(&mut big).poll(&mut cx).is_pending());
        let hit: Rc<Cell<bool>> = Rc::default();
        let (m, h) = (sem.clone(), Rc::clone(&hit));
        sim.spawn(async move {
            let _p = m.acquire_one(AdmissionClass::Normal).await;
            h.set(true);
        });
        drop(big);
        assert_eq!(sem.queue_len(), 0);
        sim.run().expect_quiescent();
        assert!(hit.get());
        assert_eq!(
            sem.available(),
            1,
            "permit returned when the task's guard dropped"
        );
    }

    #[test]
    fn uncontended_grant_keeps_the_aging_bookkeeping() {
        // The queue-free grant must count exactly what `drain()` counts
        // for a lone waiter: here the credit an urgent grant earned past
        // a normal waiter outlives that waiter's cancellation, so the
        // next (uncontended) normal grant is an aged one.
        let sem = PrioritySemaphore::new(1, AdmissionPolicy::WriterPriority { aging: 1 });
        let mut cx = Context::from_waker(Waker::noop());
        let mut poll = |acq: &mut PrioAcquire| Pin::new(acq).poll(&mut cx);
        let Poll::Ready(first) = poll(&mut sem.acquire_one(AdmissionClass::Urgent)) else {
            panic!("uncontended urgent acquire pends");
        };
        let mut normal = sem.acquire_one(AdmissionClass::Normal);
        let mut urgent = sem.acquire_one(AdmissionClass::Urgent);
        assert!(poll(&mut normal).is_pending());
        assert!(poll(&mut urgent).is_pending());
        drop(first); // urgent jumps the normal waiter: credit 1
        let Poll::Ready(second) = poll(&mut urgent) else {
            panic!("urgent waiter not granted");
        };
        drop(normal);
        drop(second);
        assert_eq!(
            (sem.queue_len(), sem.available(), sem.aged_grants()),
            (0, 1, 0)
        );
        let Poll::Ready(third) = poll(&mut sem.acquire_one(AdmissionClass::Normal)) else {
            panic!("uncontended normal acquire pends");
        };
        assert_eq!(sem.aged_grants(), 1);
        drop(third);
        // The credit was reset: the next normal grant is not aged.
        drop(poll(&mut sem.acquire_one(AdmissionClass::Normal)));
        assert_eq!((sem.available(), sem.aged_grants()), (1, 1));
    }

    #[test]
    fn admission_policy_parse_roundtrip() {
        assert_eq!(AdmissionPolicy::parse("fifo"), Some(AdmissionPolicy::Fifo));
        assert_eq!(
            AdmissionPolicy::parse("writer-priority"),
            Some(AdmissionPolicy::WriterPriority {
                aging: AdmissionPolicy::DEFAULT_AGING
            })
        );
        assert_eq!(AdmissionPolicy::parse("lifo"), None);
        assert_eq!(AdmissionPolicy::Fifo.name(), "fifo");
        assert_eq!(AdmissionPolicy::writer_priority().name(), "writer-priority");
    }

    #[test]
    fn barrier_releases_all_parties_together() {
        let sim = Sim::new();
        let bar = Barrier::new(3);
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        for i in 0..3u64 {
            let (s, b, log) = (sim.clone(), bar.clone(), Rc::clone(&log));
            sim.spawn(async move {
                s.sleep(SimDuration::from_nanos(10 * (i + 1))).await;
                b.wait().await;
                log.borrow_mut().push(s.now().as_nanos());
            });
        }
        sim.run().expect_quiescent();
        // All released at the last arrival (t=30).
        assert_eq!(*log.borrow(), vec![30, 30, 30]);
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let sim = Sim::new();
        let bar = Barrier::new(2);
        let count: Rc<Cell<u32>> = Rc::default();
        for i in 0..2u64 {
            let (s, b, c) = (sim.clone(), bar.clone(), Rc::clone(&count));
            sim.spawn(async move {
                for round in 0..5u64 {
                    s.sleep(SimDuration::from_nanos(1 + i * round)).await;
                    b.wait().await;
                    c.set(c.get() + 1);
                }
            });
        }
        sim.run().expect_quiescent();
        assert_eq!(count.get(), 10);
    }

    #[test]
    fn oneshot_delivers() {
        let sim = Sim::new();
        let (tx, rx) = oneshot::<u32>();
        let s = sim.clone();
        sim.spawn(async move {
            assert_eq!(rx.await, 42);
            assert_eq!(s.now().as_nanos(), 99);
        });
        sim.schedule_at(crate::time::SimTime::from_nanos(99), move || tx.send(42));
        sim.run().expect_quiescent();
    }

    #[test]
    fn channel_closes_when_senders_drop() {
        let sim = Sim::new();
        let (tx, mut rx) = channel::<u32>();
        let s = sim.clone();
        sim.spawn(async move {
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            assert_eq!(got, vec![1, 2, 3]);
            let _ = s;
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            for v in 1..=3 {
                tx.send(v);
                s2.sleep(SimDuration::from_nanos(5)).await;
            }
            // tx dropped here -> receiver sees None.
        });
        sim.run().expect_quiescent();
    }

    #[test]
    fn race_picks_the_faster_future() {
        let sim = Sim::new();
        let s = sim.clone();
        let end = sim.block_on(async move {
            let fast = {
                let s = s.clone();
                async move {
                    s.sleep(SimDuration::from_nanos(10)).await;
                    "fast"
                }
            };
            let slow = {
                let s = s.clone();
                async move {
                    s.sleep(SimDuration::from_nanos(100)).await;
                    "slow"
                }
            };
            let resolved_at = {
                let r = race(slow, fast).await;
                match r {
                    Either::Right(v) => assert_eq!(v, "fast"),
                    Either::Left(v) => panic!("slow future won: {v}"),
                }
                s.now().as_nanos()
            };
            // The race resolved at the fast contestant's time.
            assert_eq!(resolved_at, 10);
        });
        // The loser's sleep is dropped with the race, cancelling its
        // calendar entry: the abandoned deadline does not stretch the run.
        assert_eq!(end.as_nanos(), 10);
    }

    #[test]
    fn race_prefers_left_on_tie() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            let a = {
                let s = s.clone();
                async move { s.sleep(SimDuration::from_nanos(5)).await }
            };
            let b = {
                let s = s.clone();
                async move { s.sleep(SimDuration::from_nanos(5)).await }
            };
            assert!(matches!(race(a, b).await, Either::Left(())));
        });
    }

    #[test]
    fn timeout_resolves_or_elapses() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            // Completes in time.
            let quick = {
                let s = s.clone();
                async move {
                    s.sleep(SimDuration::from_nanos(10)).await;
                    7u32
                }
            };
            assert_eq!(
                timeout(&s, SimDuration::from_nanos(100), quick).await,
                Ok(7)
            );
            // Misses the deadline.
            let slow = {
                let s = s.clone();
                async move {
                    s.sleep(SimDuration::from_micros(1)).await;
                    7u32
                }
            };
            assert_eq!(
                timeout(&s, SimDuration::from_nanos(100), slow).await,
                Err(Elapsed)
            );
        });
    }

    #[test]
    fn timeout_leaves_no_calendar_residue_when_op_completes() {
        // A generous deadline around a fast operation must not stretch the
        // simulation's end time: the timer is cancelled when the op wins.
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            let quick = {
                let s = s.clone();
                async move {
                    s.sleep(SimDuration::from_nanos(10)).await;
                    1u32
                }
            };
            let r = timeout(&s, SimDuration::from_millis(5), quick).await;
            assert_eq!(r, Ok(1));
        });
        let outcome = sim.run();
        assert_eq!(outcome.end_time, SimTime::from_nanos(10));
    }

    #[test]
    fn waitgroup_joins_all_tokens() {
        let sim = Sim::new();
        let wg = WaitGroup::new();
        let done_at: Rc<Cell<u64>> = Rc::default();
        for i in 1..=4u64 {
            let token = wg.add();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_nanos(i * 10)).await;
                drop(token);
            });
        }
        {
            let (wg, s, done_at) = (wg.clone(), sim.clone(), Rc::clone(&done_at));
            sim.spawn(async move {
                wg.wait().await;
                done_at.set(s.now().as_nanos());
            });
        }
        assert_eq!(wg.outstanding(), 4);
        sim.run().expect_quiescent();
        assert_eq!(done_at.get(), 40);
        assert_eq!(wg.outstanding(), 0);
    }

    #[test]
    fn waitgroup_with_no_work_resolves_immediately() {
        let sim = Sim::new();
        let wg = WaitGroup::new();
        let end = sim.block_on(async move {
            wg.wait().await;
        });
        assert_eq!(end.as_nanos(), 0);
    }

    #[test]
    fn join_all_waits_for_slowest() {
        let sim = Sim::new();
        let s = sim.clone();
        let end = sim.block_on(async move {
            let futs = (1..=4u64)
                .map(|i| {
                    let s = s.clone();
                    async move {
                        s.sleep(SimDuration::from_nanos(i * 10)).await;
                        i
                    }
                })
                .collect::<Vec<_>>();
            let outs = join_all(futs).await;
            assert_eq!(outs, vec![1, 2, 3, 4]);
        });
        assert_eq!(end.as_nanos(), 40);
    }

    /// Logs its id on every poll of the wrapped future.
    struct Logged<F: ?Sized> {
        id: u32,
        log: Rc<RefCell<Vec<u32>>>,
        fut: Pin<Box<F>>,
    }

    impl<F: Future + ?Sized> Future for Logged<F> {
        type Output = F::Output;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
            self.log.borrow_mut().push(self.id);
            self.fut.as_mut().poll(cx)
        }
    }

    #[test]
    fn join2_polls_in_join_all_order() {
        // Left wakes at 10 and 30, right at 20: each wake polls the left
        // half (while pending), then the right one. `join_all` over the
        // same pair must produce the same poll log and end time.
        let run = |pair: bool| {
            let sim = Sim::new();
            let log: Rc<RefCell<Vec<u32>>> = Rc::default();
            let (s, l) = (sim.clone(), Rc::clone(&log));
            let end = sim.block_on(async move {
                let left = {
                    let s = s.clone();
                    async move {
                        s.sleep(SimDuration::from_nanos(10)).await;
                        s.sleep(SimDuration::from_nanos(20)).await;
                        'l'
                    }
                };
                let right = {
                    let s = s.clone();
                    async move {
                        s.sleep(SimDuration::from_nanos(20)).await;
                        'r'
                    }
                };
                let (left, right) = (
                    Logged {
                        id: 0,
                        log: Rc::clone(&l),
                        fut: Box::pin(left) as Pin<Box<dyn Future<Output = char>>>,
                    },
                    Logged {
                        id: 1,
                        log: Rc::clone(&l),
                        fut: Box::pin(right) as Pin<Box<dyn Future<Output = char>>>,
                    },
                );
                let out = if pair {
                    let (a, b) = join2(left, right).await;
                    vec![a, b]
                } else {
                    join_all(vec![left, right]).await
                };
                assert_eq!(out, vec!['l', 'r']);
            });
            (Rc::try_unwrap(log).unwrap().into_inner(), end)
        };
        let (log, end) = run(true);
        assert_eq!(log, vec![0, 1, 0, 1, 0, 1, 0]);
        assert_eq!(end.as_nanos(), 30);
        assert_eq!((log, end), run(false));
    }

    #[test]
    fn join_all_empty_is_immediate() {
        let sim = Sim::new();
        let end = sim.block_on(async move {
            let outs: Vec<u32> = join_all(Vec::<std::future::Ready<u32>>::new()).await;
            assert!(outs.is_empty());
        });
        assert_eq!(end.as_nanos(), 0);
    }
}
