//! The client API surface shared by every backend.
//!
//! The paper's field I/O functions are written against the DAOS C API;
//! here the same operation set is a trait so the functions run unchanged
//! over (a) the embedded in-memory store — instantaneous, for real use
//! and correctness testing — and (b) the simulated cluster — where each
//! operation charges modelled time.
//!
//! Methods are `async`: the embedded backend completes immediately, the
//! simulated one suspends the calling task on network and service events.
//!
//! Two layers sit on top of the blocking operation set:
//!
//! * [`ArrayHandle`] — the typed open-array handle. `array_open` returns
//!   one and `array_close` consumes it, so use-after-close and
//!   double-close are unrepresentable at compile time (the handle is
//!   neither `Clone` nor `Copy`).
//! * [`EventQueue`] — the `daos_eq`-style asynchronous layer: launch N
//!   operations, then `poll`/`wait` on completions while they progress
//!   concurrently. See DESIGN.md §6 for the mapping onto
//!   `daos_eq_create`/`daos_event_t`.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use bytes::Bytes;

use crate::array::{extent_end, read_extent_end};
use crate::container::Container;
use crate::error::{DaosError, Result};
use crate::oid::{ObjectClass, Oid};
use crate::pool::Pool;

pub use crate::uuid::Uuid;

/// A boxed operation future, as handed to [`DaosApi::spawn_op`]. The
/// future is `'static` and owns everything it touches; it resolves to
/// `()` because completion is reported through the [`EventQueue`] that
/// submitted it.
pub type OpFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// An open Array object handle.
///
/// Returned by `array_create`/`array_open`/`array_open_or_create` and
/// consumed (by value) by `array_close`. The type is deliberately not
/// `Clone`/`Copy`: a closed handle cannot be used again, and a handle
/// cannot be closed twice, mirroring `daos_array_close` invalidating the
/// `daos_handle_t`.
#[must_use = "an open array handle must eventually be passed to array_close"]
#[derive(Debug, PartialEq, Eq)]
pub struct ArrayHandle {
    oid: Oid,
}

impl ArrayHandle {
    /// The object id this handle refers to (for index entries, punch and
    /// listing — operations that outlive the open handle).
    pub fn oid(&self) -> Oid {
        self.oid
    }

    /// Mints a handle for an array the backend has just opened. Backends
    /// and the event-queue helpers need this; application code should
    /// only ever receive handles from `array_open*`.
    #[doc(hidden)]
    pub fn from_open(oid: Oid) -> Self {
        ArrayHandle { oid }
    }
}

/// The DAOS operation set the field I/O layer consumes.
#[allow(async_fn_in_trait)]
pub trait DaosApi: Clone + 'static {
    /// Opaque open-container handle.
    type Cont: Clone + 'static;

    /// Opens container `uuid`, creating it if absent — the race-safe
    /// create-or-open the md5-derived container scheme relies on.
    async fn cont_open_or_create(&self, uuid: Uuid) -> Result<Self::Cont>;

    /// Opens an existing container.
    async fn cont_open(&self, uuid: Uuid) -> Result<Self::Cont>;

    /// Key-Value update (creates the KV object on first use).
    async fn kv_put(&self, cont: &Self::Cont, oid: Oid, key: &[u8], value: Bytes) -> Result<()>;

    /// Vectorized Key-Value update: all pairs land in one request, which
    /// the store services as a batch (one round trip, one serial-section
    /// charge on the simulated backend). Semantically identical to
    /// issuing the `kv_put`s in order.
    async fn kv_put_multi(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        pairs: Vec<(Bytes, Bytes)>,
    ) -> Result<()> {
        for (key, value) in pairs {
            self.kv_put(cont, oid, &key, value).await?;
        }
        Ok(())
    }

    /// Key-Value fetch; `None` when the key (or the KV itself) is absent.
    async fn kv_get(&self, cont: &Self::Cont, oid: Oid, key: &[u8]) -> Result<Option<Bytes>>;

    /// Conditional Key-Value insert: writes `key` only if it is absent
    /// and returns the previously-present value when the insert loses.
    /// Backends make the check-and-insert atomic (one serial section at
    /// the object's leader), which is what makes racing `DFS`
    /// create/mkdir calls converge on a single winning dirent. The
    /// default implementation is a non-atomic get-then-put fallback for
    /// backends without conditional updates.
    async fn kv_put_if_absent(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        key: &[u8],
        value: Bytes,
    ) -> Result<Option<Bytes>> {
        if let Some(existing) = self.kv_get(cont, oid, key).await? {
            return Ok(Some(existing));
        }
        self.kv_put(cont, oid, key, value).await?;
        Ok(None)
    }

    /// Key-Value key removal (`daos_kv_remove`). Removing an absent key
    /// — or a key of a never-written KV — is a successful no-op.
    async fn kv_remove(&self, cont: &Self::Cont, oid: Oid, key: &[u8]) -> Result<()>;

    /// Lists the keys of a Key-Value object.
    async fn kv_list_keys(&self, cont: &Self::Cont, oid: Oid) -> Result<Vec<Bytes>>;

    /// Lists the keys of a Key-Value object in `[from, until)`
    /// (`until = None` means unbounded) — the server-side range scan
    /// behind prefix listings, one RPC regardless of how much of the key
    /// space it skips. The default implementation filters a full
    /// listing; backends with ordered storage override it with a real
    /// range scan.
    async fn kv_list_range(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        from: Bytes,
        until: Option<Bytes>,
    ) -> Result<Vec<Bytes>> {
        let keys = self.kv_list_keys(cont, oid).await?;
        Ok(keys
            .into_iter()
            .filter(|k| **k >= *from && until.as_ref().is_none_or(|end| **k < **end))
            .collect())
    }

    /// Creates a new Array object, returning its open handle.
    async fn array_create(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle>;

    /// Opens an existing Array object.
    async fn array_open(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle>;

    /// Opens an Array object, creating it if absent (`no-index` re-write
    /// path, where the md5-derived oid is stable).
    async fn array_open_or_create(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle>;

    /// Writes an extent of an open Array object.
    async fn array_write(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        offset: u64,
        data: Bytes,
    ) -> Result<()>;

    /// Scatter-gather write: every `(offset, data)` extent lands in one
    /// request, serviced as a batch. Semantically identical to issuing
    /// the `array_write`s in order.
    async fn array_write_vec(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        iovs: Vec<(u64, Bytes)>,
    ) -> Result<()> {
        for (offset, data) in iovs {
            self.array_write(cont, handle, offset, data).await?;
        }
        Ok(())
    }

    /// Reads an extent of an open Array object.
    async fn array_read(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        offset: u64,
        len: u64,
    ) -> Result<Bytes>;

    /// Size (one past highest written byte) of an open Array object.
    async fn array_size(&self, cont: &Self::Cont, handle: &ArrayHandle) -> Result<u64>;

    /// Closes an Array object handle, consuming it.
    async fn array_close(&self, cont: &Self::Cont, handle: ArrayHandle) -> Result<()>;

    /// Drops an object's contents.
    async fn obj_punch(&self, cont: &Self::Cont, oid: Oid) -> Result<()>;

    /// Lists the Array objects in a container (reclamation/tooling).
    async fn list_array_objects(&self, cont: &Self::Cont) -> Result<Vec<Oid>>;

    /// Number of targets in the pool backing this client (placement and
    /// striping need it).
    fn pool_targets(&self) -> u32;

    /// Launches `op` as an independently progressing unit of work — the
    /// execution primitive under the [`EventQueue`]. The embedded backend
    /// completes the future inline (its operations never suspend); the
    /// simulated backend spawns a kernel task, so in-flight operations
    /// genuinely overlap in simulated time.
    fn spawn_op(&self, op: OpFuture);
}

/// Allocates unique object ids for one client process: the 96 user bits
/// are `(client id, counter)`, so ids never collide across processes.
#[derive(Debug)]
pub struct OidAllocator {
    client: u32,
    next: u64,
}

impl OidAllocator {
    pub fn new(client: u32) -> Self {
        OidAllocator { client, next: 0 }
    }

    pub fn next(&mut self, class: ObjectClass) -> Oid {
        let oid = Oid::generate(self.client, self.next, class);
        self.next += 1;
        oid
    }
}

// ---------------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------------

/// Identifies one launched operation on an [`EventQueue`] — the
/// `daos_event_t` analogue. Ids are unique per queue and returned in the
/// completion stream so callers can correlate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Event(pub u64);

/// The value an asynchronously launched operation resolved to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutput {
    /// Operations that return `()` (puts, writes, punch, close).
    Unit,
    /// `array_read`.
    Data(Bytes),
    /// `kv_get`.
    MaybeData(Option<Bytes>),
    /// `kv_list_keys` / `kv_list_range`.
    Keys(Vec<Bytes>),
    /// `array_size`.
    Size(u64),
}

struct EqInner {
    next: Cell<u64>,
    in_flight: Cell<usize>,
    completed: RefCell<VecDeque<(Event, Result<OpOutput>)>>,
    waiters: RefCell<Vec<Waker>>,
    /// Set by [`EventQueue::abort`] (explicitly, or from the last user
    /// handle's drop). In-flight wrappers observe it at their next poll
    /// and resolve with [`DaosError::Cancelled`] instead of running on.
    cancelled: Cell<bool>,
    /// Waker of each in-flight operation wrapper, sorted by event id, so
    /// `abort` can reach tasks parked deep inside an operation and wakes
    /// them in launch order.
    op_wakers: RefCell<Vec<(Event, Waker)>>,
}

impl EqInner {
    /// Files `waker` as the one `abort` wakes for `ev`, replacing the
    /// registered one only when it would wake a different task.
    fn register(&self, ev: Event, waker: &Waker) {
        let mut wakers = self.op_wakers.borrow_mut();
        match wakers.binary_search_by_key(&ev, |&(id, _)| id) {
            Ok(i) if wakers[i].1.will_wake(waker) => {}
            Ok(i) => wakers[i].1 = waker.clone(),
            Err(i) => wakers.insert(i, (ev, waker.clone())),
        }
    }

    fn unregister(&self, ev: Event) {
        let mut wakers = self.op_wakers.borrow_mut();
        if let Ok(i) = wakers.binary_search_by_key(&ev, |&(id, _)| id) {
            wakers.remove(i);
        }
    }

    fn push_completion(&self, ev: Event, out: Result<OpOutput>) {
        self.in_flight.set(self.in_flight.get() - 1);
        self.completed.borrow_mut().push_back((ev, out));
        for w in self.waiters.borrow_mut().drain(..) {
            w.wake();
        }
    }
}

/// Wrapper future around one launched operation: forwards to the real
/// operation until the queue is cancelled, then drops it (cancelling any
/// timers/permits it held) and resolves the event with
/// [`DaosError::Cancelled`]. Registers its waker with the queue on every
/// poll so [`EventQueue::abort`] can wake it out of a park. The operation
/// future lives inline, so launching one costs one box.
struct AbortableOp<F> {
    ev: Event,
    inner: Rc<EqInner>,
    fut: F,
}

impl<F: Future<Output = Result<OpOutput>>> Future for AbortableOp<F> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: structural pinning of `fut`: it is polled where it lies
        // and never moved out; `ev` and `inner` are not pinned.
        let this = unsafe { self.get_unchecked_mut() };
        if this.inner.cancelled.get() {
            this.inner
                .push_completion(this.ev, Err(DaosError::Cancelled));
            return Poll::Ready(());
        }
        this.inner.register(this.ev, cx.waker());
        // SAFETY: `fut` stays inside the pinned wrapper, as argued above.
        match unsafe { Pin::new_unchecked(&mut this.fut) }.poll(cx) {
            Poll::Ready(out) => {
                this.inner.unregister(this.ev);
                this.inner.push_completion(this.ev, out);
                Poll::Ready(())
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

/// A `daos_eq`-style event queue over any [`DaosApi`] backend.
///
/// `submit` (or the typed helpers) launches an operation and returns an
/// [`Event`]; completions are harvested with [`poll`](EventQueue::poll)
/// (non-blocking), [`wait`](EventQueue::wait) (suspends until one
/// completes) or [`wait_all`](EventQueue::wait_all). On the simulated
/// backend every in-flight operation is its own kernel task, so network
/// transfer and media service of different operations overlap, each op
/// carrying its own retry/deadline budget, spans and metrics.
pub struct EventQueue<D: DaosApi> {
    client: D,
    inner: Rc<EqInner>,
    /// Counts *user-facing* handles only (operation wrappers hold
    /// `EqInner` but never this token), so the drop of the last clone is
    /// detectable and triggers [`EventQueue::abort`].
    handle: Rc<()>,
}

impl<D: DaosApi> Clone for EventQueue<D> {
    fn clone(&self) -> Self {
        EventQueue {
            client: self.client.clone(),
            inner: Rc::clone(&self.inner),
            handle: Rc::clone(&self.handle),
        }
    }
}

impl<D: DaosApi> Drop for EventQueue<D> {
    /// Dropping the last user handle destroys the queue
    /// (`daos_eq_destroy`): outstanding operations are cancelled rather
    /// than left running as orphaned kernel tasks.
    fn drop(&mut self) {
        if Rc::strong_count(&self.handle) == 1 {
            self.abort();
        }
    }
}

impl<D: DaosApi> EventQueue<D> {
    /// Creates an empty queue over `client` (`daos_eq_create`).
    pub fn new(client: D) -> Self {
        EventQueue {
            client,
            inner: Rc::new(EqInner {
                next: Cell::new(0),
                in_flight: Cell::new(0),
                completed: RefCell::new(VecDeque::new()),
                waiters: RefCell::new(Vec::new()),
                cancelled: Cell::new(false),
                op_wakers: RefCell::new(Vec::new()),
            }),
            handle: Rc::new(()),
        }
    }

    /// Destroys the queue (`daos_eq_destroy`): every in-flight operation
    /// is woken, dropped without running further (releasing any timers or
    /// permits it held), and resolved as [`DaosError::Cancelled`] in the
    /// completion stream. Later submissions fail the same way without
    /// spawning anything. Idempotent; also runs implicitly when the last
    /// user handle is dropped.
    pub fn abort(&self) {
        if self.inner.cancelled.replace(true) {
            return;
        }
        // Launch order: the cancelled completions land in event order.
        let wakers = std::mem::take(&mut *self.inner.op_wakers.borrow_mut());
        for (_, w) in wakers {
            w.wake();
        }
        // Waiters re-poll: they drain cancelled completions as they land.
        for w in self.inner.waiters.borrow_mut().drain(..) {
            w.wake();
        }
    }

    /// Whether [`EventQueue::abort`] has run (explicitly or via drop).
    pub fn is_aborted(&self) -> bool {
        self.inner.cancelled.get()
    }

    /// The backend this queue launches operations on.
    pub fn client(&self) -> &D {
        &self.client
    }

    /// Number of launched operations that have not yet completed.
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.get()
    }

    /// Number of completions waiting to be harvested.
    pub fn completed(&self) -> usize {
        self.inner.completed.borrow().len()
    }

    /// Launches an arbitrary operation future. Prefer the typed helpers;
    /// this is the extension point for composite operations (e.g. the
    /// field writer's create-write-close + index-put pair).
    pub fn submit(&self, fut: impl Future<Output = Result<OpOutput>> + 'static) -> Event {
        let ev = Event(self.inner.next.get());
        self.inner.next.set(ev.0 + 1);
        if self.inner.cancelled.get() {
            // Destroyed queue: fail the event without spawning.
            self.inner
                .completed
                .borrow_mut()
                .push_back((ev, Err(DaosError::Cancelled)));
            return ev;
        }
        self.inner.in_flight.set(self.inner.in_flight.get() + 1);
        self.client.spawn_op(Box::pin(AbortableOp {
            ev,
            inner: Rc::clone(&self.inner),
            fut,
        }));
        ev
    }

    /// Harvests one completion without blocking (`daos_eq_poll` with a
    /// zero timeout). `None` means nothing has completed since the last
    /// harvest — operations may still be in flight.
    pub fn poll(&self) -> Option<(Event, Result<OpOutput>)> {
        self.inner.completed.borrow_mut().pop_front()
    }

    /// Suspends until one completion is available and returns it
    /// (`daos_eq_poll` with an infinite timeout). Returns `None` iff the
    /// queue is idle: nothing in flight and nothing to harvest.
    pub fn wait(&self) -> EqWait {
        EqWait {
            inner: Rc::clone(&self.inner),
        }
    }

    /// Waits for every in-flight operation and returns all unharvested
    /// completions in completion order.
    pub async fn wait_all(&self) -> Vec<(Event, Result<OpOutput>)> {
        let mut out = Vec::new();
        while let Some(c) = self.wait().await {
            out.push(c);
        }
        out
    }

    /// Suspends until fewer than `limit` operations are in flight,
    /// returning every completion harvested along the way (in completion
    /// order) so the caller's bookkeeping sees each event exactly once.
    ///
    /// This is the windowed-submission primitive: unlike an open-coded
    /// `while in_flight() >= limit { wait().await }` loop, the whole wait
    /// is one future, parked on the queue's waiter list and advanced only
    /// by completions — there is no ready/recheck cycle for a perturbed
    /// scheduler to spin or livelock.
    pub fn wait_capacity(&self, limit: usize) -> EqCapacity {
        EqCapacity {
            inner: Rc::clone(&self.inner),
            limit: limit.max(1),
            harvested: Vec::new(),
        }
    }

    // -- typed launch helpers ----------------------------------------------

    /// Launches a `kv_put`.
    pub fn kv_put(&self, cont: &D::Cont, oid: Oid, key: &[u8], value: Bytes) -> Event {
        let (client, cont, key) = (self.client.clone(), cont.clone(), key.to_vec());
        self.submit(async move {
            client
                .kv_put(&cont, oid, &key, value)
                .await
                .map(|()| OpOutput::Unit)
        })
    }

    /// Launches a vectorized `kv_put_multi`.
    pub fn kv_put_multi(&self, cont: &D::Cont, oid: Oid, pairs: Vec<(Bytes, Bytes)>) -> Event {
        let (client, cont) = (self.client.clone(), cont.clone());
        self.submit(async move {
            client
                .kv_put_multi(&cont, oid, pairs)
                .await
                .map(|()| OpOutput::Unit)
        })
    }

    /// Launches a `kv_get`; completes with [`OpOutput::MaybeData`].
    pub fn kv_get(&self, cont: &D::Cont, oid: Oid, key: &[u8]) -> Event {
        let (client, cont, key) = (self.client.clone(), cont.clone(), key.to_vec());
        self.submit(async move {
            client
                .kv_get(&cont, oid, &key)
                .await
                .map(OpOutput::MaybeData)
        })
    }

    /// Launches a `kv_list_keys`; completes with [`OpOutput::Keys`].
    pub fn kv_list_keys(&self, cont: &D::Cont, oid: Oid) -> Event {
        let (client, cont) = (self.client.clone(), cont.clone());
        self.submit(async move { client.kv_list_keys(&cont, oid).await.map(OpOutput::Keys) })
    }

    /// Launches a `kv_list_range`; completes with [`OpOutput::Keys`].
    pub fn kv_list_range(
        &self,
        cont: &D::Cont,
        oid: Oid,
        from: Bytes,
        until: Option<Bytes>,
    ) -> Event {
        let (client, cont) = (self.client.clone(), cont.clone());
        self.submit(async move {
            client
                .kv_list_range(&cont, oid, from, until)
                .await
                .map(OpOutput::Keys)
        })
    }

    /// Launches an `array_write` against an open handle. The operation
    /// borrows the handle's identity, not the handle itself, so the
    /// caller keeps it to close after completion.
    pub fn array_write(
        &self,
        cont: &D::Cont,
        handle: &ArrayHandle,
        offset: u64,
        data: Bytes,
    ) -> Event {
        let (client, cont) = (self.client.clone(), cont.clone());
        let h = ArrayHandle::from_open(handle.oid());
        self.submit(async move {
            client
                .array_write(&cont, &h, offset, data)
                .await
                .map(|()| OpOutput::Unit)
        })
    }

    /// Launches a scatter-gather `array_write_vec`.
    pub fn array_write_vec(
        &self,
        cont: &D::Cont,
        handle: &ArrayHandle,
        iovs: Vec<(u64, Bytes)>,
    ) -> Event {
        let (client, cont) = (self.client.clone(), cont.clone());
        let h = ArrayHandle::from_open(handle.oid());
        self.submit(async move {
            client
                .array_write_vec(&cont, &h, iovs)
                .await
                .map(|()| OpOutput::Unit)
        })
    }

    /// Launches an `array_read`; completes with [`OpOutput::Data`].
    pub fn array_read(&self, cont: &D::Cont, handle: &ArrayHandle, offset: u64, len: u64) -> Event {
        let (client, cont) = (self.client.clone(), cont.clone());
        let h = ArrayHandle::from_open(handle.oid());
        self.submit(async move {
            client
                .array_read(&cont, &h, offset, len)
                .await
                .map(OpOutput::Data)
        })
    }

    /// Launches an `array_size`; completes with [`OpOutput::Size`].
    pub fn array_size(&self, cont: &D::Cont, handle: &ArrayHandle) -> Event {
        let (client, cont) = (self.client.clone(), cont.clone());
        let h = ArrayHandle::from_open(handle.oid());
        self.submit(async move { client.array_size(&cont, &h).await.map(OpOutput::Size) })
    }
}

/// Future returned by [`EventQueue::wait`].
pub struct EqWait {
    inner: Rc<EqInner>,
}

impl Future for EqWait {
    type Output = Option<(Event, Result<OpOutput>)>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Some(c) = self.inner.completed.borrow_mut().pop_front() {
            return Poll::Ready(Some(c));
        }
        if self.inner.in_flight.get() == 0 {
            return Poll::Ready(None);
        }
        self.inner.waiters.borrow_mut().push(cx.waker().clone());
        Poll::Pending
    }
}

/// Future returned by [`EventQueue::wait_capacity`]: resolves with the
/// completions harvested while waiting for the in-flight count to drop
/// below the limit.
pub struct EqCapacity {
    inner: Rc<EqInner>,
    limit: usize,
    harvested: Vec<(Event, Result<OpOutput>)>,
}

impl Future for EqCapacity {
    type Output = Vec<(Event, Result<OpOutput>)>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        // Harvest everything available first: completions seen by this
        // future must reach the caller even if capacity already opened,
        // or per-event bookkeeping would leak them.
        while let Some(c) = this.inner.completed.borrow_mut().pop_front() {
            this.harvested.push(c);
        }
        if this.inner.in_flight.get() < this.limit {
            return Poll::Ready(std::mem::take(&mut this.harvested));
        }
        this.inner.waiters.borrow_mut().push(cx.waker().clone());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Embedded backend
// ---------------------------------------------------------------------------

/// The embedded (in-process, instantaneous) backend over one pool.
#[derive(Clone)]
pub struct EmbeddedClient {
    pool: Arc<Pool>,
}

impl EmbeddedClient {
    pub fn new(pool: Arc<Pool>) -> Self {
        EmbeddedClient { pool }
    }

    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }
}

impl DaosApi for EmbeddedClient {
    type Cont = Arc<Container>;

    async fn cont_open_or_create(&self, uuid: Uuid) -> Result<Self::Cont> {
        self.pool.cont_open_or_create(uuid)
    }

    async fn cont_open(&self, uuid: Uuid) -> Result<Self::Cont> {
        self.pool.cont_open(uuid)
    }

    async fn kv_put(&self, cont: &Self::Cont, oid: Oid, key: &[u8], value: Bytes) -> Result<()> {
        self.pool.charge((key.len() + value.len()) as u64)?;
        cont.kv_put(oid, key, value).map(|_| ())
    }

    async fn kv_put_multi(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        pairs: Vec<(Bytes, Bytes)>,
    ) -> Result<()> {
        let bytes: usize = pairs.iter().map(|(k, v)| k.len() + v.len()).sum();
        self.pool.charge(bytes as u64)?;
        cont.kv_put_multi(oid, pairs)
    }

    async fn kv_get(&self, cont: &Self::Cont, oid: Oid, key: &[u8]) -> Result<Option<Bytes>> {
        cont.kv_get(oid, key)
    }

    async fn kv_put_if_absent(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        key: &[u8],
        value: Bytes,
    ) -> Result<Option<Bytes>> {
        // Only a winning insert consumes pool capacity.
        match cont.kv_put_if_absent(oid, key, value.clone())? {
            Some(existing) => Ok(Some(existing)),
            None => {
                self.pool.charge((key.len() + value.len()) as u64)?;
                Ok(None)
            }
        }
    }

    async fn kv_remove(&self, cont: &Self::Cont, oid: Oid, key: &[u8]) -> Result<()> {
        match cont.kv_remove(oid, key) {
            Ok(_) | Err(DaosError::ObjNotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    async fn kv_list_keys(&self, cont: &Self::Cont, oid: Oid) -> Result<Vec<Bytes>> {
        cont.kv_list_keys(oid)
    }

    async fn kv_list_range(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        from: Bytes,
        until: Option<Bytes>,
    ) -> Result<Vec<Bytes>> {
        cont.kv_list_range(oid, &from, until.as_deref())
    }

    async fn array_create(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        cont.array_create(oid)?;
        Ok(ArrayHandle::from_open(oid))
    }

    async fn array_open(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        cont.array_open(oid)?;
        Ok(ArrayHandle::from_open(oid))
    }

    async fn array_open_or_create(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        cont.array_open_or_create(oid)?;
        Ok(ArrayHandle::from_open(oid))
    }

    async fn array_write(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        offset: u64,
        data: Bytes,
    ) -> Result<()> {
        extent_end(offset, data.len() as u64)?;
        self.pool.charge(data.len() as u64)?;
        cont.array_write(handle.oid(), offset, data)
    }

    async fn array_write_vec(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        iovs: Vec<(u64, Bytes)>,
    ) -> Result<()> {
        for (offset, data) in &iovs {
            extent_end(*offset, data.len() as u64)?;
        }
        let bytes: usize = iovs.iter().map(|(_, d)| d.len()).sum();
        self.pool.charge(bytes as u64)?;
        cont.array_write_vec(handle.oid(), iovs)
    }

    async fn array_read(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        offset: u64,
        len: u64,
    ) -> Result<Bytes> {
        read_extent_end(offset, len)?;
        cont.array_read(handle.oid(), offset, len)
    }

    async fn array_size(&self, cont: &Self::Cont, handle: &ArrayHandle) -> Result<u64> {
        cont.array_size(handle.oid())
    }

    async fn array_close(&self, _cont: &Self::Cont, _handle: ArrayHandle) -> Result<()> {
        Ok(())
    }

    async fn obj_punch(&self, cont: &Self::Cont, oid: Oid) -> Result<()> {
        cont.obj_punch(oid)
    }

    async fn list_array_objects(&self, cont: &Self::Cont) -> Result<Vec<Oid>> {
        Ok(cont.list_arrays())
    }

    fn pool_targets(&self) -> u32 {
        self.pool.targets()
    }

    fn spawn_op(&self, op: OpFuture) {
        // Embedded operations never suspend: complete inline, so launch
        // order equals completion order and EventQueue programs behave
        // like their sequential expansion.
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        let mut op = op;
        match op.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {}
            Poll::Pending => panic!("embedded backend operation suspended"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DaosError;
    use crate::store::DaosStore;

    fn block_on<F: std::future::Future>(fut: F) -> F::Output {
        // The embedded backend never actually suspends; poll once.
        let waker = std::task::Waker::noop();
        let mut cx = std::task::Context::from_waker(waker);
        let mut fut = std::pin::pin!(fut);
        match fut.as_mut().poll(&mut cx) {
            std::task::Poll::Ready(v) => v,
            std::task::Poll::Pending => panic!("embedded backend suspended"),
        }
    }

    #[test]
    fn embedded_roundtrip_through_trait() {
        let (_store, pool) = DaosStore::with_single_pool(24);
        let client = EmbeddedClient::new(pool);
        let mut alloc = OidAllocator::new(1);
        block_on(async {
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"c"))
                .await
                .unwrap();
            let oid = alloc.next(ObjectClass::S1);
            let h = client.array_create(&cont, oid).await.unwrap();
            client
                .array_write(&cont, &h, 0, Bytes::from_static(b"payload"))
                .await
                .unwrap();
            let data = client.array_read(&cont, &h, 0, 7).await.unwrap();
            assert_eq!(data.as_ref(), b"payload");
            assert_eq!(client.array_size(&cont, &h).await.unwrap(), 7);
            client.array_close(&cont, h).await.unwrap();

            let kv = alloc.next(ObjectClass::SX);
            client
                .kv_put(&cont, kv, b"step=0", Bytes::from_static(b"ref"))
                .await
                .unwrap();
            assert_eq!(
                client
                    .kv_get(&cont, kv, b"step=0")
                    .await
                    .unwrap()
                    .unwrap()
                    .as_ref(),
                b"ref"
            );
            assert_eq!(client.kv_list_keys(&cont, kv).await.unwrap().len(), 1);
        });
    }

    #[test]
    fn handle_carries_oid_and_open_checks_type() {
        let (_store, pool) = DaosStore::with_single_pool(24);
        let client = EmbeddedClient::new(pool);
        let mut alloc = OidAllocator::new(3);
        block_on(async {
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"h"))
                .await
                .unwrap();
            let oid = alloc.next(ObjectClass::S1);
            let h = client.array_create(&cont, oid).await.unwrap();
            assert_eq!(h.oid(), oid);
            client.array_close(&cont, h).await.unwrap();
            // Re-open the same object: a fresh handle.
            let h2 = client.array_open(&cont, oid).await.unwrap();
            client.array_close(&cont, h2).await.unwrap();
            // Opening a KV as an array is a type error.
            let kv = alloc.next(ObjectClass::SX);
            client.kv_put(&cont, kv, b"k", Bytes::new()).await.unwrap();
            assert_eq!(
                client.array_open(&cont, kv).await.unwrap_err(),
                DaosError::WrongType(kv)
            );
        });
    }

    #[test]
    fn oid_allocator_is_unique_across_clients() {
        let mut a = OidAllocator::new(1);
        let mut b = OidAllocator::new(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(a.next(ObjectClass::S1)));
            assert!(seen.insert(b.next(ObjectClass::S1)));
        }
    }

    #[test]
    fn charge_accounts_array_writes() {
        let (_store, pool) = DaosStore::with_single_pool(4);
        let client = EmbeddedClient::new(Arc::clone(&pool));
        block_on(async {
            let cont = client.cont_open_or_create(Uuid::NIL).await.unwrap();
            let oid = OidAllocator::new(0).next(ObjectClass::S1);
            let h = client.array_create(&cont, oid).await.unwrap();
            client
                .array_write(&cont, &h, 0, Bytes::from(vec![0u8; 1000]))
                .await
                .unwrap();
            client.array_close(&cont, h).await.unwrap();
        });
        assert_eq!(pool.used(), 1000);
    }

    #[test]
    fn vectorized_ops_match_sequential_and_charge_once() {
        let (_store, pool) = DaosStore::with_single_pool(8);
        let client = EmbeddedClient::new(Arc::clone(&pool));
        let mut alloc = OidAllocator::new(7);
        block_on(async {
            let cont = client.cont_open_or_create(Uuid::NIL).await.unwrap();
            let kv = alloc.next(ObjectClass::SX);
            client
                .kv_put_multi(
                    &cont,
                    kv,
                    vec![
                        (Bytes::from_static(b"a"), Bytes::from_static(b"1")),
                        (Bytes::from_static(b"b"), Bytes::from_static(b"2")),
                    ],
                )
                .await
                .unwrap();
            assert_eq!(
                client
                    .kv_get(&cont, kv, b"a")
                    .await
                    .unwrap()
                    .unwrap()
                    .as_ref(),
                b"1"
            );
            assert_eq!(client.kv_list_keys(&cont, kv).await.unwrap().len(), 2);

            let oid = alloc.next(ObjectClass::S1);
            let h = client.array_create(&cont, oid).await.unwrap();
            client
                .array_write_vec(
                    &cont,
                    &h,
                    vec![
                        (0, Bytes::from_static(b"head")),
                        (4, Bytes::from_static(b"tail")),
                    ],
                )
                .await
                .unwrap();
            assert_eq!(
                client.array_read(&cont, &h, 0, 8).await.unwrap().as_ref(),
                b"headtail"
            );
            client.array_close(&cont, h).await.unwrap();
        });
        // 1+1 + 1+1 KV bytes and 8 array bytes.
        assert_eq!(pool.used(), 12);
    }

    #[test]
    fn event_queue_completes_inline_on_embedded() {
        let (_store, pool) = DaosStore::with_single_pool(24);
        let client = EmbeddedClient::new(pool);
        let mut alloc = OidAllocator::new(9);
        block_on(async {
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"eq"))
                .await
                .unwrap();
            let eq = EventQueue::new(client.clone());
            let kv = alloc.next(ObjectClass::SX);
            let oid = alloc.next(ObjectClass::S1);
            let h = client.array_create(&cont, oid).await.unwrap();

            let e1 = eq.kv_put(&cont, kv, b"k", Bytes::from_static(b"v"));
            let e2 = eq.array_write(&cont, &h, 0, Bytes::from_static(b"data"));
            let e3 = eq.kv_get(&cont, kv, b"k");
            assert_eq!(eq.in_flight(), 0, "embedded ops complete inline");
            assert_eq!(eq.completed(), 3);

            // Completion order equals launch order on the embedded backend.
            let all = eq.wait_all().await;
            assert_eq!(
                all.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
                vec![e1, e2, e3]
            );
            assert_eq!(all[0].1.as_ref().unwrap(), &OpOutput::Unit);
            assert_eq!(all[1].1.as_ref().unwrap(), &OpOutput::Unit);
            assert_eq!(
                all[2].1.as_ref().unwrap(),
                &OpOutput::MaybeData(Some(Bytes::from_static(b"v")))
            );

            // Errors travel through the completion stream, not panics.
            let missing = alloc.next(ObjectClass::S1);
            let bad = ArrayHandle::from_open(missing);
            eq.array_read(&cont, &bad, 0, 1);
            let (_, res) = eq.wait().await.unwrap();
            assert_eq!(res.unwrap_err(), DaosError::ObjNotFound(missing));
            assert!(eq.wait().await.is_none(), "idle queue waits return None");

            client.array_close(&cont, h).await.unwrap();
        });
    }

    #[test]
    fn aborted_queue_cancels_completions_and_rejects_new_submissions() {
        let (_store, pool) = DaosStore::with_single_pool(24);
        let client = EmbeddedClient::new(pool);
        let mut alloc = OidAllocator::new(10);
        block_on(async {
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"eq-abort"))
                .await
                .unwrap();
            let eq = EventQueue::new(client.clone());
            let kv = alloc.next(ObjectClass::SX);
            eq.kv_put(&cont, kv, b"k", Bytes::from_static(b"v"));
            // Embedded ops complete inline, so the pre-abort completion
            // keeps its real outcome...
            eq.abort();
            assert!(eq.is_aborted());
            let (_, res) = eq.wait().await.unwrap();
            assert_eq!(res.unwrap(), OpOutput::Unit);
            // ...but a destroyed queue fails later launches without
            // spawning (daos_eq_destroy semantics).
            let ev = eq.kv_get(&cont, kv, b"k");
            let (got, res) = eq.wait().await.unwrap();
            assert_eq!(got, ev);
            assert_eq!(res.unwrap_err(), DaosError::Cancelled);
            assert_eq!(eq.in_flight(), 0);
        });
    }

    #[test]
    fn wait_capacity_returns_harvest_and_respects_limit() {
        let (_store, pool) = DaosStore::with_single_pool(24);
        let client = EmbeddedClient::new(pool);
        let mut alloc = OidAllocator::new(11);
        block_on(async {
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"eq-cap"))
                .await
                .unwrap();
            let eq = EventQueue::new(client.clone());
            let kv = alloc.next(ObjectClass::SX);
            // Embedded: nothing stays in flight, so capacity is granted
            // immediately and pending completions ride back with it.
            let e1 = eq.kv_put(&cont, kv, b"a", Bytes::from_static(b"1"));
            let e2 = eq.kv_put(&cont, kv, b"b", Bytes::from_static(b"2"));
            let harvested = eq.wait_capacity(1).await;
            assert_eq!(
                harvested.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
                vec![e1, e2]
            );
            assert!(eq.wait_capacity(1).await.is_empty(), "nothing left");
        });
    }
}
