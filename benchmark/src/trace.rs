//! Host-time attribution for the traced run.
//!
//! Every wrapped call is a [`Traced`] future. Each of its polls is timed
//! with [`Instant`], and a thread-local frame stack charges the poll's
//! duration to the enclosing frame, so a frame's *self* time is its
//! duration minus the wrapped polls nested inside it. Frames that open
//! with an empty stack are polled straight by the executor; their
//! durations summed are everything the wrapped layers cost, and the rest
//! of `Sim::run` is the kernel's own time (executor, timer wheel and
//! calendar callbacks such as flow-solver settles). The self times of all
//! sites plus the kernel's therefore add up to the run's wall time
//! exactly, in integer nanoseconds.
//!
//! The untraced run uses [`SimClient`] directly, whose [`BenchClient::wrap`]
//! is the identity; the traced run swaps in [`Timed<SimClient>`].

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use bytes::Bytes;
use daosim_cluster::{Deployment, QosClass, SimClient};
use daosim_kernel::Sim;
use daosim_objstore::prelude::{ArrayHandle, DaosApi, Oid, OpFuture, Result, Uuid};

/// The `DaosApi` operations, in trait order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    ContOpenOrCreate,
    ContOpen,
    KvPut,
    KvPutMulti,
    KvGet,
    KvPutIfAbsent,
    KvRemove,
    KvListKeys,
    KvListRange,
    ArrayCreate,
    ArrayOpen,
    ArrayOpenOrCreate,
    ArrayWrite,
    ArrayWriteVec,
    ArrayRead,
    ArraySize,
    ArrayClose,
    ObjPunch,
    ListArrayObjects,
}

impl Op {
    pub const ALL: [Op; 19] = [
        Op::ContOpenOrCreate,
        Op::ContOpen,
        Op::KvPut,
        Op::KvPutMulti,
        Op::KvGet,
        Op::KvPutIfAbsent,
        Op::KvRemove,
        Op::KvListKeys,
        Op::KvListRange,
        Op::ArrayCreate,
        Op::ArrayOpen,
        Op::ArrayOpenOrCreate,
        Op::ArrayWrite,
        Op::ArrayWriteVec,
        Op::ArrayRead,
        Op::ArraySize,
        Op::ArrayClose,
        Op::ObjPunch,
        Op::ListArrayObjects,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::ContOpenOrCreate => "cont_open_or_create",
            Op::ContOpen => "cont_open",
            Op::KvPut => "kv_put",
            Op::KvPutMulti => "kv_put_multi",
            Op::KvGet => "kv_get",
            Op::KvPutIfAbsent => "kv_put_if_absent",
            Op::KvRemove => "kv_remove",
            Op::KvListKeys => "kv_list_keys",
            Op::KvListRange => "kv_list_range",
            Op::ArrayCreate => "array_create",
            Op::ArrayOpen => "array_open",
            Op::ArrayOpenOrCreate => "array_open_or_create",
            Op::ArrayWrite => "array_write",
            Op::ArrayWriteVec => "array_write_vec",
            Op::ArrayRead => "array_read",
            Op::ArraySize => "array_size",
            Op::ArrayClose => "array_close",
            Op::ObjPunch => "obj_punch",
            Op::ListArrayObjects => "list_array_objects",
        }
    }
}

/// Where a wrapped call sits. `Workload` is a workload task body, `Eq` a
/// future handed to `spawn_op` (event-queue operations and composites),
/// `Fieldio`/`Dfs` a workload's call into `FieldStore`/`DfsHandle`, and
/// `Client` one `DaosApi` method of the simulated client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    Workload,
    Eq,
    Fieldio,
    Dfs,
    Client(Op),
}

/// Sites that are not client operations, before the `Op` block.
const FIXED_SITES: usize = 4;
const SITES: usize = FIXED_SITES + Op::ALL.len();

impl Site {
    fn index(self) -> usize {
        match self {
            Site::Workload => 0,
            Site::Eq => 1,
            Site::Fieldio => 2,
            Site::Dfs => 3,
            Site::Client(op) => FIXED_SITES + op as usize,
        }
    }
}

/// Totals of one site.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SiteStats {
    pub calls: u64,
    pub failed: u64,
    /// Host time inside the site's own code, nested wrapped polls excluded.
    pub self_ns: u64,
    /// Simulated latency (first poll to `Ready`) of each completed call;
    /// kept for client operations only.
    pub sim_lat_ns: Vec<u64>,
}

/// What the frame stack recorded over one run.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    sites: Vec<SiteStats>,
    /// Summed durations of frames polled straight by the executor.
    top_ns: u64,
    /// Set when a frame's nested time exceeded its own duration or a frame
    /// was left open — either means the stack arithmetic is broken.
    broken: Option<&'static str>,
}

impl Profile {
    fn new() -> Self {
        Profile {
            sites: vec![SiteStats::default(); SITES],
            top_ns: 0,
            broken: None,
        }
    }

    pub fn site(&self, site: Site) -> &SiteStats {
        &self.sites[site.index()]
    }

    /// Splits `run_ns` of `Sim::run` wall time into the kernel's self time
    /// and checks that every site's self time plus the kernel's adds up to
    /// it exactly.
    pub fn kernel_self_ns(&self, run_ns: u64) -> std::result::Result<u64, String> {
        if let Some(why) = self.broken {
            return Err(format!("trace frame stack broken: {why}"));
        }
        let kernel = run_ns.checked_sub(self.top_ns).ok_or_else(|| {
            format!(
                "wrapped polls ({} ns) exceed the run wall time ({run_ns} ns)",
                self.top_ns
            )
        })?;
        let layers: u64 = self.sites.iter().map(|s| s.self_ns).sum();
        if layers + kernel != run_ns {
            return Err(format!(
                "layer self times ({layers} ns) + kernel ({kernel} ns) != run wall ({run_ns} ns)"
            ));
        }
        Ok(kernel)
    }
}

struct Recorder {
    /// Nested time accumulated by each open frame, innermost last.
    stack: Vec<u64>,
    profile: Profile,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        stack: Vec::new(),
        profile: Profile::new(),
    });
}

fn open_frame() {
    RECORDER.with(|r| r.borrow_mut().stack.push(0));
}

/// Closes the innermost frame, which lasted `dur_ns`, and charges it.
fn close_frame(site: Site, dur_ns: u64) {
    RECORDER.with(|r| {
        let r = &mut *r.borrow_mut();
        let nested = r.stack.pop().unwrap_or_else(|| {
            r.profile
                .broken
                .get_or_insert("frame closed that was never opened");
            0
        });
        let own = dur_ns.checked_sub(nested).unwrap_or_else(|| {
            r.profile
                .broken
                .get_or_insert("nested polls outlasted their parent");
            0
        });
        r.profile.sites[site.index()].self_ns += own;
        match r.stack.last_mut() {
            Some(parent) => *parent += dur_ns,
            None => r.profile.top_ns += dur_ns,
        }
    });
}

fn complete(site: Site, failed: bool, sim_lat_ns: Option<u64>) {
    RECORDER.with(|r| {
        let s = &mut r.borrow_mut().profile.sites[site.index()];
        s.calls += 1;
        s.failed += failed as u64;
        if let Some(ns) = sim_lat_ns {
            s.sim_lat_ns.push(ns);
        }
    });
}

/// Takes the profile recorded on this thread and resets the recorder.
pub fn take_profile() -> Profile {
    RECORDER.with(|r| {
        let r = &mut *r.borrow_mut();
        let mut p = std::mem::replace(&mut r.profile, Profile::new());
        if !r.stack.is_empty() {
            p.broken.get_or_insert("frames left open after the run");
            r.stack.clear();
        }
        p
    })
}

/// Whether a wrapped call's output is a failure.
pub trait Outcome {
    fn failed(&self) -> bool;
}

impl Outcome for () {
    fn failed(&self) -> bool {
        false
    }
}

impl<T, E> Outcome for std::result::Result<T, E> {
    fn failed(&self) -> bool {
        self.is_err()
    }
}

/// A future whose polls are charged to `site`.
pub struct Traced<F> {
    fut: Pin<Box<F>>,
    site: Site,
    sim: Sim,
    first_poll_ns: Option<u64>,
}

impl<F: Future> Traced<F> {
    pub fn new(sim: Sim, site: Site, fut: F) -> Self {
        Traced {
            fut: Box::pin(fut),
            site,
            sim,
            first_poll_ns: None,
        }
    }
}

impl<F: Future> Future for Traced<F>
where
    F::Output: Outcome,
{
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = &mut *self;
        let start_ns = *this
            .first_poll_ns
            .get_or_insert_with(|| this.sim.now().as_nanos());
        open_frame();
        let t0 = Instant::now();
        let polled = this.fut.as_mut().poll(cx);
        close_frame(this.site, t0.elapsed().as_nanos() as u64);
        if let Poll::Ready(out) = &polled {
            let lat =
                matches!(this.site, Site::Client(_)).then(|| this.sim.now().as_nanos() - start_ns);
            complete(this.site, out.failed(), lat);
        }
        polled
    }
}

/// A client the workloads are generic over: how to open one per simulated
/// process, and how to wrap a workload-level call for the profile.
pub trait BenchClient: DaosApi {
    type Wrapped<F: Future>: Future<Output = F::Output>
    where
        F::Output: Outcome;

    fn connect(d: &Rc<Deployment>, node: u16, rank: u32, qos: QosClass) -> Self;

    /// Wraps a workload's call into field I/O or DFS.
    fn wrap<F: Future>(&self, site: Site, fut: F) -> Self::Wrapped<F>
    where
        F::Output: Outcome;

    /// Spawns a workload task on the client's simulation.
    fn spawn_task(&self, fut: impl Future<Output = ()> + 'static);
}

impl BenchClient for SimClient {
    type Wrapped<F: Future>
        = F
    where
        F::Output: Outcome;

    fn connect(d: &Rc<Deployment>, node: u16, rank: u32, qos: QosClass) -> Self {
        SimClient::for_process(d, node, rank).with_qos(qos)
    }

    fn wrap<F: Future>(&self, _site: Site, fut: F) -> F
    where
        F::Output: Outcome,
    {
        fut
    }

    fn spawn_task(&self, fut: impl Future<Output = ()> + 'static) {
        self.deployment().sim.spawn(fut);
    }
}

/// Timing decorator: forwards every `DaosApi` method to `D` inside a
/// [`Traced`] frame, and wraps every future handed to `spawn_op`.
#[derive(Clone)]
pub struct Timed<D> {
    inner: D,
    sim: Sim,
}

impl<D: DaosApi> Timed<D> {
    fn call<F: Future>(&self, op: Op, fut: F) -> Traced<F> {
        Traced::new(self.sim.clone(), Site::Client(op), fut)
    }
}

impl BenchClient for Timed<SimClient> {
    type Wrapped<F: Future>
        = Traced<F>
    where
        F::Output: Outcome;

    fn connect(d: &Rc<Deployment>, node: u16, rank: u32, qos: QosClass) -> Self {
        Timed {
            inner: SimClient::connect(d, node, rank, qos),
            sim: d.sim.clone(),
        }
    }

    fn wrap<F: Future>(&self, site: Site, fut: F) -> Traced<F>
    where
        F::Output: Outcome,
    {
        Traced::new(self.sim.clone(), site, fut)
    }

    fn spawn_task(&self, fut: impl Future<Output = ()> + 'static) {
        self.sim
            .spawn(Traced::new(self.sim.clone(), Site::Workload, fut));
    }
}

impl<D: DaosApi> DaosApi for Timed<D> {
    type Cont = D::Cont;

    async fn cont_open_or_create(&self, uuid: Uuid) -> Result<Self::Cont> {
        self.call(Op::ContOpenOrCreate, self.inner.cont_open_or_create(uuid))
            .await
    }

    async fn cont_open(&self, uuid: Uuid) -> Result<Self::Cont> {
        self.call(Op::ContOpen, self.inner.cont_open(uuid)).await
    }

    async fn kv_put(&self, cont: &Self::Cont, oid: Oid, key: &[u8], value: Bytes) -> Result<()> {
        self.call(Op::KvPut, self.inner.kv_put(cont, oid, key, value))
            .await
    }

    async fn kv_put_multi(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        pairs: Vec<(Bytes, Bytes)>,
    ) -> Result<()> {
        self.call(Op::KvPutMulti, self.inner.kv_put_multi(cont, oid, pairs))
            .await
    }

    async fn kv_get(&self, cont: &Self::Cont, oid: Oid, key: &[u8]) -> Result<Option<Bytes>> {
        self.call(Op::KvGet, self.inner.kv_get(cont, oid, key))
            .await
    }

    async fn kv_put_if_absent(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        key: &[u8],
        value: Bytes,
    ) -> Result<Option<Bytes>> {
        self.call(
            Op::KvPutIfAbsent,
            self.inner.kv_put_if_absent(cont, oid, key, value),
        )
        .await
    }

    async fn kv_remove(&self, cont: &Self::Cont, oid: Oid, key: &[u8]) -> Result<()> {
        self.call(Op::KvRemove, self.inner.kv_remove(cont, oid, key))
            .await
    }

    async fn kv_list_keys(&self, cont: &Self::Cont, oid: Oid) -> Result<Vec<Bytes>> {
        self.call(Op::KvListKeys, self.inner.kv_list_keys(cont, oid))
            .await
    }

    async fn kv_list_range(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        from: Bytes,
        until: Option<Bytes>,
    ) -> Result<Vec<Bytes>> {
        self.call(
            Op::KvListRange,
            self.inner.kv_list_range(cont, oid, from, until),
        )
        .await
    }

    async fn array_create(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        self.call(Op::ArrayCreate, self.inner.array_create(cont, oid))
            .await
    }

    async fn array_open(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        self.call(Op::ArrayOpen, self.inner.array_open(cont, oid))
            .await
    }

    async fn array_open_or_create(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        self.call(
            Op::ArrayOpenOrCreate,
            self.inner.array_open_or_create(cont, oid),
        )
        .await
    }

    async fn array_write(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        offset: u64,
        data: Bytes,
    ) -> Result<()> {
        self.call(
            Op::ArrayWrite,
            self.inner.array_write(cont, handle, offset, data),
        )
        .await
    }

    async fn array_write_vec(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        iovs: Vec<(u64, Bytes)>,
    ) -> Result<()> {
        self.call(
            Op::ArrayWriteVec,
            self.inner.array_write_vec(cont, handle, iovs),
        )
        .await
    }

    async fn array_read(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        offset: u64,
        len: u64,
    ) -> Result<Bytes> {
        self.call(
            Op::ArrayRead,
            self.inner.array_read(cont, handle, offset, len),
        )
        .await
    }

    async fn array_size(&self, cont: &Self::Cont, handle: &ArrayHandle) -> Result<u64> {
        self.call(Op::ArraySize, self.inner.array_size(cont, handle))
            .await
    }

    async fn array_close(&self, cont: &Self::Cont, handle: ArrayHandle) -> Result<()> {
        self.call(Op::ArrayClose, self.inner.array_close(cont, handle))
            .await
    }

    async fn obj_punch(&self, cont: &Self::Cont, oid: Oid) -> Result<()> {
        self.call(Op::ObjPunch, self.inner.obj_punch(cont, oid))
            .await
    }

    async fn list_array_objects(&self, cont: &Self::Cont) -> Result<Vec<Oid>> {
        self.call(Op::ListArrayObjects, self.inner.list_array_objects(cont))
            .await
    }

    fn pool_targets(&self) -> u32 {
        self.inner.pool_targets()
    }

    fn spawn_op(&self, op: OpFuture) {
        self.inner
            .spawn_op(Box::pin(Traced::new(self.sim.clone(), Site::Eq, op)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Waker;

    /// A future that spins for `ms` of host time inside each of its
    /// `polls` polls, polling `child` (if any) once per poll.
    struct Busy {
        polls: u32,
        spin: std::time::Duration,
        child: Option<Pin<Box<dyn Future<Output = ()>>>>,
    }

    impl Future for Busy {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let t = Instant::now();
            while t.elapsed() < self.spin {}
            if let Some(c) = self.child.as_mut() {
                if c.as_mut().poll(cx).is_ready() {
                    self.child = None;
                }
            }
            self.polls -= 1;
            if self.polls == 0 {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        }
    }

    fn busy(sim: &Sim, site: Site, polls: u32, child: Option<Traced<Busy>>) -> Traced<Busy> {
        Traced::new(
            sim.clone(),
            site,
            Busy {
                polls,
                spin: std::time::Duration::from_micros(200),
                child: child.map(|c| Box::pin(c) as Pin<Box<dyn Future<Output = ()>>>),
            },
        )
    }

    #[test]
    fn nested_self_times_sum_to_the_run_wall() {
        take_profile();
        let sim = Sim::new();
        // Workload frame (3 polls) nesting a fieldio frame (2 polls)
        // nesting a client frame (1 poll).
        let leaf = busy(&sim, Site::Client(Op::KvGet), 1, None);
        let mid = busy(&sim, Site::Fieldio, 2, Some(leaf));
        let mut top = Box::pin(busy(&sim, Site::Workload, 3, Some(mid)));
        let mut cx = Context::from_waker(Waker::noop());
        let t0 = Instant::now();
        while top.as_mut().poll(&mut cx).is_pending() {}
        let run_ns = t0.elapsed().as_nanos() as u64;
        let p = take_profile();

        for (site, calls) in [
            (Site::Workload, 1),
            (Site::Fieldio, 1),
            (Site::Client(Op::KvGet), 1),
        ] {
            assert_eq!(p.site(site).calls, calls, "{site:?}");
            // Each poll spins 200 µs of its own, whatever it nests.
            let polls = match site {
                Site::Workload => 3,
                Site::Fieldio => 2,
                _ => 1,
            };
            assert!(
                p.site(site).self_ns >= polls * 200_000,
                "{site:?} self {} ns",
                p.site(site).self_ns
            );
        }
        // Self times exclude nested frames: the workload's own polls are
        // 600 µs, far from the 900 µs its frames lasted in total.
        assert!(p.site(Site::Workload).self_ns < 800_000);
        assert_eq!(p.site(Site::Client(Op::KvGet)).sim_lat_ns, vec![0]);
        let kernel = p.kernel_self_ns(run_ns).expect("arithmetic holds");
        let layers: u64 = [Site::Workload, Site::Fieldio, Site::Client(Op::KvGet)]
            .iter()
            .map(|s| p.site(*s).self_ns)
            .sum();
        assert_eq!(layers + kernel, run_ns);
    }

    #[test]
    fn frames_outlasting_the_run_are_reported() {
        take_profile();
        let sim = Sim::new();
        let mut f = Box::pin(busy(&sim, Site::Eq, 1, None));
        let mut cx = Context::from_waker(Waker::noop());
        assert!(f.as_mut().poll(&mut cx).is_ready());
        let p = take_profile();
        assert_eq!(p.site(Site::Eq).calls, 1);
        // A "run" shorter than the wrapped poll it contains is impossible.
        assert!(p.kernel_self_ns(1_000).is_err());
    }

    #[test]
    fn unclosed_frames_and_failures_are_recorded() {
        take_profile();
        open_frame();
        let sim = Sim::new();
        let mut f = Box::pin(Traced::new(sim.clone(), Site::Client(Op::KvPut), async {
            Err::<(), ()>(())
        }));
        let mut cx = Context::from_waker(Waker::noop());
        assert!(f.as_mut().poll(&mut cx).is_ready());
        let p = take_profile();
        assert_eq!(p.site(Site::Client(Op::KvPut)).failed, 1);
        assert!(
            p.kernel_self_ns(u64::MAX / 2).is_err(),
            "a frame stayed open"
        );
    }
}
