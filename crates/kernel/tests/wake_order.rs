//! Pins of the executor's wake contract.
//!
//! Every wake enters one ready FIFO in call order, whatever raised it: a
//! spawn before `run`, a calendar action, a sleep deadline, a kernel
//! waiter (oneshot, semaphore, barrier) or a bare `Waker`, on this thread
//! or another one. The policies of `SchedPolicy` then pick from that
//! FIFO. The poll logs below were recorded on the executor whose wakes
//! all went through one mutex-guarded mailbox; any change to how wakes
//! are delivered must reproduce them exactly, under every policy.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use daosim_kernel::sync::{oneshot, race, Barrier, Either, PrioritySemaphore};
use daosim_kernel::{AdmissionClass, SchedPolicy, Sim, SimDuration, SimTime};

type Log = Rc<RefCell<Vec<String>>>;

fn ns(n: u64) -> SimDuration {
    SimDuration::from_nanos(n)
}

/// Wraps a task's future and logs `name@now` at every poll of it, so the
/// log is the executor's poll order.
struct Logged<F> {
    name: &'static str,
    sim: Sim,
    log: Log,
    fut: Pin<Box<F>>,
}

impl<F: Future<Output = ()>> Future for Logged<F> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let entry = format!("{}@{}", self.name, self.sim.now().as_nanos());
        self.log.borrow_mut().push(entry);
        self.fut.as_mut().poll(cx)
    }
}

fn spawn_logged(sim: &Sim, log: &Log, name: &'static str, fut: impl Future<Output = ()> + 'static) {
    sim.spawn(Logged {
        name,
        sim: sim.clone(),
        log: Rc::clone(log),
        fut: Box::pin(fut),
    });
}

/// Pends once, parking the task's waker in `out`; ready on the next poll.
struct Park {
    out: Rc<RefCell<Option<Waker>>>,
    parked: bool,
}

impl Future for Park {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.parked {
            return Poll::Ready(());
        }
        self.parked = true;
        *self.out.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

fn park(out: &Rc<RefCell<Option<Waker>>>) -> Park {
    Park {
        out: Rc::clone(out),
        parked: false,
    }
}

/// Wakes its own task once and pends: a yield within the instant.
struct YieldNow(bool);

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// One program that raises wakes from every source the executor knows:
/// spawns before `run`, a calendar action spawning and waking parked
/// `Waker`s, sleeps sharing a deadline, a semaphore release, a barrier,
/// a oneshot, a yield, a spawn from inside a poll, and a stale wake of a
/// task that finished long ago (its slab slot reused twice since).
fn poll_log(policy: SchedPolicy) -> Vec<String> {
    let sim = Sim::with_policy(policy);
    let log: Log = Rc::default();
    let sem = PrioritySemaphore::fifo(1);
    let bar = Barrier::new(3);
    let (stale_tx, stale_rx) = oneshot::<()>();
    let (stale_tx2, stale_rx2) = oneshot::<()>();
    let (tx, rx) = oneshot::<u32>();
    let parked_f: Rc<RefCell<Option<Waker>>> = Rc::default();
    let parked_g: Rc<RefCell<Option<Waker>>> = Rc::default();

    // `s` races two oneshots against a short sleep, loses both oneshots
    // and finishes at t=5; the calendar action at t=10 fires them: one
    // stale entry (the second wake dedups against the first) that
    // `SchedPolicy::Random` draws over with the rest.
    {
        let s = sim.clone();
        spawn_logged(&sim, &log, "s", async move {
            match race(race(stale_rx, stale_rx2), s.sleep(ns(5))).await {
                Either::Left(_) => panic!("nobody sends before t=10"),
                Either::Right(()) => {}
            }
        });
    }
    {
        let (s, sem, bar, l) = (sim.clone(), sem.clone(), bar.clone(), Rc::clone(&log));
        spawn_logged(&sim, &log, "a", async move {
            s.sleep(ns(10)).await;
            // Spawned from inside a poll.
            spawn_logged(&s, &l, "h", async {});
            tx.send(7);
            YieldNow(false).await;
            bar.wait().await;
            let _permit = sem.acquire_one(AdmissionClass::Normal).await;
            s.sleep(ns(10)).await;
        });
    }
    {
        let (s, sem) = (sim.clone(), sem.clone());
        spawn_logged(&sim, &log, "c", async move {
            let permit = sem.acquire_one(AdmissionClass::Normal).await;
            s.sleep(ns(10)).await;
            drop(permit);
            s.sleep(ns(10)).await;
        });
    }
    {
        let (s, sem, bar) = (sim.clone(), sem.clone(), bar.clone());
        spawn_logged(&sim, &log, "b", async move {
            s.sleep(ns(1)).await;
            let _permit = sem.acquire_one(AdmissionClass::Normal).await;
            bar.wait().await;
        });
    }
    {
        let (s, bar) = (sim.clone(), bar.clone());
        spawn_logged(&sim, &log, "e", async move {
            assert_eq!(rx.await, 7);
            s.sleep(ns(10)).await;
            bar.wait().await;
        });
    }
    {
        let (pf, pg) = (Rc::clone(&parked_f), Rc::clone(&parked_g));
        spawn_logged(&sim, &log, "f", park(&pf));
        spawn_logged(&sim, &log, "g", park(&pg));
    }
    // A calendar action at t=10: wakes the finished `s` twice, spawns
    // `d`, then wakes `g` before `f`.
    {
        let (s, l) = (sim.clone(), Rc::clone(&log));
        let (pf, pg) = (Rc::clone(&parked_f), Rc::clone(&parked_g));
        sim.schedule_at(SimTime::from_nanos(10), move || {
            stale_tx.send(());
            stale_tx2.send(());
            let s2 = s.clone();
            spawn_logged(&s, &l, "d", async move {
                s2.sleep(ns(10)).await;
                YieldNow(false).await;
            });
            pg.borrow_mut().take().expect("g parked").wake();
            pf.borrow_mut().take().expect("f parked").wake();
        });
    }
    // Reuse `s`'s slab slot twice before its stale wake lands.
    for (t, name) in [(6, "r1"), (7, "r2")] {
        let (s, l) = (sim.clone(), Rc::clone(&log));
        sim.schedule_at(SimTime::from_nanos(t), move || {
            spawn_logged(&s, &l, name, async {});
        });
    }
    sim.run().expect_quiescent();
    Rc::try_unwrap(log).unwrap().into_inner()
}

fn joined(log: &[String]) -> String {
    log.join(" ")
}

#[test]
fn fifo_poll_order_is_pinned() {
    assert_eq!(
        joined(&poll_log(SchedPolicy::Fifo)),
        "s@0 a@0 c@0 b@0 e@0 f@0 g@0 b@1 s@5 r1@6 r2@7 d@10 g@10 f@10 a@10 h@10 e@10 a@10 \
         c@10 b@10 d@20 d@20 e@20 a@20 b@20 a@20 c@20 a@30"
    );
}

#[test]
fn lifo_poll_order_is_pinned() {
    assert_eq!(
        joined(&poll_log(SchedPolicy::Lifo)),
        "g@0 f@0 e@0 b@0 c@0 a@0 s@0 b@1 s@5 r1@6 r2@7 f@10 g@10 d@10 c@10 b@10 a@10 a@10 \
         e@10 h@10 d@20 d@20 c@20 e@20 a@20 b@20 a@20 a@30"
    );
}

#[test]
fn random_poll_order_is_pinned() {
    assert_eq!(
        joined(&poll_log(SchedPolicy::Random { seed: 7 })),
        "b@0 s@0 f@0 e@0 a@0 c@0 g@0 b@1 s@5 r1@6 r2@7 g@10 d@10 f@10 a@10 a@10 e@10 h@10 \
         c@10 b@10 d@20 d@20 e@20 b@20 a@20 c@20 a@30"
    );
}

#[test]
fn wake_delay_poll_order_is_pinned() {
    let policy = SchedPolicy::WakeDelay {
        seed: 7,
        max_delay_ns: 6,
    };
    assert_eq!(
        joined(&poll_log(policy)),
        "a@0 g@0 s@3 c@3 b@5 f@5 e@6 b@6 s@9 r1@12 r2@13 g@13 f@14 a@15 d@16 c@18 h@20 a@20 \
         b@20 e@21 d@28 e@31 a@31 c@31 d@31 b@36 a@39 a@54"
    );
}

/// A future that pends until `done` is set, counting its polls (with the
/// simulated instant of each) and parking its waker in `out`.
struct CountedPend {
    sim: Sim,
    polls: Rc<RefCell<Vec<u64>>>,
    done: Rc<Cell<bool>>,
    out: Rc<RefCell<Option<Waker>>>,
}

impl Future for CountedPend {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.polls.borrow_mut().push(self.sim.now().as_nanos());
        if self.done.get() {
            return Poll::Ready(());
        }
        *self.out.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// A waker moved to another thread and woken there, between runs or in
/// the middle of one, polls its task exactly once: the wake is neither
/// lost nor duplicated.
#[test]
fn wakes_from_another_thread_are_polled_exactly_once() {
    let sim = Sim::new();
    let polls: Rc<RefCell<Vec<u64>>> = Rc::default();
    let done: Rc<Cell<bool>> = Rc::default();
    let out: Rc<RefCell<Option<Waker>>> = Rc::default();
    sim.spawn(CountedPend {
        sim: sim.clone(),
        polls: Rc::clone(&polls),
        done: Rc::clone(&done),
        out: Rc::clone(&out),
    });
    // Mid-run: a calendar action hands the waker to a thread, which wakes
    // it twice; the task is polled once, at that instant.
    {
        let out = Rc::clone(&out);
        sim.schedule_at(SimTime::from_nanos(10), move || {
            let w = out.borrow().clone().expect("first poll parked a waker");
            std::thread::spawn(move || {
                w.wake_by_ref();
                w.wake();
            })
            .join()
            .unwrap();
        });
    }
    let first = sim.run();
    assert_eq!(first.stranded_tasks, 1);
    assert_eq!(*polls.borrow(), vec![0, 10]);

    // Between runs: the wake waits in the mailbox for the next `run`.
    let w = out.borrow().clone().expect("waker parked");
    done.set(true);
    std::thread::spawn(move || w.wake()).join().unwrap();
    assert_eq!(*polls.borrow(), vec![0, 10], "nothing polls outside run");
    let second = sim.run();
    assert_eq!(second.stranded_tasks, 0);
    assert_eq!(*polls.borrow(), vec![0, 10, 10]);
}

/// Forwards each wake to the waker of the task that polled it last,
/// counting the wakes that pass through.
#[derive(Default)]
struct Forward {
    hits: AtomicU32,
    outer: Mutex<Option<Waker>>,
}

impl Wake for Forward {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(w) = self.outer.lock().unwrap().as_ref() {
            w.wake_by_ref();
        }
    }
}

/// A hand-written combinator that polls its inner future under its own
/// waker, not the task's.
struct OwnWaker<F> {
    inner: Pin<Box<F>>,
    forward: Arc<Forward>,
}

impl<F: Future> Future for OwnWaker<F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        *self.forward.outer.lock().unwrap() = Some(cx.waker().clone());
        let waker = Waker::from(Arc::clone(&self.forward));
        self.inner.as_mut().poll(&mut Context::from_waker(&waker))
    }
}

/// A sleep, or a kernel waiter, polled through a combinator's own waker
/// wakes through that waker, not straight through its task.
#[test]
fn waiters_polled_under_a_foreign_waker_wake_through_it() {
    let sim = Sim::new();
    let sleep_fwd = Arc::new(Forward::default());
    let recv_fwd = Arc::new(Forward::default());
    let (tx, rx) = oneshot::<u32>();
    let got: Rc<Cell<u32>> = Rc::default();
    {
        let (s, fwd) = (sim.clone(), Arc::clone(&sleep_fwd));
        sim.spawn(async move {
            OwnWaker {
                inner: Box::pin(s.sleep(ns(40))),
                forward: fwd,
            }
            .await;
            assert_eq!(s.now().as_nanos(), 40);
        });
    }
    {
        let (fwd, got) = (Arc::clone(&recv_fwd), Rc::clone(&got));
        sim.spawn(async move {
            let v = OwnWaker {
                inner: Box::pin(rx),
                forward: fwd,
            }
            .await;
            got.set(v);
        });
    }
    sim.schedule_at(SimTime::from_nanos(25), move || tx.send(9));
    assert_eq!(sim.run().expect_quiescent().as_nanos(), 40);
    assert_eq!(got.get(), 9);
    assert_eq!(sleep_fwd.hits.load(Ordering::Relaxed), 1);
    assert_eq!(recv_fwd.hits.load(Ordering::Relaxed), 1);
}

/// A second `Sim` run to completion inside a task of the first polls
/// only its own tasks, and the wakes it raises on the outer `Sim` keep
/// their call order with the wakes raised before and after it.
#[test]
fn nested_sim_neither_steals_nor_reorders_outer_wakes() {
    let outer = Sim::new();
    let log: Log = Rc::default();
    let inner_log: Log = Rc::default();
    let parked: Vec<Rc<RefCell<Option<Waker>>>> = (0..2).map(|_| Rc::default()).collect();
    let (tx_y, rx_y) = oneshot::<()>();
    let (tx_z, rx_z) = oneshot::<()>();
    spawn_logged(&outer, &log, "w", park(&parked[0]));
    spawn_logged(&outer, &log, "x", park(&parked[1]));
    spawn_logged(&outer, &log, "y", rx_y);
    spawn_logged(&outer, &log, "z", rx_z);
    {
        let (o, il) = (outer.clone(), Rc::clone(&inner_log));
        let parked = parked.clone();
        spawn_logged(&outer, &log, "n", async move {
            o.sleep(ns(5)).await;
            // Before the nested run: wake `w`.
            parked[0].borrow_mut().take().expect("w parked").wake();
            let inner = Sim::new();
            let tx_y = Rc::new(RefCell::new(Some(tx_y)));
            let x = Rc::clone(&parked[1]);
            {
                let (i, tx_y) = (inner.clone(), Rc::clone(&tx_y));
                spawn_logged(&inner, &il, "i1", async move {
                    i.sleep(ns(100)).await;
                    tx_y.borrow_mut().take().expect("once").send(());
                });
            }
            {
                let i = inner.clone();
                spawn_logged(&inner, &il, "i2", async move {
                    i.sleep(ns(200)).await;
                    x.borrow_mut().take().expect("x parked").wake();
                });
            }
            let end = inner.run().expect_quiescent();
            assert_eq!(end.as_nanos(), 200, "the inner clock is its own");
            // After the nested run: wake `z`.
            tx_z.send(());
            assert_eq!(o.now().as_nanos(), 5, "the outer clock did not move");
        });
    }
    outer.run().expect_quiescent();
    assert_eq!(
        joined(&inner_log.borrow()),
        "i1@0 i2@0 i1@100 i2@200",
        "the inner run polled only its own tasks"
    );
    assert_eq!(
        joined(&log.borrow()),
        "w@0 x@0 y@0 z@0 n@0 n@5 w@5 y@5 x@5 z@5"
    );
}
