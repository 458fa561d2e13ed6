//! Property-based tests of the simulation kernel: event ordering,
//! determinism and synchronization invariants.

mod plain_semaphore;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use daosim_kernel::sync::{timeout, AdmissionClass, AdmissionPolicy, Barrier, PrioritySemaphore};
use daosim_kernel::{Sim, SimDuration, SimTime};
use plain_semaphore::Semaphore;
use proptest::prelude::*;

/// One step of a timer program (see `surviving_timers_fire_exactly_on_time`).
#[derive(Debug, Clone, Copy)]
enum TimerOp {
    /// Sleep `d` ns.
    Sleep(u64),
    /// Arm a sleep of `d` ns and drop it at once.
    Drop(u64),
    /// `timeout(d + slack, sleep(d))`: the sleep wins at `d`.
    TimeoutWins(u64, u64),
    /// `timeout(limit, sleep(limit + 1 + over))`: the deadline wins.
    TimeoutLoses(u64, u64),
    /// Arm a cancellable action at `d1`, then in the same instant cancel
    /// it and arm another at `d2`; the task does not wait for either.
    Rearm(u64, u64),
}

fn timer_delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..64,                   // same instant / level 0
        4 => 64u64..100_000,             // levels 1-2
        2 => 100_000u64..(1 << 30),      // levels 3-5
        1 => (1u64 << 36)..(1 << 38),    // past the wheel horizon
    ]
}

fn timer_op() -> impl Strategy<Value = TimerOp> {
    prop_oneof![
        (timer_delay()).prop_map(TimerOp::Sleep),
        (timer_delay()).prop_map(TimerOp::Drop),
        (timer_delay(), 1u64..1_000).prop_map(|(d, s)| TimerOp::TimeoutWins(d, s)),
        (timer_delay(), 0u64..1_000).prop_map(|(l, o)| TimerOp::TimeoutLoses(l, o)),
        (timer_delay(), timer_delay()).prop_map(|(a, b)| TimerOp::Rearm(a, b)),
    ]
}

/// One queued request in the cancellation scenario: `want` permits,
/// `hold` ns once granted; `cancel` wraps the acquire in a short timeout
/// so it is dropped while queued (at whatever queue position its arrival
/// index lands it in).
#[derive(Debug, Clone, Copy)]
struct CancelPlan {
    want: usize,
    hold: u64,
    cancel: bool,
}

fn cancel_plan(max_want: usize) -> impl Strategy<Value = CancelPlan> {
    (1..max_want + 1, 1u64..200, any::<bool>()).prop_map(|(want, hold, cancel)| CancelPlan {
        want,
        hold,
        cancel,
    })
}

/// Either semaphore flavour behind one acquire surface, so the same
/// scenario drives both and the FIFO-mode grant logs can be compared.
#[derive(Clone)]
enum AnySem {
    Plain(Semaphore),
    Prio(PrioritySemaphore),
}

impl AnySem {
    async fn run_one(
        &self,
        sim: Sim,
        i: usize,
        p: CancelPlan,
        log: Rc<RefCell<Vec<(usize, u64)>>>,
    ) {
        let class = if i.is_multiple_of(3) {
            AdmissionClass::Urgent
        } else {
            AdmissionClass::Normal
        };
        // Stagger arrivals so task i is queue position i.
        sim.sleep(SimDuration::from_nanos(i as u64)).await;
        // Cancelling requests may want more than the semaphore has
        // (never grantable); live requests are clamped by the caller.
        let granted = match self {
            AnySem::Plain(sem) => {
                if p.cancel {
                    timeout(
                        &sim,
                        SimDuration::from_nanos(p.hold / 2),
                        sem.acquire(p.want),
                    )
                    .await
                    .is_ok()
                } else {
                    let _g = sem.acquire(p.want).await;
                    log.borrow_mut().push((i, sim.now().as_nanos()));
                    sim.sleep(SimDuration::from_nanos(p.hold)).await;
                    return;
                }
            }
            AnySem::Prio(sem) => {
                if p.cancel {
                    timeout(
                        &sim,
                        SimDuration::from_nanos(p.hold / 2),
                        sem.acquire(p.want, class),
                    )
                    .await
                    .is_ok()
                } else {
                    let _g = sem.acquire(p.want, class).await;
                    log.borrow_mut().push((i, sim.now().as_nanos()));
                    sim.sleep(SimDuration::from_nanos(p.hold)).await;
                    return;
                }
            }
        };
        if granted {
            // A same-instant grant can beat the timeout; that is a
            // normal grant, log it so conservation still balances.
            log.borrow_mut().push((i, sim.now().as_nanos()));
        }
    }
}

/// Runs the cancellation scenario and returns (grant log, permits free at
/// quiescence). Panics (-> proptest failure) if any task strands, which
/// is exactly what a swallowed wakeup produces.
fn run_cancel_scenario(
    sem: AnySem,
    permits: usize,
    plans: &[CancelPlan],
) -> (Vec<(usize, u64)>, usize) {
    let sim = Sim::new();
    let log: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
    for (i, &p) in plans.iter().enumerate() {
        let mut p = p;
        if !p.cancel {
            p.want = p.want.min(permits); // live requests must be grantable
        }
        let (s, m, log) = (sim.clone(), sem.clone(), Rc::clone(&log));
        sim.spawn(async move { m.run_one(s, i, p, log).await });
    }
    sim.run().expect_quiescent();
    let avail = match &sem {
        AnySem::Plain(s) => s.available(),
        AnySem::Prio(s) => s.available(),
    };
    let granted = log.borrow().clone();
    (granted, avail)
}

proptest! {
    #[test]
    fn events_fire_in_nondecreasing_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let sim = Sim::new();
        let fired: Rc<RefCell<Vec<u64>>> = Rc::default();
        for &t in &times {
            let fired = Rc::clone(&fired);
            sim.schedule_at(SimTime::from_nanos(t), move || fired.borrow_mut().push(t));
        }
        sim.run();
        let got = fired.borrow().clone();
        prop_assert_eq!(got.len(), times.len());
        for w in got.windows(2) {
            prop_assert!(w[0] <= w[1], "events fired out of order: {:?}", w);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(got, sorted);
    }

    #[test]
    fn sleeping_tasks_trace_identically_across_runs(
        delays in proptest::collection::vec((1u64..10_000, 1u8..6), 1..40)
    ) {
        let run = || {
            let sim = Sim::new();
            let trace: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
            for (i, &(delay, hops)) in delays.iter().enumerate() {
                let (s, trace) = (sim.clone(), Rc::clone(&trace));
                sim.spawn(async move {
                    for _ in 0..hops {
                        s.sleep(SimDuration::from_nanos(delay)).await;
                        trace.borrow_mut().push((i, s.now().as_nanos()));
                    }
                });
            }
            sim.run().expect_quiescent();
            Rc::try_unwrap(trace).unwrap().into_inner()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn semaphore_never_admits_more_than_permits(
        permits in 1usize..5,
        tasks in 1usize..20,
        holds in 1u64..500,
    ) {
        let sim = Sim::new();
        let sem = PrioritySemaphore::fifo(permits);
        let inside: Rc<Cell<usize>> = Rc::default();
        let peak: Rc<Cell<usize>> = Rc::default();
        for i in 0..tasks {
            let (s, m, inside, peak) = (
                sim.clone(),
                sem.clone(),
                Rc::clone(&inside),
                Rc::clone(&peak),
            );
            sim.spawn(async move {
                s.sleep(SimDuration::from_nanos(i as u64 % 7)).await;
                let _p = m.acquire_one(AdmissionClass::Normal).await;
                inside.set(inside.get() + 1);
                peak.set(peak.get().max(inside.get()));
                s.sleep(SimDuration::from_nanos(holds)).await;
                inside.set(inside.get() - 1);
            });
        }
        sim.run().expect_quiescent();
        prop_assert_eq!(inside.get(), 0);
        prop_assert!(peak.get() <= permits, "peak {} > permits {}", peak.get(), permits);
        // At least one task was admitted; full saturation depends on the
        // arrival/hold timing, so only the upper bound is universal.
        prop_assert!(peak.get() >= 1);
    }

    #[test]
    fn barrier_generations_never_interleave(
        parties in 2usize..8,
        rounds in 1u32..10,
        jitter in proptest::collection::vec(1u64..100, 8),
    ) {
        let sim = Sim::new();
        let bar = Barrier::new(parties);
        // Each party's round counter; at any barrier release, all
        // counters must be equal (nobody can be a full round ahead).
        let counters: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![0; parties]));
        let ok: Rc<Cell<bool>> = Rc::new(Cell::new(true));
        for p in 0..parties {
            let (s, b) = (sim.clone(), bar.clone());
            let (counters, ok) = (Rc::clone(&counters), Rc::clone(&ok));
            let j = jitter[p % jitter.len()];
            sim.spawn(async move {
                for r in 0..rounds {
                    s.sleep(SimDuration::from_nanos(j * (p as u64 + 1))).await;
                    counters.borrow_mut()[p] = r + 1;
                    b.wait().await;
                    // After release, every party must have reached r+1.
                    if counters.borrow().iter().any(|&c| c < r + 1) {
                        ok.set(false);
                    }
                }
            });
        }
        sim.run().expect_quiescent();
        prop_assert!(ok.get(), "a party crossed the barrier early");
    }

    #[test]
    fn cancellation_at_any_queue_position_conserves_permits(
        permits in 1usize..4,
        plans in proptest::collection::vec(cancel_plan(5), 2..14),
    ) {
        // A dropped/cancelled acquire (retry timeout firing while queued)
        // must neither leak its queue slot nor swallow the wakeup for the
        // waiter behind it: every live request is eventually granted and
        // every permit comes back, whatever queue position the
        // cancellations land on. Checked for the plain semaphore and both
        // priority policies.
        let sems = [
            AnySem::Plain(Semaphore::new(permits)),
            AnySem::Prio(PrioritySemaphore::fifo(permits)),
            AnySem::Prio(PrioritySemaphore::new(
                permits,
                AdmissionPolicy::WriterPriority { aging: 2 },
            )),
        ];
        for sem in sems {
            let (granted, avail) = run_cancel_scenario(sem, permits, &plans);
            prop_assert_eq!(avail, permits, "permits leaked or double-released");
            for (i, p) in plans.iter().enumerate() {
                if !p.cancel {
                    prop_assert!(
                        granted.iter().any(|&(g, _)| g == i),
                        "live waiter {} was never granted",
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn priority_fifo_grant_log_matches_plain_semaphore(
        permits in 1usize..4,
        plans in proptest::collection::vec(cancel_plan(5), 2..14),
    ) {
        // The (class, seq) tie-break under AdmissionPolicy::Fifo reduces
        // to global arrival order: grant logs — tasks and instants — are
        // identical to the plain FIFO semaphore, cancellations included.
        let (a, _) = run_cancel_scenario(AnySem::Plain(Semaphore::new(permits)), permits, &plans);
        let (b, _) =
            run_cancel_scenario(AnySem::Prio(PrioritySemaphore::fifo(permits)), permits, &plans);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn run_outcome_time_is_last_event(times in proptest::collection::vec(0u64..1_000, 1..50)) {
        let sim = Sim::new();
        for &t in &times {
            sim.schedule_at(SimTime::from_nanos(t), || {});
        }
        let out = sim.run();
        prop_assert_eq!(out.end_time.as_nanos(), *times.iter().max().unwrap());
        prop_assert_eq!(out.stranded_tasks, 0);
    }

    #[test]
    fn surviving_timers_fire_exactly_on_time(
        programs in proptest::collection::vec(proptest::collection::vec(timer_op(), 1..16), 1..6),
    ) {
        // Several tasks share one timer slab and calendar, so dropped
        // sleeps, won and lost timeouts and cancelled handles free slots
        // that other tasks' timers reuse at once under a new generation.
        // Every surviving sleeper must wake exactly at `now + delay`, no
        // cancelled action may run, and the run must end at the last
        // surviving deadline: a stale entry neither fires nor advances
        // the clock.
        let sim = Sim::new();
        let late: Rc<RefCell<Vec<String>>> = Rc::default();
        let mut last_deadline = 0u64;
        for (task, program) in programs.iter().enumerate() {
            // The task's timeline follows from its program alone.
            let mut t = 0u64;
            for &op in program {
                match op {
                    TimerOp::Sleep(d) | TimerOp::TimeoutWins(d, _) => t += d,
                    TimerOp::TimeoutLoses(limit, _) => t += limit,
                    TimerOp::Drop(_) => {}
                    TimerOp::Rearm(_, d2) => last_deadline = last_deadline.max(t + d2),
                }
            }
            last_deadline = last_deadline.max(t);
            let (s, late, program) = (sim.clone(), Rc::clone(&late), program.clone());
            sim.spawn(async move {
                let check = |what: &str, want: u64| {
                    let got = s.now().as_nanos();
                    if got != want {
                        late.borrow_mut().push(format!("task {task} {what}: {got} != {want}"));
                    }
                };
                for op in program {
                    let t0 = s.now().as_nanos();
                    let ns = SimDuration::from_nanos;
                    match op {
                        TimerOp::Sleep(d) => {
                            s.sleep(ns(d)).await;
                            check("sleep", t0 + d);
                        }
                        TimerOp::Drop(d) => drop(s.sleep(ns(d))),
                        TimerOp::TimeoutWins(d, slack) => {
                            let r = timeout(&s, ns(d + slack), s.sleep(ns(d))).await;
                            check(if r.is_ok() { "timeout win" } else { "timeout win lost" }, t0 + d);
                        }
                        TimerOp::TimeoutLoses(limit, over) => {
                            let r = timeout(&s, ns(limit), s.sleep(ns(limit + 1 + over))).await;
                            check(if r.is_err() { "timeout loss" } else { "timeout loss won" }, t0 + limit);
                        }
                        TimerOp::Rearm(d1, d2) => {
                            let late2 = Rc::clone(&late);
                            let first = s.schedule_cancellable_after(ns(d1), move || {
                                late2.borrow_mut().push(format!("task {task}: cancelled action ran"));
                            });
                            let (s2, late3) = (s.clone(), Rc::clone(&late));
                            first.cancel();
                            let second = s.schedule_cancellable_after(ns(d2), move || {
                                let got = s2.now().as_nanos();
                                if got != t0 + d2 {
                                    late3.borrow_mut().push(format!("task {task} re-armed action: {got} != {}", t0 + d2));
                                }
                            });
                            if first.is_armed() || !second.is_armed() {
                                late.borrow_mut().push(format!("task {task}: handle armed state"));
                            }
                        }
                    }
                }
            });
        }
        let out = sim.run();
        prop_assert_eq!(out.stranded_tasks, 0);
        prop_assert_eq!(late.borrow().clone(), Vec::<String>::new());
        prop_assert_eq!(out.end_time.as_nanos(), last_deadline);
    }
}
