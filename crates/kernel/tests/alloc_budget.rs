//! Allocation budget of simulated time and uncontended admission.
//!
//! Every simulated RPC sleeps for its round trip and waits for admission
//! at a target queue, so these paths run hundreds of thousands of times
//! per simulated second. Once the timer slab, the wheel's slot buffers
//! and the executor's queues have warmed up they must not touch the
//! heap. This binary installs a counting global allocator (counting per
//! thread, so the test harness's own threads do not disturb a count)
//! and pins the budget of each path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use daosim_kernel::sync::PrioritySemaphore;
use daosim_kernel::{AdmissionClass, AdmissionPolicy, Sim, SimDuration, SimTime};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also serves threads being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) made so far on this thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Warm-up iterations before counting: long enough for the sleep loops
/// below to touch every wheel slot their deadlines use while measuring
/// (20 ms of 1 µs steps covers levels 0–3; the next level-4 slot is
/// first needed at 2^25 ns ≈ 33.5 ms, after the measured window).
const WARMUP: u32 = 20_000;
const MEASURED: u32 = 10_000;
const STEP: SimDuration = SimDuration::from_micros(1);

/// Runs `body` for `WARMUP` iterations, then counts the allocations of
/// `MEASURED` more, all inside one simulated task.
fn steady_state_allocs<F, Fut>(body: F) -> u64
where
    F: Fn(Sim) -> Fut + 'static,
    Fut: Future<Output = ()>,
{
    let sim = Sim::new();
    let counted: Rc<Cell<Option<u64>>> = Rc::default();
    let (s, out) = (sim.clone(), Rc::clone(&counted));
    sim.spawn(async move {
        for _ in 0..WARMUP {
            body(s.clone()).await;
        }
        let before = allocs();
        for _ in 0..MEASURED {
            body(s.clone()).await;
        }
        out.set(Some(allocs() - before));
    });
    sim.run().expect_quiescent();
    counted.get().expect("the measuring task finished")
}

#[test]
fn steady_state_sleep_loop_allocates_nothing() {
    let n = steady_state_allocs(|s| async move { s.sleep(STEP).await });
    assert_eq!(n, 0, "{n} allocations over {MEASURED} sleeps");
}

#[test]
fn dropping_an_armed_sleep_allocates_nothing() {
    // Each iteration abandons a far deadline, leaving a tombstone that
    // compaction later sweeps out, and then sleeps one step. Only the
    // drops are counted: arming beside a pile of tombstones may still
    // grow a wheel slot's buffer.
    let sim = Sim::new();
    let counted: Rc<Cell<Option<u64>>> = Rc::default();
    let (s, out) = (sim.clone(), Rc::clone(&counted));
    sim.spawn(async move {
        let mut n = 0;
        for i in 0..WARMUP + MEASURED {
            let far = s.sleep(SimDuration::from_millis(3));
            let before = allocs();
            drop(far);
            if i >= WARMUP {
                n += allocs() - before;
            }
            s.sleep(STEP).await;
        }
        out.set(Some(n));
    });
    sim.run().expect_quiescent();
    let n = counted.get().expect("the measuring task finished");
    assert_eq!(n, 0, "{n} allocations over {MEASURED} dropped sleeps");
}

#[test]
fn uncontended_acquire_allocates_nothing() {
    let waker = Waker::noop();
    let mut cx = Context::from_waker(waker);
    for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::writer_priority()] {
        let sem = PrioritySemaphore::new(2, policy);
        for class in [AdmissionClass::Urgent, AdmissionClass::Normal] {
            let before = allocs();
            for _ in 0..100 {
                let mut acquire = sem.acquire_one(class);
                let Poll::Ready(permit) = Pin::new(&mut acquire).poll(&mut cx) else {
                    panic!("an uncontended acquire must be granted on its first poll");
                };
                drop(permit);
            }
            let n = allocs() - before;
            assert_eq!(
                n, 0,
                "{policy:?}/{class:?}: {n} allocations over 100 acquires"
            );
            assert_eq!(sem.available(), 2);
        }
    }
}

#[test]
fn schedule_cancellable_at_allocates_only_its_action() {
    let sim = Sim::new();
    let hits: Rc<Cell<u32>> = Rc::default();
    let arm = |at: u64| {
        let hits = Rc::clone(&hits);
        sim.schedule_cancellable_at(SimTime::from_nanos(at), move || hits.set(hits.get() + 1))
    };
    // Warm the slab slot and the wheel slot this deadline files into.
    arm(1_000).cancel();
    let before = allocs();
    let handle = arm(1_000);
    let n = allocs() - before;
    assert_eq!(n, 1, "arming a cancellable action allocated {n} times");
    assert!(handle.cancel());
    sim.run().expect_quiescent();
    assert_eq!(hits.get(), 0);
}
