//! Allocation budget of the per-field request path.
//!
//! Every field operation builds a key, reads its canonical text to split
//! and look it up, and launches its composite operation on an event
//! queue; a write also encodes an index entry. None of that should
//! rebuild strings or boxes it only reads.
//! This binary installs a counting global allocator (counting per
//! thread, so the test harness's own threads do not disturb a count)
//! and pins the budget of each step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use daosim_core::cycle::{cycle_key, IndexLayout};
use daosim_core::fieldio::IndexEntry;
use daosim_core::key::KeySchema;
use daosim_objstore::{
    EmbeddedClient, EventQueue, ObjectClass, Oid, OpOutput, Pool, Uuid, DEFAULT_POOL_CAPACITY,
};

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

#[test]
fn cycle_key_allocates_once() {
    for layout in IndexLayout::all() {
        // The widest values every field of the key can take.
        for (writer, step, field) in [(0, 0, 0), (7, 289, 3), (u32::MAX, u32::MAX, u32::MAX)] {
            let before = allocs();
            let key = cycle_key(layout, writer, step, field);
            let n = allocs() - before;
            assert!(n <= 1, "{layout:?} {}: {n} allocations", key.canonical());
        }
    }
}

#[test]
fn canonical_text_allocates_nothing() {
    let key = cycle_key(IndexLayout::Shared, 3, 14, 2);
    let (msk, lsk) = key.split(&KeySchema::ecmwf());
    let before = allocs();
    let total = key.canonical().len() + msk.canonical().len() + lsk.canonical().len();
    let n = allocs() - before;
    assert_eq!(n, 0, "reading canonical text allocated {n} times");
    assert_eq!(total, 2 * key.canonical().len() - 1);
}

#[test]
fn index_entry_encodes_in_one_allocation() {
    let entry = IndexEntry {
        store_cont: Uuid::NIL,
        oid: Oid::generate(3, 77, ObjectClass::S2),
        len: 5 << 20,
    };
    let before = allocs();
    let raw = entry.encode();
    let n = allocs() - before;
    assert_eq!(n, 1, "encoding an index entry allocated {n} times");
    assert_eq!(IndexEntry::decode(&raw), Some(entry));
}

#[test]
fn submitting_a_ready_future_boxes_once() {
    let pool = Rc::new(Pool::new(Uuid::NIL, 24, DEFAULT_POOL_CAPACITY));
    let eq = EventQueue::new(EmbeddedClient::new(pool));
    let submit_and_harvest = || {
        let before = allocs();
        let ev = eq.submit(async { Ok(OpOutput::Unit) });
        let n = allocs() - before;
        let (done, out) = eq.poll().expect("embedded ops complete inline");
        assert_eq!((done, out), (ev, Ok(OpOutput::Unit)));
        n
    };
    // Warm-up: the completion queue grows its buffer once.
    for _ in 0..4 {
        submit_and_harvest();
    }
    for _ in 0..100 {
        let n = submit_and_harvest();
        assert_eq!(n, 1, "one submit allocated {n} times");
    }
}
