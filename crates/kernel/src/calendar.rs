//! Event calendars: the priority structure behind [`crate::Sim`].
//!
//! The production calendar is a **hierarchical timer wheel**
//! ([`TimerWheel`]): six levels of 64 slots each, slot width growing by
//! 64× per level, so any deadline within ~68.7 simulated seconds of the
//! wheel's clock inserts in O(1). Deadlines beyond the horizon park in a
//! sorted overflow map and migrate into the wheel as the clock
//! approaches. Entries are `(at, seq, item)` and pop in `(at, seq)`
//! order — the exact contract of the binary heap it replaced, so the
//! default FIFO schedule stays bit-identical to checked-in artifacts.
//!
//! The old heap survives as [`HeapCalendar`], compiled under tests and
//! the `heap-calendar` feature only. It is the oracle for the proptest
//! equivalence suite and the baseline side of `xp kernel-bench`.
//!
//! # Level placement and the cascade invariant
//!
//! An entry's level is derived from `at ^ now`: the highest bit where
//! the deadline differs from the wheel clock, divided by 6 (the slot
//! width in bits). Its slot at level `l` is bits `[6l, 6l+6)` of `at` —
//! absolute, not relative, so a slot never needs recomputation as `now`
//! advances. Three facts keep the pop loop correct:
//!
//! 1. a pending entry never leaves its rotation: `at >> 6(l+1)` equals
//!    `now >> 6(l+1)` for as long as the entry is stored at level `l`
//!    (the clock never passes the minimum pending deadline);
//! 2. at insert, the highest differing bit lies inside the slot field,
//!    so the entry's slot is strictly greater than the clock's slot at
//!    that level (level ≥ 1) — and stays ≥ it afterwards;
//! 3. therefore every level-`l ≥ 1` entry is later than every entry at
//!    levels below `l`, and the lowest non-empty level's lowest
//!    occupied slot always contains the global minimum.
//!
//! Popping a level-0 slot yields exact deadlines (level-0 slots are one
//! nanosecond wide, so a slot holds ties only, ordered by `seq`).
//! Selecting a level-`l ≥ 1` slot that holds a single entry pops that
//! entry directly and sets the clock to its deadline: by fact 3 it is
//! the global minimum, and every other entry shares the bits above
//! level `l` with it and sits in a later slot of level `l` or above, so
//! facts 1 and 2 still hold at the new clock. A sparse calendar (one
//! sleep per task, far apart) pops almost entirely this way. Selecting a
//! slot with more entries instead advances the clock to the slot's base
//! time and re-inserts its entries, which land at strictly lower levels
//! (they now share the slot field with the clock) — the cascade
//! terminates in at most [`LEVELS`] rounds per entry.
//!
//! # Slot buffers are reused
//!
//! A drained slot keeps its `Vec`: a level-0 slot trades buffers with
//! the (empty) due batch, and a cascaded slot gets its own buffer back
//! once its entries are re-filed, since they all land lower. Pushing
//! into a slot that has been used before therefore does not allocate.
//! A buffer grown past [`KEEP_CAPACITY`] by a burst is freed instead, so
//! the memory the wheel keeps stays bounded by a fixed constant.

use std::collections::BTreeMap;

/// Bits per wheel level: 64 slots.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels. Six levels cover `2^36` ns ≈ 68.7 s of
/// simulated time ahead of the clock; later deadlines overflow.
const LEVELS: usize = 6;
/// First deadline distance (as `at ^ now`) that no longer fits the wheel.
const HORIZON: u64 = 1 << (SLOT_BITS as u64 * LEVELS as u64);
/// Largest capacity (in entries) an emptied slot buffer keeps; bigger
/// buffers are freed when their slot drains.
const KEEP_CAPACITY: usize = 16;

/// One calendar entry.
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

/// Hierarchical timer wheel keyed on `(at, seq)`.
///
/// `push` is O(1) for deadlines within the horizon (O(log n) into the
/// overflow map beyond it); `pop_next` is amortized O(1) plus at most
/// [`LEVELS`] cascades over an entry's lifetime, and none for an entry
/// that is alone in its slot when the clock reaches it. Ties on `at` pop in
/// `seq` order, matching the binary-heap calendar bit for bit.
pub struct TimerWheel<T> {
    /// The wheel clock: greatest deadline popped so far (or a cascade
    /// base ≤ the minimum pending deadline). Monotone non-decreasing.
    now: u64,
    /// `levels[l][s]`: entries with slot `s` at level `l`.
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Per-level occupancy bitmap; bit `s` set ⇔ `levels[l][s]` non-empty.
    occupied: [u64; LEVELS],
    /// Entries beyond the wheel horizon, sorted by `(at, seq)`.
    overflow: BTreeMap<(u64, u64), T>,
    /// Same-instant batch drained from a level-0 slot, sorted by `seq`
    /// descending so the next entry pops from the back in O(1).
    due: Vec<Entry<T>>,
    /// Number of entries across levels, overflow, and the due batch.
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    pub fn new() -> Self {
        TimerWheel {
            now: 0,
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            overflow: BTreeMap::new(),
            due: Vec::new(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel clock (ns). Never decreases; never passes the minimum
    /// pending deadline.
    pub fn now(&self) -> u64 {
        self.now
    }

    fn slot_of(at: u64, level: usize) -> usize {
        ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// Inserts an entry into the wheel proper (caller has checked the
    /// horizon).
    fn insert_wheel(&mut self, at: u64, seq: u64, item: T) {
        let delta = at ^ self.now;
        let level = if delta == 0 {
            0
        } else {
            ((63 - delta.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = Self::slot_of(at, level);
        self.levels[level][slot].push(Entry { at, seq, item });
        self.occupied[level] |= 1 << slot;
    }

    /// Schedules `item` at `(at, seq)`. `at` must be ≥ every pop the
    /// caller has *observed* and `seq` unique (the executor's clock and
    /// scheduling counter guarantee both). An empty wheel rewinds its
    /// clock to the pushed deadline: the internal clock may sit past the
    /// caller's (it advances over discarded dead entries — see
    /// [`TimerWheel::pop_next_alive`]) and with nothing pending there is
    /// nothing the rewind could disorder.
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        if self.len == 0 && at < self.now {
            self.now = at;
        }
        debug_assert!(at >= self.now, "push into the past: {at} < {}", self.now);
        if (at ^ self.now) >= HORIZON {
            self.overflow.insert((at, seq), item);
        } else {
            self.insert_wheel(at, seq, item);
        }
        self.len += 1;
    }

    /// Removes and returns the earliest entry by `(at, seq)`, advancing
    /// the clock to its deadline.
    pub fn pop_next(&mut self) -> Option<(u64, u64, T)> {
        self.pop_next_alive(|_| false)
    }

    /// [`TimerWheel::pop_next`], but entries for which `is_dead` returns
    /// true are discarded in passing (and dropped) rather than returned.
    /// The clock still rides the internal search (it never passes the
    /// minimum *remaining* deadline), but the caller only observes it at
    /// live entries — so a trailing run of dead entries leaves the
    /// caller's view of time untouched, matching the executor's
    /// "a cancelled deadline never advances the clock" contract.
    pub fn pop_next_alive(&mut self, mut is_dead: impl FnMut(&T) -> bool) -> Option<(u64, u64, T)> {
        loop {
            let e = self.pop_entry()?;
            if is_dead(&e.item) {
                continue;
            }
            return Some((e.at, e.seq, e.item));
        }
    }

    /// Removes the earliest entry by `(at, seq)` regardless of liveness.
    fn pop_entry(&mut self) -> Option<Entry<T>> {
        if self.len == 0 {
            return None;
        }
        // Same-instant batch first: everything in it precedes (by seq)
        // anything still in the wheel at this instant.
        if let Some(e) = self.due.pop() {
            self.len -= 1;
            debug_assert!(e.at == self.now);
            return Some(e);
        }
        loop {
            // Pull overflow entries that fit the horizon relative to the
            // current clock. Each entry migrates at most once.
            while let Some((&(at, seq), _)) = self.overflow.first_key_value() {
                if (at ^ self.now) < HORIZON {
                    let item = self.overflow.remove(&(at, seq)).expect("first key present");
                    self.insert_wheel(at, seq, item);
                } else {
                    break;
                }
            }
            let Some(level) = self.occupied.iter().position(|&b| b != 0) else {
                // Wheel empty: the overflow minimum is the global
                // minimum. Jump the clock to it and migrate.
                let (&(at, _), _) = self.overflow.first_key_value().expect("len > 0");
                self.now = at;
                continue;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            self.occupied[level] &= !(1 << slot);
            if level == 0 {
                // One-nanosecond slot: all entries share `at`. Drain it
                // as the due batch, min seq popping first. The (empty)
                // previous due buffer takes the slot's place, so neither
                // side reallocates on the next push.
                let spare = Self::keepable(std::mem::take(&mut self.due));
                self.due = std::mem::replace(&mut self.levels[0][slot], spare);
                self.due.sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
                let e = self.due.pop().expect("occupied slot is non-empty");
                self.now = e.at;
                self.len -= 1;
                return Some(e);
            }
            if self.levels[level][slot].len() == 1 {
                // A lone entry in the minimum slot is the global minimum:
                // pop it straight away instead of cascading it down one
                // level at a time. The clock may jump to its deadline,
                // since every other entry shares the bits above this
                // level with it and sits in a later slot here or higher.
                let mut buf = std::mem::take(&mut self.levels[level][slot]);
                let e = buf.pop().expect("one entry");
                self.levels[level][slot] = Self::keepable(buf);
                self.now = e.at;
                self.len -= 1;
                return Some(e);
            }
            // Cascade: advance the clock to the slot's base time (≤ every
            // deadline in the slot, ≥ the old clock by the slot-order
            // invariant) and re-insert. Entries now share this level's
            // slot field with the clock, so they land strictly lower.
            let width = SLOT_BITS * level as u32;
            let base =
                (self.now >> (width + SLOT_BITS) << (width + SLOT_BITS)) | ((slot as u64) << width);
            debug_assert!(base >= self.now);
            self.now = base;
            let mut entries = std::mem::take(&mut self.levels[level][slot]);
            for e in entries.drain(..) {
                self.insert_wheel(e.at, e.seq, e.item);
            }
            // Every entry landed strictly lower, so the slot is still
            // empty: hand its buffer back.
            debug_assert!(self.levels[level][slot].is_empty());
            self.levels[level][slot] = Self::keepable(entries);
        }
    }

    /// An emptied slot buffer worth keeping for reuse: small ones are
    /// kept (a slot refills at most once per rotation, so reallocating
    /// it is pure churn), while one a rare burst grew past
    /// [`KEEP_CAPACITY`] is released so peak memory stays bounded.
    fn keepable(buf: Vec<Entry<T>>) -> Vec<Entry<T>> {
        debug_assert!(buf.is_empty());
        if buf.capacity() > KEEP_CAPACITY {
            Vec::new()
        } else {
            buf
        }
    }

    /// Drops every entry for which `is_dead` returns true and returns
    /// how many were removed. Used by the executor to compact cancelled
    /// timers out of the calendar.
    pub fn compact(&mut self, mut is_dead: impl FnMut(&T) -> bool) -> usize {
        let before = self.len;
        for level in 0..LEVELS {
            let mut occ = self.occupied[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let v = &mut self.levels[level][slot];
                v.retain(|e| !is_dead(&e.item));
                if v.is_empty() {
                    self.occupied[level] &= !(1 << slot);
                }
            }
        }
        self.due.retain(|e| !is_dead(&e.item));
        self.overflow.retain(|_, item| !is_dead(item));
        self.len = self.overflow.len()
            + self.due.len()
            + self
                .levels
                .iter()
                .flat_map(|slots| slots.iter())
                .map(Vec::len)
                .sum::<usize>();
        before - self.len
    }
}

/// The pre-wheel calendar: a binary heap on `(at, seq)`. Kept as the
/// proptest oracle and `xp kernel-bench` baseline under `cfg(test)` or
/// the `heap-calendar` feature; the executor no longer uses it.
#[cfg(any(test, feature = "heap-calendar"))]
pub struct HeapCalendar<T> {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<HeapEntry<T>>>,
}

#[cfg(any(test, feature = "heap-calendar"))]
struct HeapEntry<T> {
    at: u64,
    seq: u64,
    item: T,
}

#[cfg(any(test, feature = "heap-calendar"))]
mod heap_impl {
    use super::{HeapCalendar, HeapEntry};
    use std::cmp::Reverse;

    impl<T> PartialEq for HeapEntry<T> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<T> Eq for HeapEntry<T> {}
    impl<T> PartialOrd for HeapEntry<T> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<T> Ord for HeapEntry<T> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.at, self.seq).cmp(&(other.at, other.seq))
        }
    }

    impl<T> Default for HeapCalendar<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> HeapCalendar<T> {
        pub fn new() -> Self {
            HeapCalendar {
                heap: std::collections::BinaryHeap::new(),
            }
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        pub fn push(&mut self, at: u64, seq: u64, item: T) {
            self.heap.push(Reverse(HeapEntry { at, seq, item }));
        }

        pub fn pop_next(&mut self) -> Option<(u64, u64, T)> {
            self.heap.pop().map(|Reverse(e)| (e.at, e.seq, e.item))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(30, 0, "c");
        w.push(10, 1, "a");
        w.push(10, 2, "b");
        w.push(20, 3, "m");
        assert_eq!(w.pop_next(), Some((10, 1, "a")));
        assert_eq!(w.pop_next(), Some((10, 2, "b")));
        assert_eq!(w.pop_next(), Some((20, 3, "m")));
        assert_eq!(w.pop_next(), Some((30, 0, "c")));
        assert_eq!(w.pop_next(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_deadlines_cross_levels_and_horizon() {
        let mut w = TimerWheel::new();
        // One deadline per level plus two beyond the horizon.
        let ats = [
            3u64,
            100,
            5_000,
            300_000,
            20_000_000,
            1 << 33,
            HORIZON + 7,
            HORIZON * 3,
        ];
        for (i, &at) in ats.iter().enumerate() {
            w.push(at, i as u64, at);
        }
        let mut got = Vec::new();
        while let Some((at, _, item)) = w.pop_next() {
            assert_eq!(at, item);
            got.push(at);
        }
        let mut want = ats.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn push_while_popping_at_same_instant_keeps_seq_order() {
        let mut w = TimerWheel::new();
        w.push(50, 0, 0u32);
        w.push(50, 1, 1);
        assert_eq!(w.pop_next(), Some((50, 0, 0)));
        // An action fired at t=50 schedules more work at t=50: higher seq,
        // must pop after the rest of the batch.
        w.push(50, 2, 2);
        assert_eq!(w.pop_next(), Some((50, 1, 1)));
        assert_eq!(w.pop_next(), Some((50, 2, 2)));
        assert_eq!(w.pop_next(), None);
    }

    #[test]
    fn interleaved_pushes_track_the_clock() {
        let mut w = TimerWheel::new();
        w.push(1_000, 0, 0u32);
        assert_eq!(w.pop_next(), Some((1_000, 0, 0)));
        // The clock is 1000 now; near and far pushes still order.
        w.push(1_001, 1, 1);
        w.push(1_000, 2, 2);
        w.push(70_000, 3, 3);
        assert_eq!(w.pop_next(), Some((1_000, 2, 2)));
        assert_eq!(w.pop_next(), Some((1_001, 1, 1)));
        assert_eq!(w.pop_next(), Some((70_000, 3, 3)));
    }

    /// A lone entry in the minimum slot pops without cascading, at every
    /// level above 0 and right after migrating out of the overflow map:
    /// it comes out first, the clock lands on its deadline, and the slot
    /// is free for the next rotation.
    #[test]
    fn lone_entry_pops_directly_and_moves_the_clock_to_its_deadline() {
        for level in 1..LEVELS as u32 {
            let mut w = TimerWheel::new();
            let at = (1u64 << (SLOT_BITS * level)) + 3;
            let later = at + (1 << (SLOT_BITS * level));
            w.push(at, 0, "lone");
            w.push(later, 1, "later");
            assert_eq!(w.pop_next(), Some((at, 0, "lone")), "level {level}");
            assert_eq!(w.now(), at, "level {level}");
            // A tie pushed at the new clock still pops before `later`.
            w.push(at, 2, "tie");
            assert_eq!(w.pop_next(), Some((at, 2, "tie")), "level {level}");
            assert_eq!(w.pop_next(), Some((later, 1, "later")), "level {level}");
            assert_eq!(w.now(), later);
            assert!(w.is_empty());
        }
        // Both entries start beyond the horizon. The first pop jumps the
        // clock to the earlier one and migrates both; the second, alone
        // at level 2, pops directly.
        let mut w = TimerWheel::new();
        w.push(HORIZON + 10, 0, "first");
        w.push(HORIZON + 5_000, 1, "migrated");
        assert_eq!(w.pop_next(), Some((HORIZON + 10, 0, "first")));
        assert_eq!(w.now(), HORIZON + 10);
        assert_eq!(w.pop_next(), Some((HORIZON + 5_000, 1, "migrated")));
        assert_eq!(w.now(), HORIZON + 5_000);
        assert!(w.is_empty());
    }

    #[test]
    fn compact_removes_dead_entries_everywhere() {
        let mut w = TimerWheel::new();
        for i in 0..100u64 {
            // Spread across levels and overflow; odd items are "dead".
            w.push(i * i * i * 17 + 1, i, i);
        }
        let removed = w.compact(|&i| i % 2 == 1);
        assert_eq!(removed, 50);
        assert_eq!(w.len(), 50);
        let mut prev = None;
        while let Some((at, _, i)) = w.pop_next() {
            assert_eq!(i % 2, 0);
            assert!(prev <= Some(at));
            prev = Some(at);
        }
    }

    /// Drives the wheel and the heap oracle with the same operation
    /// sequence and requires identical pop streams. Deadline deltas are
    /// biased across all wheel levels and past the overflow horizon;
    /// interleaved pops advance the clock mid-stream.
    fn equivalence_ops() -> impl Strategy<Value = Vec<(u64, bool)>> {
        let delta = prop_oneof![
            4 => 0u64..64,               // level 0 / same instant
            4 => 64u64..4096,            // level 1
            3 => 4096u64..262_144,       // level 2
            2 => 262_144u64..(1 << 24),  // levels 3-4
            2 => (1u64 << 24)..(1 << 36), // level 5
            1 => (1u64 << 36)..(1 << 40), // overflow
        ];
        proptest::collection::vec((delta, any::<bool>()), 1..200)
    }

    /// The sparse arm: few entries, far apart, popped as often as they
    /// are pushed, so most pops find their slot holding a lone entry and
    /// take the direct path, while the odd pair still cascades.
    fn sparse_ops() -> impl Strategy<Value = Vec<(u64, bool)>> {
        let delta = prop_oneof![
            1 => 0u64..64,
            3 => 64u64..(1 << 36),
            1 => (1u64 << 36)..(1 << 40),
        ];
        let pop = prop_oneof![3 => Just(true), 1 => Just(false)];
        proptest::collection::vec((delta, pop), 1..60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn wheel_matches_heap_oracle(
            (ops, ties) in prop_oneof![
                (equivalence_ops(), 0u64..8),
                (sparse_ops(), Just(0u64)),
            ]
        ) {
            let mut wheel = TimerWheel::new();
            let mut heap = HeapCalendar::new();
            let mut clock = 0u64; // mirror of the executor's `now`
            let mut seq = 0u64;
            for (delta, pop) in ops {
                // Schedule relative to the popped clock, plus a burst of
                // ties at the same instant to exercise seq ordering.
                for _ in 0..=(seq % (ties + 1)) {
                    let at = clock + delta;
                    wheel.push(at, seq, seq);
                    heap.push(at, seq, seq);
                    seq += 1;
                }
                if pop {
                    let a = wheel.pop_next();
                    let b = heap.pop_next();
                    prop_assert_eq!(a, b);
                    if let Some((at, _, _)) = a {
                        clock = at;
                    }
                }
            }
            loop {
                let a = wheel.pop_next();
                let b = heap.pop_next();
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert!(wheel.is_empty());
        }
    }
}
