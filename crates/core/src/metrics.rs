//! Benchmark metrics: timestamped events and the paper's throughput
//! definitions (§5.5).
//!
//! Benchmarks record timestamps for named events, each tagged with the
//! client node, process and iteration it belongs to. From those, two
//! bandwidths are derived:
//!
//! * **synchronous bandwidth** (Eq. 1) — per-iteration parallel
//!   wall-clock bandwidth averaged over iterations; only meaningful for
//!   synchronised benchmarks (IOR);
//! * **global timing bandwidth** (Eq. 2) — total bytes over total
//!   parallel I/O wall-clock time; the paper's contribution for mixed,
//!   unsynchronised workloads on shared storage.

use std::cell::RefCell;
use std::rc::Rc;

use daosim_kernel::{SimDuration, SimTime};
use daosim_net::GIB;

/// The event names of §5.5.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    ExecStart,
    IoStart,
    OpenStart,
    OpenEnd,
    XferStart,
    XferEnd,
    CloseStart,
    CloseEnd,
    IoEnd,
    ExecEnd,
}

/// One timestamped benchmark event.
#[derive(Clone, Copy, Debug)]
pub struct EventRecord {
    pub node: u16,
    pub process: u32,
    pub iteration: u32,
    pub kind: EventKind,
    /// Nanoseconds since simulation start.
    pub t_ns: u64,
    /// Payload bytes, set on `IoEnd` (zero elsewhere).
    pub bytes: u64,
}

/// Shared event sink; clones record into the same buffer.
#[derive(Clone, Default)]
pub struct Recorder {
    events: Rc<RefCell<Vec<EventRecord>>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(
        &self,
        node: u16,
        process: u32,
        iteration: u32,
        kind: EventKind,
        t: SimTime,
        bytes: u64,
    ) {
        self.events.borrow_mut().push(EventRecord {
            node,
            process,
            iteration,
            kind,
            t_ns: t.as_nanos(),
            bytes,
        });
    }

    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    pub fn take(&self) -> Vec<EventRecord> {
        std::mem::take(&mut *self.events.borrow_mut())
    }

    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.events.borrow().clone()
    }
}

/// Renders an event trace as CSV (one line per event) for offline
/// analysis — the raw-timestamp artifact the paper's §5.5 pipeline
/// consumes.
pub fn events_to_csv(events: &[EventRecord]) -> String {
    let mut s = String::from("node,process,iteration,event,t_ns,bytes\n");
    for e in events {
        use std::fmt::Write as _;
        let _ = writeln!(
            s,
            "{},{},{},{:?},{},{}",
            e.node, e.process, e.iteration, e.kind, e.t_ns, e.bytes
        );
    }
    s
}

/// Derived statistics for one benchmark phase.
#[derive(Clone, Copy, Debug)]
pub struct PhaseStats {
    pub total_bytes: u64,
    pub io_count: usize,
    /// Total parallel I/O wall-clock time (max IoEnd − min IoStart).
    pub wall_secs: f64,
    /// Global timing bandwidth (Eq. 2), GiB/s.
    pub global_bw_gib: f64,
    /// Synchronous bandwidth (Eq. 1), GiB/s — `None` when iterations are
    /// not synchronised across processes.
    pub synchronous_bw_gib: Option<f64>,
}

/// Total parallel I/O wall-clock time of §5.5.
pub fn total_parallel_io_wallclock(events: &[EventRecord]) -> Option<SimDuration> {
    let start = events
        .iter()
        .filter(|e| e.kind == EventKind::IoStart)
        .map(|e| e.t_ns)
        .min()?;
    let end = events
        .iter()
        .filter(|e| e.kind == EventKind::IoEnd)
        .map(|e| e.t_ns)
        .max()?;
    (end >= start).then(|| SimDuration::from_nanos(end - start))
}

/// Single-iteration parallel I/O wall-clock time of §5.5.
pub fn single_iteration_wallclock(events: &[EventRecord], iteration: u32) -> Option<SimDuration> {
    let start = events
        .iter()
        .filter(|e| e.kind == EventKind::IoStart && e.iteration == iteration)
        .map(|e| e.t_ns)
        .min()?;
    let end = events
        .iter()
        .filter(|e| e.kind == EventKind::IoEnd && e.iteration == iteration)
        .map(|e| e.t_ns)
        .max()?;
    (end >= start).then(|| SimDuration::from_nanos(end - start))
}

/// Synchronous bandwidth (Eq. 1): per-iteration aggregate bandwidth,
/// averaged over complete iterations. GiB/s. Iterations cut short by a
/// fault (no `IoStart`/`IoEnd`, or a zero-length window) are left out of
/// the average instead of poisoning the whole run; `None` when no
/// iteration completed.
pub fn synchronous_bandwidth(events: &[EventRecord]) -> Option<f64> {
    let mut iters: Vec<u32> = events.iter().map(|e| e.iteration).collect();
    iters.sort_unstable();
    iters.dedup();
    let mut complete = 0usize;
    let mut acc = 0.0;
    for it in &iters {
        let wall = match single_iteration_wallclock(events, *it) {
            Some(w) if w > SimDuration::ZERO => w,
            _ => continue,
        };
        let bytes: u64 = events
            .iter()
            .filter(|e| e.kind == EventKind::IoEnd && e.iteration == *it)
            .map(|e| e.bytes)
            .sum();
        acc += bytes as f64 / GIB / wall.as_secs_f64();
        complete += 1;
    }
    (complete > 0).then(|| acc / complete as f64)
}

/// Global timing bandwidth (Eq. 2). GiB/s.
pub fn global_timing_bandwidth(events: &[EventRecord]) -> Option<f64> {
    let wall = total_parallel_io_wallclock(events)?;
    if wall == SimDuration::ZERO {
        return None;
    }
    let bytes: u64 = events
        .iter()
        .filter(|e| e.kind == EventKind::IoEnd)
        .map(|e| e.bytes)
        .sum();
    Some(bytes as f64 / GIB / wall.as_secs_f64())
}

/// Per-operation latency distribution for one phase. Percentiles use the
/// nearest-rank definition (p-th percentile = value at 1-based rank
/// `ceil(p·n)`), so small samples report an observed latency rather than
/// rounding up to the max.
#[derive(Clone, Copy, Debug)]
pub struct LatencyStats {
    pub count: usize,
    /// Operations whose `IoStart` or `IoEnd` had no partner event —
    /// typically fault-interrupted I/O — excluded from the distribution.
    pub incomplete: usize,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

/// Matches `IoStart`/`IoEnd` pairs per `(node, process, iteration)` and
/// summarises the per-operation latency distribution; unmatched events
/// are counted in [`LatencyStats::incomplete`] rather than silently
/// dropped. `None` when no operation completed.
pub fn latency_stats(events: &[EventRecord]) -> Option<LatencyStats> {
    use std::collections::HashMap;
    let mut starts: HashMap<(u16, u32, u32), u64> = HashMap::new();
    let mut lats_ns: Vec<u64> = Vec::new();
    let mut unmatched_ends = 0usize;
    for e in events {
        let id = (e.node, e.process, e.iteration);
        match e.kind {
            // A start overwriting an unfinished start means the earlier
            // operation never completed.
            EventKind::IoStart if starts.insert(id, e.t_ns).is_some() => {
                unmatched_ends += 1;
            }
            EventKind::IoStart => {}
            EventKind::IoEnd => {
                if let Some(s) = starts.remove(&id) {
                    lats_ns.push(e.t_ns.saturating_sub(s));
                } else {
                    unmatched_ends += 1;
                }
            }
            _ => {}
        }
    }
    let incomplete = unmatched_ends + starts.len();
    if lats_ns.is_empty() {
        return None;
    }
    lats_ns.sort_unstable();
    let pct = |p: f64| -> f64 {
        // Nearest-rank: 1-based rank ceil(p·n), clamped into range.
        let rank = (p * lats_ns.len() as f64).ceil() as usize;
        lats_ns[rank.clamp(1, lats_ns.len()) - 1] as f64 / 1_000.0
    };
    let mean = lats_ns.iter().sum::<u64>() as f64 / lats_ns.len() as f64 / 1_000.0;
    Some(LatencyStats {
        count: lats_ns.len(),
        incomplete,
        mean_us: mean,
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        max_us: *lats_ns.last().unwrap() as f64 / 1_000.0,
    })
}

/// One bucket of a bandwidth-over-time breakdown.
#[derive(Clone, Copy, Debug)]
pub struct TimelineBucket {
    /// Bucket start, nanoseconds since simulation start.
    pub t_ns: u64,
    /// Bytes completing (IoEnd) within the bucket.
    pub bytes: u64,
    /// Bucket throughput, GiB/s.
    pub bw_gib: f64,
}

/// Buckets completed bytes over time — the ramp-up/straggler view a
/// single bandwidth number hides. Bytes are attributed to the bucket
/// containing each operation's `IoEnd`. Buckets are anchored at t=0 and
/// span `[0, end)`, so timelines built from different event streams of
/// the same run (e.g. writes and reads of a replay) line up row for row;
/// empty buckets are included so gaps are visible. Completions at or
/// past `end` land in the final bucket.
pub fn bandwidth_timeline(
    events: &[EventRecord],
    bucket: SimDuration,
    end: SimTime,
) -> Vec<TimelineBucket> {
    assert!(bucket > SimDuration::ZERO, "bucket must be positive");
    let step = bucket.as_nanos();
    let n = (end.as_nanos().div_ceil(step).max(1)) as usize;
    let mut buckets = vec![0u64; n];
    for e in events.iter().filter(|e| e.kind == EventKind::IoEnd) {
        let idx = ((e.t_ns / step) as usize).min(n - 1);
        buckets[idx] += e.bytes;
    }
    let secs = bucket.as_secs_f64();
    buckets
        .into_iter()
        .enumerate()
        .map(|(i, bytes)| TimelineBucket {
            t_ns: i as u64 * step,
            bytes,
            bw_gib: bytes as f64 / GIB / secs,
        })
        .collect()
}

/// Computes both bandwidths and packaging for one phase.
pub fn phase_stats(events: &[EventRecord], synchronised: bool) -> PhaseStats {
    let total_bytes = events
        .iter()
        .filter(|e| e.kind == EventKind::IoEnd)
        .map(|e| e.bytes)
        .sum();
    let io_count = events.iter().filter(|e| e.kind == EventKind::IoEnd).count();
    let wall = total_parallel_io_wallclock(events)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    PhaseStats {
        total_bytes,
        io_count,
        wall_secs: wall,
        global_bw_gib: global_timing_bandwidth(events).unwrap_or(0.0),
        synchronous_bw_gib: if synchronised {
            synchronous_bandwidth(events)
        } else {
            None
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(process: u32, iteration: u32, kind: EventKind, t_ns: u64, bytes: u64) -> EventRecord {
        EventRecord {
            node: 0,
            process,
            iteration,
            kind,
            t_ns,
            bytes,
        }
    }

    /// Two processes, one iteration: proc 0 does I/O over [0, 10s],
    /// proc 1 over [2s, 8s]; 1 GiB each.
    fn simple_phase() -> Vec<EventRecord> {
        const G: u64 = 1 << 30;
        vec![
            ev(0, 0, EventKind::IoStart, 0, 0),
            ev(1, 0, EventKind::IoStart, 2_000_000_000, 0),
            ev(1, 0, EventKind::IoEnd, 8_000_000_000, G),
            ev(0, 0, EventKind::IoEnd, 10_000_000_000, G),
        ]
    }

    #[test]
    fn latency_stats_zero_samples_is_none_not_nan() {
        // An idle reader fleet at cycle start yields no events at all —
        // that must be `None`, never a NaN/underflowed percentile row.
        assert!(latency_stats(&[]).is_none());
        // Only unmatched events (fault-interrupted I/O): still no
        // distribution to take percentiles over.
        let only_start = vec![ev(0, 0, EventKind::IoStart, 5, 0)];
        assert!(latency_stats(&only_start).is_none());
        let only_end = vec![ev(0, 0, EventKind::IoEnd, 5, 1)];
        assert!(latency_stats(&only_end).is_none());
    }

    #[test]
    fn latency_stats_one_sample_has_finite_degenerate_percentiles() {
        // Nearest-rank with n=1: every percentile is the one sample;
        // the rank clamp must not underflow to index -1.
        let evs = vec![
            ev(3, 0, EventKind::IoStart, 1_000, 0),
            ev(3, 0, EventKind::IoEnd, 4_000, 64),
        ];
        let s = latency_stats(&evs).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.incomplete, 0);
        for v in [s.mean_us, s.p50_us, s.p95_us, s.p99_us, s.max_us] {
            assert!(v.is_finite(), "degenerate percentile must be finite: {s:?}");
            assert_eq!(v, 3.0, "all stats equal the single 3 µs sample: {s:?}");
        }
    }

    #[test]
    fn latency_stats_one_complete_among_incomplete() {
        // One matched pair amid unmatched starts: count=1 percentiles,
        // incomplete tallied, everything finite.
        let evs = vec![
            ev(0, 0, EventKind::IoStart, 0, 0),
            ev(1, 0, EventKind::IoStart, 10, 0),
            ev(1, 0, EventKind::IoEnd, 2_010, 8),
        ];
        let s = latency_stats(&evs).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.incomplete, 1);
        assert_eq!(s.p99_us, 2.0);
        assert!(s.p99_us.is_finite());
    }

    #[test]
    fn total_wallclock_spans_min_start_to_max_end() {
        let d = total_parallel_io_wallclock(&simple_phase()).unwrap();
        assert_eq!(d.as_secs_f64(), 10.0);
    }

    #[test]
    fn global_bandwidth_eq2() {
        // 2 GiB over 10 s = 0.2 GiB/s.
        let bw = global_timing_bandwidth(&simple_phase()).unwrap();
        assert!((bw - 0.2).abs() < 1e-12);
    }

    #[test]
    fn synchronous_bandwidth_eq1_averages_iterations() {
        const G: u64 = 1 << 30;
        // Iter 0: 2 GiB over 2 s -> 1 GiB/s. Iter 1: 2 GiB over 4 s -> 0.5.
        let events = vec![
            ev(0, 0, EventKind::IoStart, 0, 0),
            ev(1, 0, EventKind::IoStart, 0, 0),
            ev(0, 0, EventKind::IoEnd, 2_000_000_000, G),
            ev(1, 0, EventKind::IoEnd, 1_000_000_000, G),
            ev(0, 1, EventKind::IoStart, 2_000_000_000, 0),
            ev(1, 1, EventKind::IoStart, 2_000_000_000, 0),
            ev(0, 1, EventKind::IoEnd, 6_000_000_000, G),
            ev(1, 1, EventKind::IoEnd, 4_000_000_000, G),
        ];
        let bw = synchronous_bandwidth(&events).unwrap();
        assert!((bw - 0.75).abs() < 1e-12, "got {bw}");
    }

    #[test]
    fn single_iteration_wallclock_filters_by_iteration() {
        const G: u64 = 1 << 30;
        let events = vec![
            ev(0, 0, EventKind::IoStart, 0, 0),
            ev(0, 0, EventKind::IoEnd, 1_000_000_000, G),
            ev(0, 1, EventKind::IoStart, 5_000_000_000, 0),
            ev(0, 1, EventKind::IoEnd, 9_000_000_000, G),
        ];
        assert_eq!(
            single_iteration_wallclock(&events, 1)
                .unwrap()
                .as_secs_f64(),
            4.0
        );
        assert!(single_iteration_wallclock(&events, 7).is_none());
    }

    #[test]
    fn idle_gaps_lower_global_but_not_synchronous_bandwidth() {
        const G: u64 = 1 << 30;
        // Same per-iteration speed, but a long gap between iterations.
        let gap = vec![
            ev(0, 0, EventKind::IoStart, 0, 0),
            ev(0, 0, EventKind::IoEnd, 1_000_000_000, G),
            ev(0, 1, EventKind::IoStart, 100_000_000_000, 0),
            ev(0, 1, EventKind::IoEnd, 101_000_000_000, G),
        ];
        let sync = synchronous_bandwidth(&gap).unwrap();
        let global = global_timing_bandwidth(&gap).unwrap();
        assert!((sync - 1.0).abs() < 1e-12);
        assert!(global < 0.05, "global {global} should reflect the gap");
    }

    #[test]
    fn empty_events_yield_none() {
        assert!(total_parallel_io_wallclock(&[]).is_none());
        assert!(global_timing_bandwidth(&[]).is_none());
        assert!(synchronous_bandwidth(&[]).is_none());
    }

    #[test]
    fn recorder_accumulates_and_takes() {
        let r = Recorder::new();
        let r2 = r.clone();
        r.record(0, 1, 2, EventKind::IoStart, SimTime::from_nanos(5), 0);
        r2.record(0, 1, 2, EventKind::IoEnd, SimTime::from_nanos(9), 42);
        assert_eq!(r.len(), 2);
        let events = r.take();
        assert_eq!(events.len(), 2);
        assert!(r2.is_empty());
        assert_eq!(events[1].bytes, 42);
    }

    #[test]
    fn latency_stats_match_hand_computed_distribution() {
        const G: u64 = 1 << 30;
        let mut events = Vec::new();
        // 10 ops with latencies 1..10 ms.
        for i in 0..10u32 {
            events.push(ev(i, 0, EventKind::IoStart, 0, 0));
            events.push(ev(i, 0, EventKind::IoEnd, (i as u64 + 1) * 1_000_000, G));
        }
        let s = latency_stats(&events).unwrap();
        assert_eq!(s.count, 10);
        assert!((s.mean_us - 5_500.0).abs() < 1e-9);
        assert!((s.p50_us - 5_000.0).abs() < 1001.0);
        assert!((s.max_us - 10_000.0).abs() < 1e-9);
        assert!(s.p95_us <= s.p99_us && s.p99_us <= s.max_us);
    }

    #[test]
    fn latency_stats_ignore_unmatched_events() {
        let events = vec![ev(0, 0, EventKind::IoEnd, 5, 1)];
        assert!(latency_stats(&events).is_none());
        let events = vec![ev(0, 0, EventKind::IoStart, 5, 0)];
        assert!(latency_stats(&events).is_none());
    }

    #[test]
    fn latency_stats_count_incomplete_operations() {
        const G: u64 = 1 << 30;
        let events = vec![
            // One complete op...
            ev(0, 0, EventKind::IoStart, 0, 0),
            ev(0, 0, EventKind::IoEnd, 1_000_000, G),
            // ...a start with no end (fault-interrupted write)...
            ev(1, 0, EventKind::IoStart, 0, 0),
            // ...and an end with no start (stray record).
            ev(2, 0, EventKind::IoEnd, 9, G),
        ];
        let s = latency_stats(&events).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.incomplete, 2);
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        const G: u64 = 1 << 30;
        // 4 ops: 1, 2, 3, 4 ms. Interpolated-and-rounded p99 would pick
        // the max by rounding up; nearest-rank p50 = rank 2 = 2 ms.
        let mut events = Vec::new();
        for i in 0..4u32 {
            events.push(ev(i, 0, EventKind::IoStart, 0, 0));
            events.push(ev(i, 0, EventKind::IoEnd, (i as u64 + 1) * 1_000_000, G));
        }
        let s = latency_stats(&events).unwrap();
        assert_eq!(s.incomplete, 0);
        assert!((s.p50_us - 2_000.0).abs() < 1e-9, "p50 {}", s.p50_us);
        assert!((s.p95_us - 4_000.0).abs() < 1e-9);
        assert!((s.p99_us - 4_000.0).abs() < 1e-9);
    }

    #[test]
    fn synchronous_bandwidth_skips_fault_interrupted_iterations() {
        const G: u64 = 1 << 30;
        // Iter 0 completes at 1 GiB/s; iter 1 lost its IoEnd to a fault.
        let events = vec![
            ev(0, 0, EventKind::IoStart, 0, 0),
            ev(0, 0, EventKind::IoEnd, 1_000_000_000, G),
            ev(0, 1, EventKind::IoStart, 2_000_000_000, 0),
        ];
        let bw = synchronous_bandwidth(&events).expect("the surviving iteration still reports");
        assert!((bw - 1.0).abs() < 1e-12, "got {bw}");
        // With every iteration interrupted there is nothing to average.
        let all_lost = vec![ev(0, 0, EventKind::IoStart, 0, 0)];
        assert_eq!(synchronous_bandwidth(&all_lost), None);
    }

    #[test]
    fn timeline_buckets_cover_the_phase() {
        const G: u64 = 1 << 30;
        let events = vec![
            ev(0, 0, EventKind::IoStart, 0, 0),
            ev(0, 0, EventKind::IoEnd, 500_000_000, G),
            ev(1, 0, EventKind::IoStart, 0, 0),
            ev(1, 0, EventKind::IoEnd, 2_500_000_000, G),
        ];
        let end = SimTime::from_nanos(2_500_000_000);
        let tl = bandwidth_timeline(&events, SimDuration::from_secs(1), end);
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[0].bytes, G);
        assert_eq!(tl[1].bytes, 0, "idle middle bucket must be visible");
        assert_eq!(tl[2].bytes, G);
        assert!((tl[0].bw_gib - 1.0).abs() < 1e-12);
        let total: u64 = tl.iter().map(|b| b.bytes).sum();
        assert_eq!(total, 2 * G);
    }

    #[test]
    fn timeline_survives_completion_before_first_start() {
        const G: u64 = 1 << 30;
        // An IoEnd carried over from an earlier phase lands *before* the
        // first IoStart; it must still be attributed, not dropped.
        let events = vec![
            ev(0, 0, EventKind::IoEnd, 5, G),
            ev(1, 0, EventKind::IoStart, 1_000_000_000, 0),
            ev(1, 0, EventKind::IoEnd, 2_500_000_000, G),
        ];
        let end = SimTime::from_nanos(2_500_000_000);
        let tl = bandwidth_timeline(&events, SimDuration::from_secs(1), end);
        assert_eq!(tl[0].t_ns, 0);
        assert_eq!(tl.len(), 3);
        let total: u64 = tl.iter().map(|b| b.bytes).sum();
        assert_eq!(total, 2 * G, "no completion may be dropped");
        assert_eq!(tl[0].bytes, G, "early completion lands in bucket 0");
        assert_eq!(tl[2].bytes, G);
    }

    #[test]
    fn anchored_timeline_aligns_distinct_event_streams() {
        const G: u64 = 1 << 30;
        // Writes complete in bucket 0, reads in bucket 2; the two
        // timelines must share bucket boundaries anchored at t=0.
        let writes = vec![
            ev(0, 0, EventKind::IoStart, 100_000_000, 0),
            ev(0, 0, EventKind::IoEnd, 500_000_000, G),
        ];
        let reads = vec![
            ev(0, 1, EventKind::IoStart, 2_000_000_000, 0),
            ev(0, 1, EventKind::IoEnd, 2_500_000_000, G),
        ];
        let end = SimTime::from_nanos(3_000_000_000);
        let w = bandwidth_timeline(&writes, SimDuration::from_secs(1), end);
        let r = bandwidth_timeline(&reads, SimDuration::from_secs(1), end);
        assert_eq!(w.len(), 3);
        assert_eq!(r.len(), 3);
        assert_eq!((w[0].t_ns, r[0].t_ns), (0, 0));
        assert_eq!(w.iter().map(|b| b.bytes).collect::<Vec<_>>(), [G, 0, 0]);
        assert_eq!(r.iter().map(|b| b.bytes).collect::<Vec<_>>(), [0, 0, G]);
        // Completions past `end` land in the last bucket, not out of range.
        let late = vec![ev(0, 2, EventKind::IoEnd, 9_000_000_000, G)];
        let l = bandwidth_timeline(&late, SimDuration::from_secs(1), end);
        assert_eq!(l[2].bytes, G);
    }

    #[test]
    fn anchored_timeline_event_exactly_at_end_is_clamped_to_last_bucket() {
        const G: u64 = 1 << 30;
        // `end` divides evenly into buckets, and a completion lands
        // exactly at `end`: its raw index equals the bucket count, one
        // past the last slot. The clamp attributes it to the final
        // bucket instead of panicking.
        let end = SimTime::from_nanos(3_000_000_000);
        let events = vec![
            ev(0, 0, EventKind::IoStart, 0, 0),
            ev(0, 0, EventKind::IoEnd, 3_000_000_000, G),
        ];
        let tl = bandwidth_timeline(&events, SimDuration::from_secs(1), end);
        assert_eq!(tl.len(), 3, "an exactly-divisible end adds no bucket");
        assert_eq!(tl[2].bytes, G, "boundary completion clamps into range");
        // Interior boundaries follow the same half-open convention: an
        // event exactly on a bucket edge opens the next bucket.
        let edge = vec![
            ev(0, 0, EventKind::IoStart, 0, 0),
            ev(0, 0, EventKind::IoEnd, 1_000_000_000, G),
        ];
        let tl = bandwidth_timeline(&edge, SimDuration::from_secs(1), end);
        assert_eq!(
            tl.iter().map(|b| b.bytes).collect::<Vec<_>>(),
            [0, G, 0],
            "edge event belongs to the bucket it starts"
        );
    }

    #[test]
    fn events_to_csv_shape() {
        let events = vec![
            ev(3, 0, EventKind::IoStart, 100, 0),
            ev(3, 0, EventKind::IoEnd, 900, 42),
        ];
        let csv = events_to_csv(&events);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "node,process,iteration,event,t_ns,bytes");
        assert_eq!(lines[1], "0,3,0,IoStart,100,0");
        assert_eq!(lines[2], "0,3,0,IoEnd,900,42");
    }

    #[test]
    fn phase_stats_packages_both_bandwidths() {
        let s = phase_stats(&simple_phase(), false);
        assert_eq!(s.io_count, 2);
        assert_eq!(s.total_bytes, 2 << 30);
        assert!((s.global_bw_gib - 0.2).abs() < 1e-12);
        assert!(s.synchronous_bw_gib.is_none());
        let s2 = phase_stats(&simple_phase(), true);
        assert!(s2.synchronous_bw_gib.is_some());
    }
}
