//! Beyond-paper extension: kernel hot-path trajectory benchmark.
//!
//! Measures the rebuilt kernel data structures against the pre-rebuild
//! baseline on the million-task regime the ROADMAP's contention scenario
//! needs: (1) timer churn through the hierarchical wheel vs the retired
//! `BinaryHeap` calendar, (2) the poll storage round-trip through the
//! slab arena vs a `HashMap` remove/reinsert, (3) the composite old vs
//! new event loop (calendar + task storage + wake dedup together), and
//! (4) an end-to-end IOR run with 100k simulated client processes —
//! the scale demonstration the tentpole names.
//!
//! All `ns_per_event` figures are **wall-clock**, so
//! `results/BENCH_kernel.json` tracks the kernel trajectory but is
//! *not* byte-compared by CI. The IOR rows' simulated bandwidths are
//! deterministic, and are emitted separately as `kernel_ior_demo.txt`
//! for the CI double-run `cmp` check.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use daosim_cluster::ClusterSpec;
use daosim_ior::{run_ior, FileMode, IorParams};
use daosim_kernel::calendar::{HeapCalendar, TimerWheel};
use daosim_kernel::{Sim, SimDuration};
use daosim_objstore::ObjectClass;

use crate::harness::{gib, json_object, quoted, Report, Scale};

/// Deterministic delta stream (splitmix64) shared by every variant, so
/// old and new structures process the identical event sequence.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mostly µs-scale service times, a tail of ms backoffs and far-future
/// deadlines — the delta mix simulated clients actually schedule.
fn churn_delta(rng: &mut u64) -> u64 {
    let r = splitmix64(rng);
    match r % 100 {
        0..=79 => 1 + (r >> 8) % (1 << 12),
        80..=97 => 1 + (r >> 8) % (1 << 24),
        _ => 1 + (r >> 8) % (1 << 34),
    }
}

struct Sizes {
    /// Timers resident in the calendar during churn.
    pending: u64,
    /// Pop-push cycles measured.
    events: u64,
    /// IOR scale: (server_nodes, client_nodes, procs_per_node, KiB/proc).
    ior: (u16, u16, u32, u64),
}

fn sizes(scale: &Scale) -> Sizes {
    if scale.ops_per_proc >= 60 {
        Sizes {
            pending: 1_000_000,
            events: 1_000_000,
            ior: (4, 250, 400, 256), // 100_000 client processes
        }
    } else {
        Sizes {
            pending: 50_000,
            events: 100_000,
            ior: (2, 16, 250, 64), // 4_000 client processes
        }
    }
}

/// Wall ns/event for `events` pop-push cycles with `pending` resident
/// timers, through either calendar.
fn churn_ns(pending: u64, events: u64, use_wheel: bool) -> f64 {
    let mut wheel = TimerWheel::new();
    let mut heap = HeapCalendar::new();
    let mut rng = 0x1234_5678u64;
    let (mut seq, mut now) = (0u64, 0u64);
    for _ in 0..pending {
        let at = now + churn_delta(&mut rng);
        if use_wheel {
            wheel.push(at, seq, seq);
        } else {
            heap.push(at, seq, seq);
        }
        seq += 1;
    }
    let t0 = Instant::now();
    for _ in 0..events {
        let (at, _, _) = if use_wheel {
            wheel.pop_next().unwrap()
        } else {
            heap.pop_next().unwrap()
        };
        now = at;
        let next = now + churn_delta(&mut rng);
        if use_wheel {
            wheel.push(next, seq, seq);
        } else {
            heap.push(next, seq, seq);
        }
        seq += 1;
    }
    t0.elapsed().as_nanos() as f64 / events as f64
}

/// Wall ns/poll for the task-storage round-trip: `HashMap` remove →
/// touch → reinsert (the pre-slab executor) vs direct slab indexing.
fn poll_ns(slots: u64, polls: u64, use_slab: bool) -> f64 {
    let mut rng = 0xFEEDu64;
    if use_slab {
        let mut tasks: Vec<Option<Box<u64>>> = (0..slots).map(|_| Some(Box::new(0u64))).collect();
        let t0 = Instant::now();
        for _ in 0..polls {
            let id = (splitmix64(&mut rng) % slots) as usize;
            let mut fut = tasks[id].take().unwrap();
            *fut += 1;
            tasks[id] = Some(fut);
        }
        t0.elapsed().as_nanos() as f64 / polls as f64
    } else {
        let mut tasks: HashMap<u64, Box<u64>> = (0..slots).map(|i| (i, Box::new(0u64))).collect();
        let t0 = Instant::now();
        for _ in 0..polls {
            let id = splitmix64(&mut rng) % slots;
            let mut fut = tasks.remove(&id).unwrap();
            *fut += 1;
            tasks.insert(id, fut);
        }
        t0.elapsed().as_nanos() as f64 / polls as f64
    }
}

/// The composite hot loop, old shape vs new shape. Per event the old
/// kernel did: heap pop, wake-`HashSet` remove, `HashMap` future
/// remove → poll → reinsert, `HashSet` insert + heap push to
/// reschedule. The new kernel: wheel pop, generation-stamp check, slab
/// index, stamp + wheel push.
fn loop_ns(pending: u64, events: u64, new_kernel: bool) -> f64 {
    let mut rng = 0x5EED_0001u64;
    let (mut seq, mut now) = (0u64, 0u64);
    if new_kernel {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut slab: Vec<Option<Box<u64>>> = (0..pending).map(|_| Some(Box::new(0u64))).collect();
        let mut stamps: Vec<u64> = vec![0; pending as usize];
        for slot in 0..pending {
            wheel.push(now + churn_delta(&mut rng), seq, slot);
            seq += 1;
        }
        let t0 = Instant::now();
        for round in 0..events {
            let (at, _, slot) = wheel.pop_next().unwrap();
            now = at;
            let gen = round + 1;
            if stamps[slot as usize] != gen {
                stamps[slot as usize] = gen;
                let fut = slab[slot as usize].as_mut().unwrap();
                **fut += 1;
            }
            wheel.push(now + churn_delta(&mut rng), seq, slot);
            seq += 1;
        }
        t0.elapsed().as_nanos() as f64 / events as f64
    } else {
        let mut heap: HeapCalendar<u64> = HeapCalendar::new();
        let mut tasks: HashMap<u64, Box<u64>> = (0..pending).map(|i| (i, Box::new(0u64))).collect();
        let mut woken: HashSet<u64> = HashSet::new();
        for slot in 0..pending {
            heap.push(now + churn_delta(&mut rng), seq, slot);
            seq += 1;
        }
        let t0 = Instant::now();
        for _ in 0..events {
            let (at, _, slot) = heap.pop_next().unwrap();
            now = at;
            woken.remove(&slot);
            let mut fut = tasks.remove(&slot).unwrap();
            *fut += 1;
            tasks.insert(slot, fut);
            woken.insert(slot);
            heap.push(now + churn_delta(&mut rng), seq, slot);
            seq += 1;
        }
        t0.elapsed().as_nanos() as f64 / events as f64
    }
}

/// End-to-end executor throughput: tasks sleeping in a loop, every
/// event exercising calendar, slab, waker and wake-queue together.
fn executor_ns(tasks: u32, sleeps: u32) -> f64 {
    let sim = Sim::new();
    for i in 0..tasks {
        let handle = sim.clone();
        sim.spawn(async move {
            for k in 0..sleeps {
                handle
                    .sleep(SimDuration::from_nanos(1 + ((i + k) % 97) as u64))
                    .await;
            }
        });
    }
    let t0 = Instant::now();
    sim.run().expect_quiescent();
    t0.elapsed().as_nanos() as f64 / (tasks as f64 * sleeps as f64)
}

/// The tentpole's scale demonstration plus the trajectory table.
pub fn kernel_bench(scale: &Scale) -> Report {
    let sz = sizes(scale);
    let wheel = churn_ns(sz.pending, sz.events, true);
    let heap = churn_ns(sz.pending, sz.events, false);
    let slab = poll_ns(sz.pending, sz.events, true);
    let hashmap = poll_ns(sz.pending, sz.events, false);
    let new_loop = loop_ns(sz.pending, sz.events, true);
    let old_loop = loop_ns(sz.pending, sz.events, false);
    let exec = executor_ns((sz.events / 10).max(1_000) as u32, 10);

    let (servers, client_nodes, ppn, kib) = sz.ior;
    let procs = client_nodes as u32 * ppn;
    let params = IorParams {
        transfer_bytes: kib * 1024,
        segments: 1,
        procs_per_node: ppn,
        class: ObjectClass::S1,
        iterations: 1,
        file_mode: FileMode::FilePerProcess,
        inflight: 1,
        api: daosim_ior::Api::Daos,
    };
    let t0 = Instant::now();
    let ior = run_ior(ClusterSpec::tcp(servers, client_nodes), params);
    let ior_wall = t0.elapsed().as_secs_f64();

    let mut rep = Report::new(
        "kernel-bench",
        "Extension: kernel hot-path ns/event (timer wheel + slab arena vs heap + hashmap)",
        &["workload", "variant", "ops", "ns_per_op", "speedup"],
    );
    let spd = |new: f64, old: f64| format!("{:.2}x", old / new);
    let mut pair =
        |workload: &str, new_name: &str, new: f64, old_name: &str, old: f64, ops: u64| {
            rep.row(vec![
                workload.into(),
                new_name.into(),
                ops.to_string(),
                format!("{new:.1}"),
                spd(new, old),
            ]);
            rep.row(vec![
                workload.into(),
                old_name.into(),
                ops.to_string(),
                format!("{old:.1}"),
                "1.00x".into(),
            ]);
        };
    pair("timer_churn", "wheel", wheel, "heap", heap, sz.events);
    pair("task_poll", "slab", slab, "hashmap", hashmap, sz.events);
    pair(
        "event_loop",
        "wheel+slab+stamp",
        new_loop,
        "heap+hashmap+hashset",
        old_loop,
        sz.events,
    );
    rep.row(vec![
        "executor_sleep".into(),
        "end-to-end".into(),
        sz.events.to_string(),
        format!("{exec:.1}"),
        "-".into(),
    ]);
    rep.row(vec![
        format!("ior_{procs}_clients"),
        "end-to-end".into(),
        procs.to_string(),
        format!("{:.2e}", ior_wall * 1e9 / procs as f64),
        "-".into(),
    ]);
    rep.note(format!(
        "{} pending timers; ns_per_op is wall-clock (machine-dependent, not byte-compared); \
         IOR: {} procs x {} KiB completed in {:.1}s wall",
        sz.pending, procs, kib, ior_wall
    ));

    let f1 = |v: f64| format!("{v:.1}");
    let f2 = |v: f64| format!("{v:.2}");
    let obj = |fields: &[(&str, String)]| json_object(1, fields);
    let json = json_object(
        0,
        &[
            ("experiment", quoted("kernel-bench")),
            ("schema", quoted("kernel-bench/v1")),
            (
                "workload",
                obj(&[
                    ("pending_timers", sz.pending.to_string()),
                    ("events", sz.events.to_string()),
                ]),
            ),
            (
                "timer_churn",
                obj(&[
                    ("wheel_ns_per_event", f1(wheel)),
                    ("heap_ns_per_event", f1(heap)),
                    ("speedup", f2(heap / wheel)),
                ]),
            ),
            (
                "task_poll",
                obj(&[
                    ("slab_ns_per_poll", f1(slab)),
                    ("hashmap_ns_per_poll", f1(hashmap)),
                    ("speedup", f2(hashmap / slab)),
                ]),
            ),
            (
                "event_loop",
                obj(&[
                    ("new_ns_per_event", f1(new_loop)),
                    ("old_ns_per_event", f1(old_loop)),
                    ("speedup", f2(old_loop / new_loop)),
                ]),
            ),
            ("executor_sleep", obj(&[("ns_per_event", f1(exec))])),
            (
                "ior_demo",
                obj(&[
                    ("procs", procs.to_string()),
                    ("kib_per_proc", kib.to_string()),
                    ("write_gib_s", gib(ior.write_bw())),
                    ("read_gib_s", gib(ior.read_bw())),
                    ("wall_s", f1(ior_wall)),
                ]),
            ),
        ],
    );
    rep.artifact("BENCH_kernel.json", json + "\n");

    // Simulated results only — deterministic, byte-compared by the CI
    // double-run `cmp` smoke step.
    let demo = format!(
        "kernel_ior_demo v1\n\
         spec: servers={servers} client_nodes={client_nodes} ppn={ppn} procs={procs}\n\
         transfer: {kib} KiB x 1 segment, S1, file-per-process\n\
         write_gib_s: {}\n\
         read_gib_s: {}\n",
        gib(ior.write_bw()),
        gib(ior.read_bw())
    );
    rep.artifact("kernel_ior_demo.txt", demo);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_kernel_bench_reports_and_demo_artifact() {
        let rep = kernel_bench(&Scale::quick());
        assert!(rep.rows().len() >= 8);
        let names: Vec<&str> = rep.artifacts().iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"BENCH_kernel.json"));
        assert!(names.contains(&"kernel_ior_demo.txt"));
        let demo = &rep
            .artifacts()
            .iter()
            .find(|(n, _)| n == "kernel_ior_demo.txt")
            .unwrap()
            .1;
        // The demo artifact must be simulated-time only (deterministic):
        // a positive bandwidth and no wall-clock figures.
        assert!(demo.contains("procs=4000"), "unexpected demo: {demo}");
        assert!(
            !demo.contains("wall"),
            "wall-clock leaked into demo: {demo}"
        );
    }
}
