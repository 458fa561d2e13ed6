//! Host speed probe.
//!
//! The benchmark host is shared: other tenants slow every process on it
//! down by up to half, in phases of seconds to minutes, and user CPU time
//! slows with wall time, so no clock avoids it. The run therefore times a
//! fixed piece of work, independent of the simulator's code, before and
//! after every repetition, and scales the repetition's host times by how
//! much slower than [`REFERENCE_NS`] the probe ran around it. Host times
//! are reported in seconds on a host running at the reference speed.
//!
//! The probe mimics what the simulator's kernel does — a binary-heap
//! calendar, hash-map and B-tree lookups, small allocations and boxed
//! callbacks — because a probe of that mix follows the host's phases far
//! more closely than a pure arithmetic loop or a pointer chase. The run
//! pins itself to one CPU ([`pin_to_current_cpu`]) so that the probe and
//! the repetitions share it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the development host (2-core Xeon VM at 2.1 GHz)
/// in a quiet phase.
pub const REFERENCE_NS: f64 = 20.0e6;

const STEPS: u64 = 200_000;
const TRIES: usize = 3;

/// Wall time of the probe, ns: the fastest of a few tries, so that an
/// interrupt in one try does not count.
pub fn probe_ns() -> f64 {
    (0..TRIES).map(|_| once()).fold(f64::INFINITY, f64::min)
}

fn once() -> f64 {
    let t = Instant::now();
    let mut calendar: BinaryHeap<Reverse<(u64, u64)>> =
        (0..2000u64).map(|i| Reverse((i * 17 % 1000, i))).collect();
    let mut objects: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut index: BTreeMap<u64, u64> = BTreeMap::new();
    let mut callbacks: Vec<Box<dyn FnMut(u64) -> u64>> = Vec::new();
    let (mut s, mut acc) = (12345u64, 0u64);
    for step in 0..STEPS {
        let Reverse((now, id)) = calendar.pop().expect("the calendar never drains");
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = (s >> 40) % 4096;
        if step % 3 == 0 {
            objects.insert(key, vec![s as u8; 64 + (s >> 58) as usize]);
        } else if let Some(v) = objects.get(&key) {
            acc += v.len() as u64;
        }
        if step % 5 == 0 {
            index.insert(key ^ id, now);
        } else if let Some((&k, _)) = index.range(key..).next() {
            index.remove(&k);
        }
        if step % 7 == 0 {
            let m = s;
            callbacks.push(Box::new(move |x| x ^ m));
            if callbacks.len() > 64 {
                let mut f = callbacks.swap_remove(s as usize % callbacks.len());
                acc ^= f(now);
            }
        }
        calendar.push(Reverse((now + 1 + (s >> 54), id)));
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64
}

/// Factor that turns host times measured between probes of `before` and
/// `after` ns into times at the reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_NS / (before + after)
}

/// Pins this thread, and every process it starts from now on, to the CPU
/// it is running on, and returns that CPU.
///
/// Each virtual CPU of the host slows down on its own schedule (a probe
/// running beside a repetition on the other CPU follows it at a
/// correlation of only 0.3), so the probe must run on the CPU the
/// repetitions run on.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_to_current_cpu() -> Result<usize, String> {
    const SCHED_SETAFFINITY: isize = 203;
    let stat = std::fs::read_to_string("/proc/thread-self/stat").map_err(|e| e.to_string())?;
    // `processor` is field 39; the fields after the parenthesised command
    // name start at field 3.
    let cpu: usize = stat
        .rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(39 - 3))
        .and_then(|f| f.parse().ok())
        .ok_or("no processor field in /proc/thread-self/stat")?;
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or(format!("CPU {cpu} out of range"))? |= 1 << (cpu % 64);
    let ret: isize;
    // SAFETY: sched_setaffinity(0, len, mask) only reads `len` bytes at
    // `mask`, a live local array of exactly that size, and writes no
    // memory of this process; the syscall instruction clobbers rcx and r11,
    // declared below.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    if ret < 0 {
        return Err(format!("sched_setaffinity failed with errno {}", -ret));
    }
    Ok(cpu)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_to_current_cpu() -> Result<usize, String> {
    Err("pinning is implemented for x86-64 Linux only".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_twice_as_slow_halves_the_times() {
        assert_eq!(scale(REFERENCE_NS, REFERENCE_NS), 1.0);
        assert_eq!(scale(2.0 * REFERENCE_NS, 2.0 * REFERENCE_NS), 0.5);
        assert_eq!(scale(REFERENCE_NS, 3.0 * REFERENCE_NS), 0.5);
        assert!(probe_ns() > 0.0);
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn pinning_restricts_the_thread_to_its_cpu() {
        // The test runs on a thread of its own, so pinning it leaves the
        // other tests alone.
        let cpu = pin_to_current_cpu().expect("sched_setaffinity succeeds");
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap()
            .trim();
        assert_eq!(allowed, cpu.to_string());
    }
}
