//! Will storage hold the time-critical window?
//!
//! Operational forecasting is paced: each step's fields appear on the
//! model's schedule and products must follow promptly. This example
//! synthesizes such a schedule, replays it *paced* against differently
//! sized DAOS deployments, and reports tardiness — how far behind
//! schedule operations complete. The smallest cluster falls behind; adding
//! a server node restores the window.
//!
//! ```text
//! cargo run --release --example time_critical_window
//! ```

use daosim::cluster::ClusterSpec;
use daosim::core::fieldio::{FieldIoConfig, FieldIoMode};
use daosim::core::trace::{replay, Pacing, Trace};
use daosim::kernel::SimDuration;

const MIB: u64 = 1024 * 1024;

fn main() {
    // 32 I/O-server processes, 4 steps, 24 two-MiB fields per process per
    // step, a step every 250 ms: the window demands ~6 GiB/s sustained.
    let trace = Trace::synthesize_operational(32, 4, 24, 2 * MIB, SimDuration::from_millis(250));
    println!(
        "schedule: {} ops, {:.1} GiB written over {:.0} ms (needs ~6 GiB/s sustained)",
        trace.len(),
        trace.total_write_bytes() as f64 / (1u64 << 30) as f64,
        4.0 * 250.0
    );
    println!(
        "\n{:<22} {:>10} {:>10} {:>12} {:>12}",
        "deployment", "write GiB/s", "read GiB/s", "mean late ms", "max late ms"
    );

    let mut previous_max = f64::INFINITY;
    for (label, spec) in [
        ("1 server, 1 engine", {
            let mut s = ClusterSpec::tcp(1, 2);
            s.engines_per_node = 1;
            s
        }),
        ("1 server, 2 engines", ClusterSpec::tcp(1, 2)),
        ("2 servers", ClusterSpec::tcp(2, 2)),
    ] {
        let r = replay(
            spec,
            FieldIoConfig::builder()
                .mode(FieldIoMode::NoContainers)
                .build(),
            &trace,
            Pacing::Paced,
            None,
        )
        .stats;
        println!(
            "{:<22} {:>10.2} {:>10.2} {:>12.2} {:>12.2}",
            label,
            r.writes.global_bw_gib,
            r.reads.global_bw_gib,
            r.mean_tardiness_ms,
            r.max_tardiness_ms
        );
        assert!(
            r.max_tardiness_ms <= previous_max * 1.05,
            "bigger deployments must not be later"
        );
        previous_max = r.max_tardiness_ms;
    }

    // The same trace replayed as-fast gives the classic benchmark number.
    let fast = replay(
        ClusterSpec::tcp(2, 2),
        FieldIoConfig::builder()
            .mode(FieldIoMode::NoContainers)
            .build(),
        &trace,
        Pacing::AsFast,
        None,
    )
    .stats;
    println!(
        "\nas-fast replay on 2 servers: {:.2} GiB/s write, {:.2} GiB/s read \
         ({:.0} ms total vs the 1000 ms window)",
        fast.writes.global_bw_gib,
        fast.reads.global_bw_gib,
        fast.end_secs * 1e3
    );
}
