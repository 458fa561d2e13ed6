//! Schedule-invariance properties of the kernel executor.
//!
//! The executor's `SchedPolicy` perturbs which ready task runs next
//! (LIFO, seeded random pick) and when a woken task becomes runnable
//! again (bounded wake-delay). DESIGN.md §7 promises that for workloads
//! whose concurrent effects are disjoint, semantics are
//! *schedule-invariant*: same per-event outcomes, same final pool state,
//! same byte totals, quiescence under every policy. These properties
//! drive the promise with proptest-chosen seeds through the same
//! differential harness `xp sched-fuzz` uses, and pin the FIFO default to
//! the checked-in paper artifact byte for byte.

use daosim::cluster::fuzz::{generate_program, policy_roster, run_program};
use daosim::kernel::SchedPolicy;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FIFO, LIFO, random and wake-delay schedules of the same
    /// seed-programmed EQ workload agree on the final store state and on
    /// the multiset of per-event outcomes.
    #[test]
    fn perturbed_schedules_agree_on_state_and_outcomes(seed in any::<u64>()) {
        let program = generate_program(seed);
        let roster = policy_roster(seed);
        prop_assert!(matches!(roster[0], SchedPolicy::Fifo));
        let reference = run_program(&program, roster[0]);
        prop_assert!(reference.quiescent, "FIFO run did not quiesce");
        let mut ref_multiset: Vec<&String> = reference.outcomes.values().collect();
        ref_multiset.sort();
        for &policy in &roster[1..] {
            let got = run_program(&program, policy);
            prop_assert!(got.quiescent, "{policy:?} run did not quiesce");
            let mut multiset: Vec<&String> = got.outcomes.values().collect();
            multiset.sort();
            prop_assert_eq!(
                &multiset, &ref_multiset,
                "outcome multiset diverged under {:?}", policy
            );
            prop_assert_eq!(
                &got.state, &reference.state,
                "final store state diverged under {:?}", policy
            );
            // Stronger than the multiset: each event id resolves to the
            // same outcome under every schedule.
            prop_assert_eq!(
                &got.outcomes, &reference.outcomes,
                "per-event outcomes diverged under {:?}", policy
            );
            prop_assert_eq!(
                got.bytes_read, reference.bytes_read,
                "read-byte totals diverged under {:?}", policy
            );
        }
    }
}

/// The FIFO default must leave the paper pipeline artifact untouched:
/// re-running the full-scale window sweep reproduces the checked-in
/// `results/BENCH_pipeline.json` byte for byte. This is the regression
/// gate for "scheduler changes must not move any published number".
#[test]
fn fifo_reproduces_checked_in_pipeline_artifact() {
    use daosim_experiments::harness::Scale;
    use daosim_experiments::window_sweep::window_sweep;

    let rep = window_sweep(&Scale::full());
    let (name, contents) = rep
        .artifacts()
        .iter()
        .find(|(n, _)| n == "BENCH_pipeline.json")
        .expect("window sweep attaches BENCH_pipeline.json");
    assert_eq!(name, "BENCH_pipeline.json");
    let checked_in = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/BENCH_pipeline.json"
    ))
    .expect("checked-in artifact present");
    assert_eq!(
        contents.as_bytes(),
        &checked_in[..],
        "FIFO run no longer reproduces results/BENCH_pipeline.json byte-identically"
    );
}
