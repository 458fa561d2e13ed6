//! Property-based tests of the flow network: conservation, fairness and
//! determinism under arbitrary flow populations.

use std::cell::RefCell;
use std::rc::Rc;

use daosim_kernel::{Sim, SimDuration};
use daosim_net::{FlowCap, FlowNet, LinkId, GIB};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct FlowSpec {
    links: Vec<u8>,
    megs: u32,
    cap_decigib: u32,
    start_us: u32,
}

fn flow_spec() -> impl Strategy<Value = FlowSpec> {
    (
        proptest::collection::vec(0u8..8, 1..4),
        1u32..64,
        5u32..200,
        0u32..2000,
    )
        .prop_map(|(links, megs, cap_decigib, start_us)| FlowSpec {
            links,
            megs,
            cap_decigib,
            start_us,
        })
}

/// Builds the world, runs every flow, and returns per-flow completion
/// times (ns) plus mid-flight rate snapshots. Snapshot routes are shared
/// slices into the network's intern table.
type RateSnapshot = Vec<(Rc<[daosim_net::LinkId]>, f64)>;

fn run_world(specs: &[FlowSpec]) -> (Vec<u64>, Vec<RateSnapshot>) {
    let sim = Sim::new();
    let net = FlowNet::new(&sim);
    let caps: Vec<f64> = (0..8).map(|i| 2.0 + i as f64).collect();
    let links: Vec<_> = caps.iter().map(|&c| net.add_link(c)).collect();
    let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
    let snaps: Rc<RefCell<Vec<RateSnapshot>>> = Rc::default();
    for (i, spec) in specs.iter().enumerate() {
        let mut route: Vec<_> = spec.links.iter().map(|&l| links[l as usize]).collect();
        route.dedup();
        let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
        let bytes = spec.megs as u64 * 1024 * 1024;
        let cap = FlowCap::capped(spec.cap_decigib as f64 / 10.0);
        let start = SimDuration::from_micros(spec.start_us as u64);
        sim.spawn(async move {
            sim2.sleep(start).await;
            net.transfer(&route, bytes, cap).await;
            done.borrow_mut().push((i, sim2.now().as_nanos()));
        });
    }
    // Periodic fairness snapshots while flows are active.
    {
        let (net, sim2, snaps) = (net.clone(), sim.clone(), Rc::clone(&snaps));
        sim.spawn(async move {
            for _ in 0..50 {
                sim2.sleep(SimDuration::from_micros(300)).await;
                if net.active_flows() > 0 {
                    snaps.borrow_mut().push(net.snapshot_rates());
                }
            }
        });
    }
    sim.run().expect_quiescent();
    let mut d = done.borrow().clone();
    d.sort();
    (
        d.into_iter().map(|(_, t)| t).collect(),
        Rc::try_unwrap(snaps).unwrap().into_inner(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_flows_complete_and_rates_conserve(specs in proptest::collection::vec(flow_spec(), 1..12)) {
        let (times, snaps) = run_world(&specs);
        prop_assert_eq!(times.len(), specs.len(), "every flow must drain");

        let caps: Vec<f64> = (0..8).map(|i| 2.0 + i as f64).collect();
        for snap in &snaps {
            // Conservation: per-link allocated rate never exceeds capacity.
            let mut load = [0.0f64; 8];
            for (route, rate) in snap {
                prop_assert!(*rate > 0.0, "active flow must have positive rate");
                for l in route.iter() {
                    load[l.0 as usize] += rate;
                }
            }
            for (l, &used) in load.iter().enumerate() {
                prop_assert!(
                    used <= caps[l] * (1.0 + 1e-6),
                    "link {l} over capacity: {used} > {}",
                    caps[l]
                );
            }
        }
    }

    #[test]
    fn per_flow_caps_respected(specs in proptest::collection::vec(flow_spec(), 1..10)) {
        let (_, snaps) = run_world(&specs);
        for snap in &snaps {
            for (_, rate) in snap {
                // The largest configurable cap is 20 GiB/s.
                prop_assert!(*rate <= 20.0 + 1e-9);
            }
        }
    }

    #[test]
    fn flow_time_never_beats_physics(spec in flow_spec()) {
        let (times, _) = run_world(std::slice::from_ref(&spec));
        let bytes = spec.megs as f64 * 1024.0 * 1024.0;
        let caps: Vec<f64> = (0..8).map(|i| 2.0 + i as f64).collect();
        let mut route: Vec<u8> = spec.links.clone();
        route.dedup();
        let min_link = route
            .iter()
            .map(|&l| caps[l as usize])
            .fold(f64::INFINITY, f64::min);
        let best = min_link.min(spec.cap_decigib as f64 / 10.0);
        let ideal_ns = bytes / (best * GIB) * 1e9 + spec.start_us as f64 * 1000.0;
        prop_assert!(
            times[0] as f64 >= ideal_ns * (1.0 - 1e-9),
            "flow finished at {} ns, faster than the physical bound {} ns",
            times[0],
            ideal_ns
        );
    }

    #[test]
    fn runs_are_deterministic(specs in proptest::collection::vec(flow_spec(), 1..10)) {
        let (a, _) = run_world(&specs);
        let (b, _) = run_world(&specs);
        prop_assert_eq!(a, b);
    }
}

/// One base link of a shadowed world: its capacity in GiB/s, and its
/// shadow's capacity as a multiple of it (≥ 1) and index placement.
#[derive(Debug, Clone)]
struct Base {
    cap_decigib: u32,
    shadow_factor: f64,
    shadow_first: bool,
}

fn base() -> impl Strategy<Value = Base> {
    (
        // Few distinct capacities, so base links often tie.
        prop_oneof![Just(20u32), Just(30), Just(45), 5u32..100],
        prop_oneof![Just(1.0), Just(1.25), Just(3.0)],
        any::<bool>(),
    )
        .prop_map(|(cap_decigib, shadow_factor, shadow_first)| Base {
            cap_decigib,
            shadow_factor,
            shadow_first,
        })
}

/// A link rescale in a shadowed world; the shadow keeps its factor.
#[derive(Debug, Clone)]
struct Rescale {
    link: u8,
    decigib: u32,
    at_us: u32,
}

fn rescale() -> impl Strategy<Value = Rescale> {
    (any::<u8>(), 5u32..100, 0u32..2000).prop_map(|(link, decigib, at_us)| Rescale {
        link,
        decigib,
        at_us,
    })
}

/// Runs `specs` over routes of `bases` (link indices taken modulo their
/// count; a route may cross a link twice), with `rescales`. With
/// `shadows`, every base link gets a shadow link of at least its
/// capacity, crossed right after it by every route: a link that can never
/// bind. Returns completion instants (ns) in flow order and the bits of
/// every `snapshot_rates` rate taken every 150 µs.
fn run_shadowed(
    bases: &[Base],
    specs: &[FlowSpec],
    rescales: &[Rescale],
    shadows: bool,
) -> (Vec<u64>, Vec<Vec<u64>>) {
    let sim = Sim::new();
    let net = FlowNet::new(&sim);
    let mut links: Vec<(LinkId, Option<LinkId>)> = Vec::new();
    for b in bases {
        let cap = b.cap_decigib as f64 / 10.0;
        let shadow_cap = cap * b.shadow_factor;
        links.push(match (shadows, b.shadow_first) {
            (false, _) => (net.add_link(cap), None),
            (true, true) => {
                let s = net.add_link(shadow_cap);
                (net.add_link(cap), Some(s))
            }
            (true, false) => {
                let l = net.add_link(cap);
                (l, Some(net.add_link(shadow_cap)))
            }
        });
    }
    let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
    for (i, spec) in specs.iter().enumerate() {
        let mut route = Vec::new();
        for &l in &spec.links {
            let (link, shadow) = links[l as usize % links.len()];
            route.push(link);
            route.extend(shadow);
        }
        let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
        let bytes = spec.megs as u64 * 1024 * 1024;
        let cap = FlowCap::capped(spec.cap_decigib as f64 / 10.0);
        let start = SimDuration::from_micros(spec.start_us as u64);
        sim.spawn(async move {
            sim2.sleep(start).await;
            net.transfer(&route, bytes, cap).await;
            done.borrow_mut().push((i, sim2.now().as_nanos()));
        });
    }
    for r in rescales {
        let i = r.link as usize % links.len();
        let (link, shadow) = links[i];
        let cap = r.decigib as f64 / 10.0;
        let shadow_cap = cap * bases[i].shadow_factor;
        let net = net.clone();
        sim.schedule_after(SimDuration::from_micros(r.at_us as u64), move || {
            net.set_link_capacity(link, cap);
            if let Some(s) = shadow {
                net.set_link_capacity(s, shadow_cap);
            }
        });
    }
    let snaps: Rc<RefCell<Vec<Vec<u64>>>> = Rc::default();
    {
        let (net, sim2, snaps) = (net.clone(), sim.clone(), Rc::clone(&snaps));
        sim.spawn(async move {
            for _ in 0..40 {
                sim2.sleep(SimDuration::from_micros(150)).await;
                let rates = net.snapshot_rates().iter().map(|r| r.1.to_bits()).collect();
                snaps.borrow_mut().push(rates);
            }
        });
    }
    sim.run().expect_quiescent();
    let mut d = done.borrow().clone();
    d.sort();
    let snaps = snaps.borrow().clone();
    (d.into_iter().map(|(_, t)| t).collect(), snaps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn links_that_cannot_bind_change_nothing(
        bases in proptest::collection::vec(base(), 1..7),
        specs in proptest::collection::vec(flow_spec(), 1..24),
        rescales in proptest::collection::vec(rescale(), 0..4),
    ) {
        // A shadow is on exactly the routes through its base link and at
        // least as fast, so it never sets a level and the solver prunes
        // it (or, at equal capacity and a lower index, the base link in
        // its stead). Either way nothing observable may move: every
        // completion nanosecond and every rate bit equal the world
        // without shadows.
        let (plain_t, plain_r) = run_shadowed(&bases, &specs, &rescales, false);
        let (shadowed_t, shadowed_r) = run_shadowed(&bases, &specs, &rescales, true);
        prop_assert_eq!(plain_t.len(), specs.len());
        prop_assert_eq!(plain_t, shadowed_t);
        prop_assert_eq!(plain_r, shadowed_r);
    }
}
