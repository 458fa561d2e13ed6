//! Assertions of the paper's headline claims, at two scales.
//!
//! The full-scale versions reproduce the paper's configurations. They
//! take seconds in a release build but far longer in a debug one, so they
//! are `#[ignore]`d by default and CI runs them in release:
//!
//! ```text
//! cargo test --release --test paper_claims -- --ignored
//! ```
//!
//! Each also has a `*_downscaled` CI variant exercising the same
//! mechanism at a fraction of the size (seconds, runs on every push).
//! The downscaled bounds were calibrated empirically and sit well clear
//! of the observed values; they guard the *shape* of each claim
//! (scaling, ratios, regimes), not the paper's absolute numbers.

use std::cell::Cell;
use std::rc::Rc;

use daosim::bytes::Bytes;
use daosim::cluster::{rebuild_engine, Calibration, ClusterSpec, Deployment, SimClient};
use daosim::core::fieldio::{FieldIoConfig, FieldIoMode};
use daosim::core::patterns::{run_pattern_a, run_pattern_b, PatternConfig};
use daosim::core::workload::Contention;
use daosim::ior::{run_ior, IorParams};
use daosim::kernel::{Sim, SimDuration};
use daosim::net::mpi::{run_p2p, MpiP2pConfig};
use daosim::net::ProviderProfile;
use daosim::objstore::api::DaosApi;
use daosim::objstore::{ObjectClass, OidAllocator, Uuid};

const MIB: u64 = 1024 * 1024;

fn pattern(mode: FieldIoMode, contention: Contention, servers: u16, ppn: u32) -> PatternConfig {
    PatternConfig {
        cluster: ClusterSpec::tcp(servers, servers * 2),
        fieldio: FieldIoConfig::builder().mode(mode).build(),
        contention,
        procs_per_node: ppn,
        ops_per_proc: 60,
        field_bytes: MIB,
        verify: false,
    }
}

/// "Using up to 12 server nodes and 20 client nodes, the aggregated
/// bandwidth reaches up to 70 GiB/s" (conclusion; no-containers mode,
/// pattern B, low contention).
#[test]
#[ignore = "full-scale run: seconds in release, slow in debug"]
fn aggregate_bandwidth_reaches_seventy_gib_at_twelve_servers() {
    let r = run_pattern_b(&pattern(FieldIoMode::NoContainers, Contention::Low, 12, 32));
    let agg = r.aggregate_gib();
    assert!(
        (60.0..120.0).contains(&agg),
        "12-server aggregate {agg:.1} GiB/s should be in the ~70 GiB/s regime"
    );
}

/// "Bandwidth scaling linearly with additional SCM nodes in most cases"
/// (abstract) — checked as IOR write scaling from 2 to 8 server nodes.
#[test]
#[ignore = "full-scale run: seconds in release, slow in debug"]
fn ior_write_bandwidth_scales_nearly_linearly() {
    let params = |ppn| IorParams {
        transfer_bytes: MIB,
        segments: 100,
        procs_per_node: ppn,
        class: ObjectClass::S1,
        iterations: 1,
        file_mode: daosim_ior::FileMode::FilePerProcess,
        inflight: 1,
        api: daosim_ior::Api::Daos,
    };
    let two = run_ior(ClusterSpec::tcp(2, 4), params(24)).write_bw();
    let eight = run_ior(ClusterSpec::tcp(8, 16), params(24)).write_bw();
    let scaling = eight / two;
    assert!(
        (3.0..4.6).contains(&scaling),
        "8-vs-2 server write scaling {scaling:.2} should be near 4x"
    );
}

/// "Performance improves as the object size increases beyond 1 MiB"
/// (conclusion) — the Fig. 6 mechanism at full scale.
#[test]
#[ignore = "full-scale run: seconds in release, slow in debug"]
fn larger_objects_outperform_one_mib_fields() {
    let mut small = pattern(FieldIoMode::Full, Contention::High, 2, 32);
    small.field_bytes = MIB;
    let mut large = small.clone();
    large.field_bytes = 5 * MIB;
    large.ops_per_proc = 12;
    let s = run_pattern_a(&small);
    let l = run_pattern_a(&large);
    assert!(
        l.write.global_bw_gib > 1.5 * s.write.global_bw_gib,
        "5 MiB fields ({:.2}) should far outrun 1 MiB fields ({:.2})",
        l.write.global_bw_gib,
        s.write.global_bw_gib
    );
}

/// High contention on a shared index caps indexed-mode throughput while
/// no-index keeps scaling (Fig. 4's core result).
#[test]
#[ignore = "full-scale run: seconds in release, slow in debug"]
fn shared_index_contention_caps_indexed_modes() {
    let idx = run_pattern_a(&pattern(FieldIoMode::NoContainers, Contention::High, 8, 32));
    let no_idx = run_pattern_a(&pattern(FieldIoMode::NoIndex, Contention::High, 8, 32));
    assert!(
        no_idx.aggregate_gib() > 2.0 * idx.aggregate_gib(),
        "no-index {:.1} should dwarf indexed {:.1} under high contention at 8 servers",
        no_idx.aggregate_gib(),
        idx.aggregate_gib()
    );
}

// ---------------------------------------------------------------------
// Downscaled CI variants: same mechanisms, seconds-fast configurations.
// ---------------------------------------------------------------------

/// Downscaled pattern config shared by the CI variants.
fn ci_pattern(mode: FieldIoMode, contention: Contention, servers: u16, ppn: u32) -> PatternConfig {
    let mut p = pattern(mode, contention, servers, ppn);
    p.ops_per_proc = 12;
    p
}

/// Downscaled [`aggregate_bandwidth_reaches_seventy_gib_at_twelve_servers`]:
/// at a third of the servers and a quarter of the processes, the same
/// configuration lands proportionally (observed ~25 GiB/s, i.e. ~6 GiB/s
/// per server — the per-server rate behind the paper's 70 GiB/s at 12).
#[test]
fn aggregate_bandwidth_scales_proportionally_downscaled() {
    let r = run_pattern_b(&ci_pattern(
        FieldIoMode::NoContainers,
        Contention::Low,
        4,
        8,
    ));
    let agg = r.aggregate_gib();
    assert!(
        (15.0..45.0).contains(&agg),
        "4-server aggregate {agg:.1} GiB/s should sit in the ~25 GiB/s regime"
    );
}

/// Downscaled [`ior_write_bandwidth_scales_nearly_linearly`]: 1 -> 4
/// servers at reduced segment counts (observed ~3.1x of the nominal 4x,
/// matching the abstract's "linearly ... in most cases").
#[test]
fn ior_write_bandwidth_scales_downscaled() {
    let params = |ppn| IorParams {
        transfer_bytes: MIB,
        segments: 20,
        procs_per_node: ppn,
        class: ObjectClass::S1,
        iterations: 1,
        file_mode: daosim_ior::FileMode::FilePerProcess,
        inflight: 1,
        api: daosim_ior::Api::Daos,
    };
    let one = run_ior(ClusterSpec::tcp(1, 2), params(8)).write_bw();
    let four = run_ior(ClusterSpec::tcp(4, 8), params(8)).write_bw();
    let scaling = four / one;
    assert!(
        (2.2..4.4).contains(&scaling),
        "4-vs-1 server write scaling {scaling:.2} should be near-linear"
    );
}

/// Downscaled [`larger_objects_outperform_one_mib_fields`] (observed
/// ratio ~1.6 at this scale).
#[test]
fn larger_objects_outperform_one_mib_fields_downscaled() {
    let mut small = ci_pattern(FieldIoMode::Full, Contention::High, 2, 8);
    small.field_bytes = MIB;
    let mut large = small.clone();
    large.field_bytes = 5 * MIB;
    large.ops_per_proc = 4;
    let s = run_pattern_a(&small);
    let l = run_pattern_a(&large);
    assert!(
        l.write.global_bw_gib > 1.3 * s.write.global_bw_gib,
        "5 MiB fields ({:.2}) should outrun 1 MiB fields ({:.2})",
        l.write.global_bw_gib,
        s.write.global_bw_gib
    );
}

/// Downscaled [`shared_index_contention_caps_indexed_modes`] (observed
/// ratio ~2.7 at 4 servers).
#[test]
fn shared_index_contention_caps_indexed_modes_downscaled() {
    let idx = run_pattern_a(&ci_pattern(
        FieldIoMode::NoContainers,
        Contention::High,
        4,
        8,
    ));
    let no_idx = run_pattern_a(&ci_pattern(FieldIoMode::NoIndex, Contention::High, 4, 8));
    assert!(
        no_idx.aggregate_gib() > 1.8 * idx.aggregate_gib(),
        "no-index {:.1} should dwarf indexed {:.1} under high contention at 4 servers",
        no_idx.aggregate_gib(),
        idx.aggregate_gib()
    );
}

// ---------------------------------------------------------------------
// Qualitative model effects at reduced scale: each row runs a calibrated
// configuration against its ablated or contrasting twin.
// ---------------------------------------------------------------------

/// The relation a row's `(lhs, rhs)` pair must satisfy.
#[derive(Clone, Copy, Debug)]
enum Holds {
    /// `lhs > factor * rhs`.
    Above(f64),
    /// `lhs >= rhs`.
    AtLeast,
}

impl Holds {
    fn check(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Holds::Above(factor) => lhs > factor * rhs,
            Holds::AtLeast => lhs >= rhs,
        }
    }
}

/// One row: the claim, the paired runs `(lhs, rhs)`, and their relation.
type Effect = (&'static str, fn() -> (f64, f64), Holds);

/// Two servers, four client nodes, eight processes per node writing ten
/// 1 MiB fields each, under `cal`.
fn effect_pattern(mode: FieldIoMode, contention: Contention, cal: Calibration) -> PatternConfig {
    let mut cluster = ClusterSpec::tcp(2, 4);
    cluster.calibration = cal;
    PatternConfig {
        cluster,
        fieldio: FieldIoConfig::builder().mode(mode).build(),
        contention,
        procs_per_node: 8,
        ops_per_proc: 10,
        field_bytes: MIB,
        verify: false,
    }
}

/// 1 MiB TCP point-to-point stream: `(uncapped, capped)` GiB/s, the
/// uncapped run lifting the per-flow cap and the stream penalty.
fn stream_cap() -> (f64, f64) {
    let p2p = |provider| {
        run_p2p(MpiP2pConfig {
            provider,
            pairs: 1,
            msg_bytes: 2 * MIB,
            messages: 20,
        })
        .aggregate_gib_s
    };
    let mut open = ProviderProfile::tcp();
    open.per_flow_cap_gib = 1e6;
    open.stream_alpha = 0.0;
    (p2p(open), p2p(ProviderProfile::tcp()))
}

/// Pattern B, full mode, low contention: `(zeroed, calibrated)` GiB/s
/// with the container-table cost removed.
fn cont_table() -> (f64, f64) {
    let mut zeroed = Calibration::nextgenio();
    zeroed.cont_table_cost_per_cont = SimDuration::ZERO;
    zeroed.cont_table_cost_cap = SimDuration::ZERO;
    let run = |cal| {
        run_pattern_b(&effect_pattern(FieldIoMode::Full, Contention::Low, cal)).aggregate_gib()
    };
    (run(zeroed), run(Calibration::nextgenio()))
}

/// Pattern A, no-containers mode, high contention: `(zeroed,
/// calibrated)` GiB/s with KV update/fetch serialisation removed.
fn kv_serialisation() -> (f64, f64) {
    let mut zeroed = Calibration::nextgenio();
    zeroed.kv_update_serial_cost = SimDuration::ZERO;
    zeroed.kv_fetch_serial_cost = SimDuration::ZERO;
    let run = |cal| {
        run_pattern_a(&effect_pattern(
            FieldIoMode::NoContainers,
            Contention::High,
            cal,
        ))
        .aggregate_gib()
    };
    (run(zeroed), run(Calibration::nextgenio()))
}

/// Pattern A, no-index mode, low contention: `(frictionless, real)` GiB/s.
fn frictionless() -> (f64, f64) {
    let run = |cal| {
        run_pattern_a(&effect_pattern(FieldIoMode::NoIndex, Contention::Low, cal)).aggregate_gib()
    };
    (
        run(Calibration::frictionless()),
        run(Calibration::nextgenio()),
    )
}

/// Simulated seconds for eight processes on one client node to each
/// write six 1 MiB arrays of `class` to two servers.
fn redundancy_write_secs(class: ObjectClass) -> f64 {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(2, 1));
    for p in 0..8u32 {
        let d = Rc::clone(&d);
        sim.spawn(async move {
            let client = SimClient::for_process(&d, 0, p);
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"bench"))
                .await
                .unwrap();
            let mut alloc = OidAllocator::new(p + 1);
            let payload = Bytes::from(vec![1u8; MIB as usize]);
            for _ in 0..6 {
                let h = client.array_create(&cont, alloc.next(class)).await.unwrap();
                client
                    .array_write(&cont, &h, 0, payload.clone())
                    .await
                    .unwrap();
            }
        });
    }
    sim.run().expect_quiescent().as_secs_f64()
}

/// Writes 24 RP2 arrays, kills engine 0 and rebuilds it: `(objects
/// moved, 0)`.
fn rebuild() -> (f64, f64) {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(2, 1));
    let moved = Rc::new(Cell::new(0));
    let (d2, moved2) = (Rc::clone(&d), Rc::clone(&moved));
    sim.spawn(async move {
        let client = SimClient::for_process(&d2, 0, 0);
        let cont = client
            .cont_open_or_create(Uuid::from_name(b"rb"))
            .await
            .unwrap();
        let mut alloc = OidAllocator::new(1);
        let payload = Bytes::from(vec![2u8; MIB as usize]);
        for _ in 0..24 {
            let h = client
                .array_create(&cont, alloc.next(ObjectClass::RP2))
                .await
                .unwrap();
            client
                .array_write(&cont, &h, 0, payload.clone())
                .await
                .unwrap();
        }
        d2.kill_engine(0);
        let r = rebuild_engine(&d2, 0)
            .await
            .expect("rebuild of killed engine");
        moved2.set(r.objects_moved);
    });
    sim.run().expect_quiescent();
    (moved.get() as f64, 0.0)
}

/// Fig. 5 at two servers: pattern B, low contention, `(no-containers,
/// no-index)` GiB/s.
fn fig5_modes() -> (f64, f64) {
    let run = |mode| {
        run_pattern_b(&effect_pattern(
            mode,
            Contention::Low,
            Calibration::nextgenio(),
        ))
        .aggregate_gib()
    };
    (run(FieldIoMode::NoContainers), run(FieldIoMode::NoIndex))
}

/// Fig. 7 at four servers and four client nodes: IOR write GiB/s over
/// `(PSM2, TCP)`, eight processes per node writing ten 1 MiB segments.
fn fig7_providers() -> (f64, f64) {
    let params = IorParams {
        transfer_bytes: MIB,
        segments: 10,
        procs_per_node: 8,
        class: ObjectClass::S1,
        iterations: 1,
        file_mode: daosim_ior::FileMode::FilePerProcess,
        inflight: 1,
        api: daosim_ior::Api::Daos,
    };
    let mut tcp = ClusterSpec::psm2(4, 4);
    tcp.provider = ProviderProfile::tcp();
    (
        run_ior(ClusterSpec::psm2(4, 4), params).write_bw(),
        run_ior(tcp, params).write_bw(),
    )
}

/// Every row must hold; a failure lists each broken row with its values.
#[test]
fn model_effects_hold_at_reduced_scale() {
    use ObjectClass::{EC2P1, RP2, S1};
    let rows: [Effect; 10] = [
        (
            "stream cap: uncapped > 1.5x capped",
            stream_cap,
            Holds::Above(1.5),
        ),
        (
            "container table: zeroed > calibrated",
            cont_table,
            Holds::Above(1.0),
        ),
        (
            "KV serialisation: zeroed > calibrated",
            kv_serialisation,
            Holds::Above(1.0),
        ),
        ("frictionless >= real", frictionless, Holds::AtLeast),
        (
            "write time: RP2 > S1",
            || (redundancy_write_secs(RP2), redundancy_write_secs(S1)),
            Holds::Above(1.0),
        ),
        (
            "write time: EC2P1 > S1",
            || (redundancy_write_secs(EC2P1), redundancy_write_secs(S1)),
            Holds::Above(1.0),
        ),
        (
            "write time: RP2 > EC2P1",
            || (redundancy_write_secs(RP2), redundancy_write_secs(EC2P1)),
            Holds::Above(1.0),
        ),
        ("rebuild: objects moved > 0", rebuild, Holds::Above(1.0)),
        (
            "Fig. 5: no-containers > no-index",
            fig5_modes,
            Holds::Above(1.0),
        ),
        (
            "Fig. 7: PSM2 IOR > TCP IOR",
            fig7_providers,
            Holds::Above(1.0),
        ),
    ];
    let broken: Vec<String> = rows
        .iter()
        .filter_map(|&(name, run, holds)| {
            let (lhs, rhs) = run();
            (!holds.check(lhs, rhs)).then(|| format!("{name}: {lhs} vs {rhs} ({holds:?})"))
        })
        .collect();
    assert!(broken.is_empty(), "{broken:#?}");
}
