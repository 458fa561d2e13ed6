//! The embedded store and the simulated cluster must agree on semantics:
//! the same field I/O program produces byte-identical results on both
//! backends — only the timing differs.

use daosim::bytes::Bytes;
use daosim::cluster::{ClusterSpec, Deployment, SimClient};
use daosim::core::fieldio::{FieldIoConfig, FieldIoError, FieldIoMode, FieldStore};
use daosim::core::key::FieldKey;
use daosim::kernel::Sim;
use daosim::objstore::{DaosApi, DaosStore, EmbeddedClient};
use std::cell::RefCell;
use std::rc::Rc;

fn key(step: u32, member: u32) -> FieldKey {
    FieldKey::from_pairs([
        ("class", "od".to_string()),
        ("date", "20290101".to_string()),
        ("time", "1200".to_string()),
        ("expver", "0001".to_string()),
        ("number", member.to_string()),
        ("param", "t".to_string()),
        ("step", step.to_string()),
    ])
}

fn field(step: u32, member: u32) -> Bytes {
    let mut v = format!("field-{member}-{step}:").into_bytes();
    v.resize(32 * 1024, (step + member) as u8);
    Bytes::from(v)
}

/// Runs the program against one backend and returns every read-back.
async fn program<D: DaosApi>(client: D, mode: FieldIoMode) -> Vec<(String, Bytes)> {
    let fs = FieldStore::connect(client, FieldIoConfig::builder().mode(mode).build(), 7)
        .await
        .expect("connect");
    // Write a grid of fields, re-write some of them, then read all back.
    for member in 0..3 {
        for step in [0u32, 6, 12] {
            fs.write_field(&key(step, member), field(step, member))
                .await
                .expect("write");
        }
    }
    for member in 0..3 {
        fs.write_field(&key(6, member), field(600, member))
            .await
            .expect("re-write");
    }
    let mut out = Vec::new();
    for member in 0..3 {
        for step in [0u32, 6, 12] {
            let data = fs.read_field(&key(step, member)).await.expect("read");
            out.push((key(step, member).canonical().to_owned(), data));
        }
    }
    // Missing keys must fail identically.
    match fs.read_field(&key(99, 0)).await {
        Err(FieldIoError::FieldNotFound(_)) => {}
        other => panic!("expected FieldNotFound, got {other:?}"),
    }
    out
}

fn run_embedded(mode: FieldIoMode) -> Vec<(String, Bytes)> {
    let (_s, pool) = DaosStore::with_single_pool(48);
    let client = EmbeddedClient::new(pool);
    let out: Rc<RefCell<Vec<(String, Bytes)>>> = Rc::default();
    let out2 = Rc::clone(&out);
    let sim = Sim::new();
    sim.block_on(async move {
        *out2.borrow_mut() = program(client, mode).await;
    });
    Rc::try_unwrap(out).unwrap().into_inner()
}

fn run_simulated(mode: FieldIoMode) -> Vec<(String, Bytes)> {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    let out: Rc<RefCell<Vec<(String, Bytes)>>> = Rc::default();
    let out2 = Rc::clone(&out);
    sim.block_on(async move {
        *out2.borrow_mut() = program(client, mode).await;
    });
    Rc::try_unwrap(out).unwrap().into_inner()
}

#[test]
fn backends_agree_in_every_mode() {
    for mode in FieldIoMode::all() {
        let embedded = run_embedded(mode);
        let simulated = run_simulated(mode);
        assert_eq!(embedded.len(), simulated.len(), "mode {mode}");
        for ((ka, da), (kb, db)) in embedded.iter().zip(&simulated) {
            assert_eq!(ka, kb, "mode {mode}");
            assert_eq!(da, db, "mode {mode}: divergent data for {ka}");
        }
    }
}

#[test]
fn rewrites_visible_on_both_backends() {
    for mode in FieldIoMode::all() {
        for out in [run_embedded(mode), run_simulated(mode)] {
            for (k, data) in &out {
                if k.contains("step=6") {
                    assert!(
                        data.starts_with(b"field-") && data[..20].windows(4).any(|w| w == b"-600"),
                        "mode {mode}: {k} should hold the re-written version"
                    );
                }
            }
        }
    }
}

#[test]
fn simulated_run_takes_simulated_time() {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    sim.spawn(async move {
        let _ = program(client, FieldIoMode::Full).await;
    });
    let end = sim.run().expect_quiescent();
    assert!(
        end.as_secs_f64() > 0.001,
        "cluster I/O must cost time: {end}"
    );
}
