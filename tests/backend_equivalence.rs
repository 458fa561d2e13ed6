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

/// The overflow probes run on one backend: an `array_write` whose extent
/// ends past `u64::MAX`, an `array_read` past it, and a vectored write
/// with one such extent. Returns each result plus the pool's used bytes
/// after the probes.
async fn overflow_probes<D: DaosApi>(client: &D, pool_used: impl Fn() -> u64) -> Vec<String> {
    use daosim::objstore::{ObjectClass, Oid, Uuid};
    let cont = client
        .cont_open_or_create(Uuid::from_name(b"overflow"))
        .await
        .expect("cont");
    let mut out = Vec::new();
    for class in [ObjectClass::S1, ObjectClass::RP2, ObjectClass::EC2P1] {
        let h = client
            .array_create(&cont, Oid::generate(60, class as u64, class))
            .await
            .expect("create");
        let before = pool_used();
        let data = Bytes::from_static(b"0123456789");
        let w = client
            .array_write(&cont, &h, u64::MAX - 4, data.clone())
            .await;
        let r = client.array_read(&cont, &h, u64::MAX - 4, 10).await;
        let v = client
            .array_write_vec(&cont, &h, vec![(0, data.clone()), (u64::MAX, data)])
            .await;
        out.push(format!("{class:?} {w:?} {:?} {v:?}", r.map(|b| b.len())));
        assert_eq!(
            pool_used(),
            before,
            "{class:?}: an overflowing extent was charged"
        );
        client.array_close(&cont, h).await.expect("close");
    }
    out
}

/// Runs `fut` to completion on `sim` and returns its output.
fn run_to_end<T: Default + 'static>(
    sim: &Sim,
    fut: impl std::future::Future<Output = T> + 'static,
) -> T {
    let out: Rc<RefCell<T>> = Rc::default();
    let out2 = Rc::clone(&out);
    sim.block_on(async move { *out2.borrow_mut() = fut.await });
    out.take()
}

#[test]
fn overflowing_extents_are_invalid_args_on_both_backends() {
    // Regression: these probes panicked in `ArrayObject::write`/`read`
    // ("array extent overflows u64") through the simulated client.
    let (_s, pool) = DaosStore::with_single_pool(48);
    let embedded = EmbeddedClient::new(std::sync::Arc::clone(&pool));
    let got_embedded = run_to_end(&Sim::new(), async move {
        overflow_probes(&embedded, || pool.used()).await
    });
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    let got_simulated = run_to_end(&sim, async move {
        overflow_probes(&client, || d.pool.used()).await
    });
    let invalid = "Err(InvalidArg(\"array extent overflows u64\"))";
    for line in &got_embedded {
        assert_eq!(line.matches(invalid).count(), 3, "embedded: {line}");
    }
    assert_eq!(got_embedded, got_simulated);
}

/// Reads longer than `MAX_READ_LEN` on one backend: just past the limit,
/// and at `u64::MAX - 1`, on an array whose size (bytes written at 8 GiB,
/// or at 0 for EC, which takes one extent at offset 0) makes the first
/// range real. Returns each result plus a short read that must still
/// work, and asserts the pool did not move.
async fn huge_read_probes<D: DaosApi>(client: &D, pool_used: impl Fn() -> u64) -> Vec<String> {
    use daosim::objstore::array::MAX_READ_LEN;
    use daosim::objstore::{ObjectClass, Oid, Uuid};
    let cont = client
        .cont_open_or_create(Uuid::from_name(b"huge-read"))
        .await
        .expect("cont");
    let mut out = Vec::new();
    for class in [ObjectClass::S1, ObjectClass::RP2, ObjectClass::EC2P1] {
        let h = client
            .array_create(&cont, Oid::generate(61, class as u64, class))
            .await
            .expect("create");
        let at = if class == ObjectClass::EC2P1 {
            0
        } else {
            8 << 30
        };
        let data = Bytes::from_static(b"0123456789");
        client
            .array_write(&cont, &h, at, data)
            .await
            .expect("write");
        let before = pool_used();
        let past = client.array_read(&cont, &h, 0, MAX_READ_LEN + 1).await;
        let huge = client.array_read(&cont, &h, 1, u64::MAX - 1).await;
        let short = client.array_read(&cont, &h, at, 4).await;
        out.push(format!(
            "{class:?} {:?} {:?} {:?}",
            past.map(|b| b.len()),
            huge.map(|b| b.len()),
            short
        ));
        assert_eq!(pool_used(), before, "{class:?}: a read moved the pool");
        client.array_close(&cont, h).await.expect("close");
    }
    out
}

#[test]
fn reads_longer_than_the_limit_are_invalid_args_on_both_backends() {
    // Regression: `ArrayObject::read` zero-fills `len` bytes up front, so
    // these reads aborted the process on allocation.
    let (_s, pool) = DaosStore::with_single_pool(48);
    let embedded = EmbeddedClient::new(std::sync::Arc::clone(&pool));
    let got_embedded = run_to_end(&Sim::new(), async move {
        huge_read_probes(&embedded, || pool.used()).await
    });
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(1, 1));
    let client = SimClient::for_process(&d, 0, 0);
    let got_simulated = run_to_end(&sim, async move {
        huge_read_probes(&client, || d.pool.used()).await
    });
    let invalid = "Err(InvalidArg(\"array read longer than 1 GiB\"))";
    for line in &got_embedded {
        assert_eq!(line.matches(invalid).count(), 2, "embedded: {line}");
        assert!(line.ends_with("Ok(b\"0123\")"), "embedded: {line}");
    }
    assert_eq!(got_embedded, got_simulated);
}
