//! A miniature archive tool: MARS-style requests plus durable snapshots.
//!
//! Stages a batch of fields named by a request, persists the pool to a
//! snapshot file, reloads it as a fresh store, and serves a retrieval —
//! the full life cycle of an embedded field archive.
//!
//! ```text
//! cargo run --release --example archive_tool [snapshot-path]
//! ```

use daosim::bytes::Bytes;
use daosim::core::fieldio::{FieldIoConfig, FieldStore};
use daosim::core::request::{archive_all, retrieve, Request};
use daosim::kernel::Sim;
use daosim::objstore::{load_pool, save_pool, EmbeddedClient, Pool, Uuid, DEFAULT_POOL_CAPACITY};
use std::rc::Rc;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/daosim-archive.snap".to_string());

    // ---- stage 1: archive a request expansion --------------------------
    let pool = Rc::new(Pool::new(Uuid::NIL, 24, DEFAULT_POOL_CAPACITY));
    let mut req = Request::new();
    req.set("class", ["od"])
        .set("date", ["20290101"])
        .set("expver", ["0001"])
        .set("param", ["t", "u", "v", "q"])
        .set("levelist", ["1000", "850", "500", "250"])
        .set("step", ["0", "24", "48"]);
    println!("request names {} fields", req.cardinality());

    let sim = Sim::new();
    let pool2 = pool.clone();
    sim.block_on(async move {
        let fs = FieldStore::connect(EmbeddedClient::new(pool2), FieldIoConfig::default(), 1)
            .await
            .unwrap();
        let n = archive_all(&fs, &req, |key| {
            let mut v = format!("GRIB {key}").into_bytes();
            v.resize(128 * 1024, 0);
            Bytes::from(v)
        })
        .await
        .unwrap();
        println!(
            "archived {n} fields ({} containers)",
            fs.client().pool().cont_count()
        );
    });

    // ---- stage 2: persist ------------------------------------------------
    let mut f = std::fs::File::create(&path).expect("create snapshot");
    save_pool(&pool, &mut f).expect("save snapshot");
    let size = std::fs::metadata(&path).unwrap().len();
    println!("snapshot written: {path} ({size} bytes)");

    // ---- stage 3: reload and retrieve -------------------------------------
    let mut f = std::fs::File::open(&path).expect("open snapshot");
    let restored = load_pool(&mut f).expect("load snapshot");
    println!(
        "restored pool: {} containers, {} bytes used",
        restored.cont_count(),
        restored.used()
    );

    let sim = Sim::new();
    sim.block_on(async move {
        let fs = FieldStore::connect(EmbeddedClient::new(restored), FieldIoConfig::default(), 2)
            .await
            .unwrap();
        let q = Request::parse(
            "class=od,date=20290101,expver=0001,param=t/v,levelist=500,step=0/24/48",
        )
        .unwrap();
        let got = retrieve(&fs, &q).await.unwrap();
        println!(
            "retrieved {} fields ({} bytes), {} missing",
            got.fields.len(),
            got.total_bytes(),
            got.missing.len()
        );
        assert!(got.is_complete());
        for (key, data) in got.fields.iter().take(3) {
            let header = std::str::from_utf8(&data[..40]).unwrap_or("?");
            println!("  {key} -> {header}...");
        }
    });

    let _ = std::fs::remove_file(&path);
}
