//! Quickstart: use the embedded object store as a weather-field archive.
//!
//! Runs entirely in-process and instantaneously — no simulation involved.
//! This is the "FDB5 semantics" path a downstream tool would embed:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use daosim::bytes::Bytes;
use daosim::core::fieldio::{FieldIoConfig, FieldStore};
use daosim::core::key::FieldKey;
use daosim::kernel::Sim;
use daosim::objstore::{EmbeddedClient, Pool, Uuid, DEFAULT_POOL_CAPACITY};
use std::rc::Rc;

fn main() {
    // A 24-target pool, like two DAOS engines' worth of storage.
    let pool = Rc::new(Pool::new(Uuid::NIL, 24, DEFAULT_POOL_CAPACITY));
    let client = EmbeddedClient::new(pool.clone());

    // The embedded backend completes operations immediately, but the API
    // is async (the simulated backend suspends); drive it with the
    // deterministic executor.
    let sim = Sim::new();
    sim.block_on(async move {
        let fs = FieldStore::connect(client, FieldIoConfig::default(), 1)
            .await
            .expect("connect");

        // Archive a few fields of one forecast: 2D slices of temperature
        // and wind at several pressure levels.
        let mut archived = 0u32;
        for param in ["t", "u", "v"] {
            for level in [1000u32, 850, 500, 250] {
                for step in [0u32, 24, 48] {
                    let key = field_key(param, level, step);
                    let data = synthetic_field(param, level, step);
                    fs.write_field(&key, data).await.expect("write");
                    archived += 1;
                }
            }
        }
        println!("archived {archived} fields");

        // Retrieve one field by key.
        let key = field_key("t", 500, 24);
        let field = fs.read_field(&key).await.expect("read");
        println!("read back {} ({} bytes)", key, field.len());
        assert_eq!(field, synthetic_field("t", 500, 24));

        // List everything indexed for the forecast.
        let listed = fs.list_fields(&key).await.expect("list");
        println!(
            "forecast holds {} fields; first: {}",
            listed.len(),
            listed[0]
        );
        assert_eq!(listed.len(), archived as usize);

        // Re-writing a key re-points the index to a fresh Array; the read
        // returns the latest version.
        fs.write_field(&key, Bytes::from_static(b"amended analysis"))
            .await
            .expect("re-write");
        let amended = fs.read_field(&key).await.expect("read amended");
        println!(
            "after re-write: {:?}",
            std::str::from_utf8(&amended).unwrap()
        );
    });

    println!(
        "pool now holds {} containers, {} bytes charged",
        pool.cont_count(),
        pool.used()
    );
}

fn field_key(param: &str, level: u32, step: u32) -> FieldKey {
    FieldKey::from_pairs([
        ("class", "od".to_string()),
        ("stream", "oper".to_string()),
        ("expver", "0001".to_string()),
        ("date", "20290101".to_string()),
        ("time", "0000".to_string()),
        ("param", param.to_string()),
        ("levelist", level.to_string()),
        ("step", step.to_string()),
    ])
}

/// A recognisable fake GRIB payload.
fn synthetic_field(param: &str, level: u32, step: u32) -> Bytes {
    let header = format!("GRIB:{param}:{level}:{step}:");
    let mut v = header.into_bytes();
    v.resize(64 * 1024, 0xAB);
    Bytes::from(v)
}
