//! ENOSPC through the POSIX namespace: a DFS mounted on a nearly-full
//! pool reports `DaosError::NoSpace` as a typed, permanent `DfsError`
//! from both `write` and `close` — never a panic.

use std::rc::Rc;

use bytes::Bytes;
use daosim_dfs::{DfsError, DfsHandle};
use daosim_objstore::prelude::{DaosError, EmbeddedClient};
use daosim_objstore::{Pool, Uuid};
use proptest::prelude::*;

/// The embedded backend never actually suspends; poll once.
fn block_on<F: std::future::Future>(fut: F) -> F::Output {
    let waker = std::task::Waker::noop();
    let mut cx = std::task::Context::from_waker(waker);
    let mut fut = std::pin::pin!(fut);
    match fut.as_mut().poll(&mut cx) {
        std::task::Poll::Ready(v) => v,
        std::task::Poll::Pending => panic!("embedded backend suspended"),
    }
}

/// `NoSpace`, wrapped with DFS context and still permanent.
fn is_permanent_no_space(e: &DfsError) -> bool {
    matches!(e.daos_source(), Some(DaosError::NoSpace)) && !e.is_transient()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Writes into a shrunken pool end in a typed `NoSpace`; the dirty
    /// `close` that follows (dirent size update on a full pool) either
    /// lands or reports the same typed error — no panic, no retry bait.
    #[test]
    fn dfs_write_and_close_report_no_space_when_full(
        capacity_kib in 2u64..32,
        chunk in 1usize..4096,
    ) {
        // The mount itself writes the superblock and root directory, so
        // the floor of 2 KiB keeps mount viable while writes still hit
        // the wall.
        let pool = Rc::new(Pool::new(Uuid::from_name(b"tiny-dfs"), 4, capacity_kib * 1024));
        let client = EmbeddedClient::new(pool);
        let outcome = block_on(async {
            let fs = DfsHandle::mount(client, Uuid::from_name(b"enospc"), 1).await?;
            let mut f = fs.create("/field.grib").await?;
            let mut write_errors = Vec::new();
            let mut off = 0u64;
            let rounds = (capacity_kib * 1024) as usize / chunk + 3;
            for _ in 0..rounds {
                match fs.write(&mut f, off, Bytes::from(vec![9u8; chunk])).await {
                    Ok(()) => off += chunk as u64,
                    Err(e) => write_errors.push(e),
                }
            }
            let close_result = fs.close(f).await;
            Ok::<_, DfsError>((write_errors, close_result))
        });
        let (write_errors, close_result) = match outcome {
            Ok(v) => v,
            // Mount or create already hit the wall: that must itself be
            // a typed NoSpace, which satisfies the property.
            Err(e) => {
                prop_assert!(is_permanent_no_space(&e), "setup failed with {e}");
                return Ok(());
            }
        };
        prop_assert!(
            !write_errors.is_empty(),
            "a {capacity_kib} KiB pool never filled on {chunk}-byte DFS writes"
        );
        for e in &write_errors {
            prop_assert!(is_permanent_no_space(e), "write failed with {e}, not NoSpace");
        }
        if let Err(e) = close_result {
            prop_assert!(is_permanent_no_space(&e), "close failed with {e}, not NoSpace");
        }
    }
}
