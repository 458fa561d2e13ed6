//! # daosim-objstore — an embeddable object store with DAOS semantics
//!
//! A from-scratch Rust reimplementation of the DAOS storage abstractions
//! the paper's field I/O layer is built on:
//!
//! * [`pool::Pool`] — reserved storage spanning *targets*, hosting
//!   containers, with capacity accounting: the store half of every
//!   occupancy-changing op (check, charge, mutate) lives here, once, and
//!   both `DaosApi` backends run it;
//! * [`container::Container`] — a transactional object namespace;
//! * [`kv::KvObject`] — Key-Value objects (the paper's indexes);
//! * [`array::ArrayObject`] — byte-extent Array objects (field payloads),
//!   stored extent-based and zero-copy where possible;
//! * [`oid::Oid`] / [`oid::ObjectClass`] — 128-bit object ids with 96
//!   user-managed bits and S1/S2/SX striping classes;
//! * [`placement`] — deterministic shard/key/chunk → target mapping;
//! * [`md5`] / [`uuid::Uuid`] — the md5-derived deterministic container
//!   naming the paper uses for race-free concurrent creation;
//! * [`api::DaosApi`] — the async client trait implemented both by the
//!   embedded store ([`api::EmbeddedClient`]) and by the simulated
//!   cluster in `daosim-cluster`.
//!
//! The store is single-threaded, like the simulator's kernel: share a
//! pool behind an `Rc`. It can be used directly as an in-process object
//! store, independent of the simulator.

pub mod api;
pub mod array;
pub mod container;
pub mod ec;
pub mod error;
pub mod kv;
pub mod md5;
pub mod oid;
pub mod placement;
pub mod pool;
pub mod snapshot;
pub mod uuid;

pub use api::{
    ArrayHandle, DaosApi, EmbeddedClient, EqCapacity, EqWait, Event, EventQueue, OidAllocator,
    OpFuture, OpOutput,
};

/// The blessed client-facing surface, in one import: the [`api::DaosApi`]
/// trait, the event-queue machinery, handles, ids and error types every
/// frontend (field I/O, IOR, DFS, future backends) builds on. Frontends
/// import from here; store internals (placement, EC, snapshots, pools)
/// stay at their crate paths.
pub mod prelude {
    pub use crate::api::{
        ArrayHandle, DaosApi, EmbeddedClient, EqCapacity, EqWait, Event, EventQueue, OidAllocator,
        OpFuture, OpOutput,
    };
    pub use crate::error::{DaosError, Result};
    pub use crate::oid::{ObjectClass, Oid};
    pub use crate::uuid::Uuid;
}
pub use array::ArrayObject;
pub use container::{Container, ContainerStats, Object, OpCounts};
pub use error::{DaosError, Result};
pub use kv::KvObject;
pub use oid::{ObjectClass, Oid};
pub use pool::{Pool, DEFAULT_POOL_CAPACITY};
pub use snapshot::{load_pool, save_pool, SnapshotError};
pub use uuid::Uuid;
