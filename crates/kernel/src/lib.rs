//! # daosim-kernel — deterministic discrete-event simulation kernel
//!
//! The substrate every performance model in this workspace runs on. It
//! provides:
//!
//! * [`SimTime`]/[`SimDuration`] — integer-nanosecond simulated time,
//! * [`Sim`] — an event calendar plus a single-threaded async executor, so
//!   modelled processes are written as plain `async fn`s,
//! * [`sync::PrioritySemaphore`] (FIFO or writer-priority admission),
//!   MPI-style [`sync::Barrier`], one-shot completions, channels,
//!   [`sync::join_all`], [`sync::join2`], [`sync::race`] and
//!   [`sync::WaitGroup`],
//! * [`rng::stream_rng`] — per-component deterministic random streams.
//!
//! Determinism contract: given the same program and seed, a simulation
//! produces the same event sequence and final time on every run. Ties in
//! the calendar are broken by scheduling order and the executor never uses
//! more than one OS thread. Parallelism belongs *outside*: run many
//! independent `Sim` worlds on many threads (each `Sim` is `!Send` by
//! design).
//!
//! ```
//! use daosim_kernel::{Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let handle = sim.clone();
//! let end = sim.block_on(async move {
//!     handle.sleep(SimDuration::from_micros(3)).await;
//! });
//! assert_eq!(end.as_nanos(), 3_000);
//! ```

pub mod calendar;
pub mod executor;
pub mod obs;
pub mod rng;
pub mod sync;
pub mod time;

pub use executor::{RunOutcome, SchedPolicy, Sim, Sleep, TaskId, TimerHandle};
pub use obs::{
    Counter, CounterHandle, Histogram, HistogramHandle, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, Obs, SpanEvent, SpanGuard, SpanId,
};
pub use sync::{AdmissionClass, AdmissionPolicy};
pub use time::{SimDuration, SimTime};
