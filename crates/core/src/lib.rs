//! # daosim-core — weather-field I/O over DAOS (the paper's contribution)
//!
//! Implements §4 and §5 of *"DAOS as HPC Storage: a View From Numerical
//! Weather Prediction"*:
//!
//! * [`key`] — field keys and the most/least-significant split;
//! * [`fieldio`] — the field write/read functions (Algorithms 1 & 2) in
//!   `full`, `no-containers` and `no-index` modes, generic over the
//!   [`daosim_objstore::DaosApi`] backend (embedded store or simulated
//!   cluster);
//! * [`metrics`] — the timestamped-event framework and the paper's two
//!   throughput definitions (synchronous and global timing bandwidth);
//! * [`obs`] — span-trace export (Chrome trace-event JSON for Perfetto,
//!   flat CSV) and structural validation of recorded traces;
//! * [`workload`] — realistic key/payload generation with the high- and
//!   low-contention regimes;
//! * [`patterns`] — access patterns A (unique writes then unique reads)
//!   and B (repeated writes while repeated reads);
//! * [`request`] — MARS-style multi-field requests (cartesian keyword
//!   expansion and bulk retrieval);
//! * [`ioserver`] — the model-rank → I/O-server aggregation pipeline the
//!   paper's operational context describes (§1.2);
//! * [`trace`] — schedule-driven workload traces with paced replay and
//!   tardiness accounting (did storage keep the time-critical window?).

pub mod cycle;
pub mod fieldio;
pub mod ioserver;
pub mod key;
pub mod metrics;
pub mod obs;
pub mod patterns;
pub mod request;
pub mod trace;
pub mod workload;

pub use cycle::{
    cycle_contents, run_nwp_cycle, CycleConfig, CycleConfigError, CycleOutcome, DeadlineLedger,
    IndexLayout,
};
pub use fieldio::{FieldIoConfig, FieldIoError, FieldIoMode, FieldResult, FieldStore};
pub use key::{FieldKey, KeyPart, KeySchema};
pub use metrics::{
    bandwidth_timeline, events_to_csv, latency_stats, EventKind, EventRecord, LatencyStats,
    PhaseStats, Recorder,
};
pub use obs::{
    chrome_trace_json, json_is_wellformed, spans_to_csv, validate_spans, write_chrome_trace,
    MetricsSnapshot, SpanEvent, TraceSummary,
};
pub use patterns::{run_pattern_a, run_pattern_b, PatternConfig, PatternResult};
pub use request::{archive_all, retrieve, Request, Retrieval};
pub use trace::{
    replay, replay_traced, Pacing, ReplayOutcome, ReplayStats, Trace, TraceEntry, TracedReplay,
};
pub use workload::{payload, Contention, KeyGen};
