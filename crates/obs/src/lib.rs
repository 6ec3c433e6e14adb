//! # dtnflow-obs — deterministic simulation observability
//!
//! Event tracing, per-landmark counters, EWMA-bandwidth gauges, and
//! delay/hop histograms for the DTN-FLOW simulator, designed around two
//! hard rules (DESIGN.md §9):
//!
//! 1. **Zero overhead when disabled.** The simulator emits events through
//!    a closure that is only invoked while a [`TraceSink`] is attached;
//!    with tracing off, not even the event struct is built.
//! 2. **Never perturb outcomes.** Sinks observe; they cannot feed back
//!    into routing or the RNG. Experiment CSVs are byte-identical with
//!    tracing on and off (enforced by `csv_determinism`), and a recorded
//!    stream for a fixed seed is byte-stable across processes.
//!
//! Determinism contract: all timestamps are [`SimTime`] (no wall clock),
//! all keyed state is `BTreeMap`-ordered, and JSON/CSV exports render
//! identically for identical inputs.
//!
//! [`SimTime`]: dtnflow_core::time::SimTime

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod buffer;
pub mod event;
pub mod json;
pub mod metrics;
pub mod schema;
pub mod sink;
pub mod snapshot;

pub use buffer::EventBuffer;
pub use event::{LossKind, Place, SimEvent};
pub use metrics::{LandmarkCounters, ObsMetrics, Totals, DELAY_BUCKET_EDGES_SECS};
pub use sink::{NoopSink, Recorder, TraceSink, DEFAULT_RING_CAPACITY};
pub use snapshot::{bench_json, report_json, BenchEntry, LandmarkRow, Snapshot};
