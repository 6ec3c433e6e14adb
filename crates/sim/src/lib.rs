//! Trace-driven discrete-event DTN simulator.
//!
//! The simulator replays a mobility [`dtnflow_mobility::Trace`] as a stream
//! of node arrival/departure events, generates a packet workload, and lets
//! a routing algorithm (anything implementing [`Router`]) decide every
//! packet movement. The engine owns the mechanics the paper holds constant
//! across algorithms — node memory limits, packet TTLs, delivery detection,
//! cost accounting — so that DTN-FLOW and the five baselines are compared
//! under identical rules (§V-A.1).
//!
//! * [`world::World`] — simulation state and the transfer primitives;
//! * [`router::Router`] — the algorithm-facing event hooks;
//! * [`workload::Workload`] — packet generation schedules;
//! * [`faults`] — seeded fault plans (outages, churn, truncation,
//!   record loss) for resilience experiments;
//! * [`engine`] — the event loop: [`RunSpec`] names one run's inputs
//!   (trace and config, plus an optional workload, fault plan and sink)
//!   and [`RunSpec::run`] drives it to the end; [`SimSession`] is the
//!   same loop with pause, checkpoint and resume.
//!
//! Observability (DESIGN.md §9): attach a [`dtnflow_obs::TraceSink`] via
//! [`RunSpec::sink`] and the world emits structured
//! [`dtnflow_obs::SimEvent`]s — contact, packet-lifecycle and fault
//! transitions — without perturbing outcomes.

#![forbid(unsafe_code)]
// Non-test code in this crate must not unwrap/expect (detlint P1);
// clippy enforces the same invariant at compile time.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod faults;
pub mod router;
pub mod store;
pub mod workload;
pub mod world;

pub use engine::{RunSpec, SimOutcome, SimSession};
pub use faults::{FaultConfig, FaultPlan, NodeOutage, StationOutage};
pub use router::Router;
pub use store::PacketStore;
pub use workload::Workload;
pub use world::{LossReason, TransferError, TransferOutcome, World, WorldError};

// Re-export the observability vocabulary so downstream crates can attach
// sinks without a direct dtnflow-obs dependency.
pub use dtnflow_obs::{NoopSink, Recorder, SimEvent, TraceSink};

// The inert shard names stay re-exported only because the benchmark
// adapter still builds a `ShardPlan` and `ShardExec` for
// `SimSession::start_sharded` and wraps `Router::on_time_unit_sharded`
// (DESIGN.md §13); ROADMAP items 3(b) and 3(c) delete them together.
pub use dtnflow_shard::{ShardExec, ShardPlan, Sharding};
