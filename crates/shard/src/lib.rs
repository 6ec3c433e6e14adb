//! The former shard runtime (DESIGN.md §13).
//!
//! The engine runs single-threaded: no code in the workspace fans work
//! out over these types any more. The crate stays only because the
//! benchmark adapter in `perfbench/` still calls
//! [`ShardPlan::contiguous`], [`ShardExec::new`] and, through
//! `dtnflow_sim`, `SimSession::start_sharded` and the trait default
//! `Router::on_time_unit_sharded`, which ignores the runtime. ROADMAP
//! item 1(b) moves the adapter off these names; item 2 then deletes
//! this crate.
//!
//! * [`ShardPlan`] — a validated partition of landmark indexes into
//!   shards (contiguous, round-robin, or arbitrary maps);
//! * [`ShardExec`] — a scoped fork/join executor whose results come back
//!   in part order; `src/exec.rs` is the one file detlint C1 allowlists
//!   for thread primitives.

#![forbid(unsafe_code)]
// Non-test code in this crate must not unwrap/expect (detlint P1);
// clippy enforces the same invariant at compile time.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod exec;
pub mod plan;

pub use exec::ShardExec;
pub use plan::{ShardPlan, ShardPlanError};

/// The shard runtime handed to engine/router hooks: the partition plus
/// the executor. Borrowed, so one plan/executor pair drives a whole run.
#[derive(Debug, Clone, Copy)]
pub struct Sharding<'a> {
    /// Which landmark belongs to which shard.
    pub plan: &'a ShardPlan,
    /// The fan-out executor.
    pub exec: &'a ShardExec,
}

impl<'a> Sharding<'a> {
    /// Bundle a plan and an executor.
    pub fn new(plan: &'a ShardPlan, exec: &'a ShardExec) -> Sharding<'a> {
        Sharding { plan, exec }
    }
}
