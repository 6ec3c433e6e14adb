//! Deterministic sharding runtime (DESIGN.md §13).
//!
//! The sharded engine follows a *compute-parallel, commit-ordered* model:
//! shards compute independently within a time unit and their effects are
//! committed in a fixed order (ascending shard, ascending entity id), so
//! every output byte is identical for any shard count. This crate holds
//! the two pieces that model needs:
//!
//! * [`ShardPlan`] — a validated partition of landmark indexes into
//!   shards (contiguous, round-robin, or arbitrary maps for adversarial
//!   tests);
//! * [`ShardExec`] — the **one sanctioned spawn/join site** in the
//!   workspace (detlint C1 allowlists exactly `src/exec.rs`): a scoped
//!   fan-out whose results are consumed in part order, never in
//!   completion order.
//!
//! Nothing here may influence *what* is computed — only *where*. The
//! differential test battery in `crates/bench` holds that line by
//! byte-comparing every artifact across shard counts.

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
