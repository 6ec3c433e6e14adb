//! What is left of the former shard runtime (DESIGN.md §13).
//!
//! The engine runs single-threaded and nothing fans work out any more.
//! These three names hold nothing and ignore their arguments. They stay
//! only because the benchmark adapter in `perfbench/` still calls
//! [`ShardPlan::contiguous`] and [`ShardExec::new`] for
//! `SimSession::start_sharded`, and its timing wrapper overrides
//! `Router::on_time_unit_sharded`, which takes a [`Sharding`]. ROADMAP
//! item 3(b) moves the adapter off these names; item 3(c) then deletes
//! this crate.

use std::marker::PhantomData;

/// A landmark partition that records nothing.
#[derive(Debug)]
pub struct ShardPlan(());

impl ShardPlan {
    /// An inert plan; both arguments are ignored.
    pub fn contiguous(num_landmarks: usize, shards: usize) -> ShardPlan {
        let _ = (num_landmarks, shards);
        ShardPlan(())
    }
}

/// An executor that runs nothing.
#[derive(Debug)]
pub struct ShardExec(());

impl ShardExec {
    /// An inert executor; `threads` is ignored.
    pub fn new(threads: usize) -> ShardExec {
        let _ = threads;
        ShardExec(())
    }
}

/// The argument of `Router::on_time_unit_sharded`: empty.
#[derive(Debug, Default)]
pub struct Sharding<'a>(PhantomData<&'a ()>);
