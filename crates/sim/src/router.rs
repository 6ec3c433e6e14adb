//! The algorithm-facing event interface.
//!
//! A [`Router`] receives the simulator's events and reacts by calling the
//! transfer primitives on the [`World`]. The engine guarantees:
//!
//! * `on_arrive` fires after the node is registered at the landmark (and,
//!   in no-station mode, after auto-delivery of its packets destined
//!   there);
//! * `on_encounter` fires once per (newcomer, already-present) pair, with
//!   the newcomer first — before `on_arrive`;
//! * `on_depart` fires while the node is still registered, so departure
//!   bookkeeping can inspect presence;
//! * `on_time_unit` fires at every multiple of `SimConfig::time_unit`,
//!   after expired packets are purged and the radio budget is reset;
//! * `on_timer` fires at (or after) the time passed to
//!   `World::schedule_timer`, with the same token.

use crate::world::World;
use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_shard::Sharding;

/// A DTN routing algorithm under simulation.
pub trait Router {
    /// Display name ("DTN-FLOW", "PROPHET", …).
    fn name(&self) -> &'static str;

    /// Whether this router stores packets at landmark stations (DTN-FLOW)
    /// rather than only on mobile nodes (the baselines). Controls where
    /// generated packets start and how delivery is detected.
    fn uses_stations(&self) -> bool {
        false
    }

    /// A node connected to a landmark.
    fn on_arrive(&mut self, world: &mut World, node: NodeId, lm: LandmarkId);

    /// A node is about to disconnect from a landmark.
    fn on_depart(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        let _ = (world, node, lm);
    }

    /// `newcomer` just connected to a landmark where `present` already is.
    fn on_encounter(
        &mut self,
        world: &mut World,
        newcomer: NodeId,
        present: NodeId,
        lm: LandmarkId,
    ) {
        let _ = (world, newcomer, present, lm);
    }

    /// A packet was generated (already placed pending / at its source
    /// station by the engine).
    fn on_packet_generated(&mut self, world: &mut World, pkt: PacketId);

    /// A measurement time unit boundary (§IV-C.1), `unit` counts from 0.
    fn on_time_unit(&mut self, world: &mut World, unit: u64) {
        let _ = (world, unit);
    }

    /// The engine's entry to [`Router::on_time_unit`]: every unit
    /// boundary comes through here, and the default ignores the inert
    /// `shards` and calls `on_time_unit`. No router in the workspace
    /// overrides it. It stays because the benchmark adapter's timing
    /// wrapper still overrides it; ROADMAP items 3(b) and 3(c) delete it
    /// with the rest of the shard names (DESIGN.md §13).
    fn on_time_unit_sharded(&mut self, world: &mut World, unit: u64, shards: &Sharding<'_>) {
        let _ = shards;
        self.on_time_unit(world, unit);
    }

    /// An evenly spaced observation point (Fig. 8 snapshots).
    fn on_observe(&mut self, world: &mut World, idx: usize) {
        let _ = (world, idx);
    }

    /// A timer requested through `World::schedule_timer` fired.
    fn on_timer(&mut self, world: &mut World, token: u64) {
        let _ = (world, token);
    }

    // ---- fault-injection hooks (no-ops by default, so routers that
    // ---- ignore faults — the baselines — are byte-identical with or
    // ---- without an empty fault plan) ---------------------------------

    /// The station at `lm` just went down: it refuses all transfers and
    /// buffers nothing until [`Router::on_station_up`]. Packets it stored
    /// remain stranded inside.
    fn on_station_down(&mut self, world: &mut World, lm: LandmarkId) {
        let _ = (world, lm);
    }

    /// The station at `lm` recovered. A degradation-aware router should
    /// re-queue the packets stranded there.
    fn on_station_up(&mut self, world: &mut World, lm: LandmarkId) {
        let _ = (world, lm);
    }

    /// `node` failed (churn): by the time this fires it has been removed
    /// from the network and everything it carried is destroyed. `at` is
    /// the landmark it was at when it failed, if any — for router-side
    /// bookkeeping only; the node is no longer there.
    fn on_node_fail(&mut self, world: &mut World, node: NodeId, at: Option<LandmarkId>) {
        let _ = (world, node, at);
    }

    /// `node` recovered from churn; it rejoins the network at its next
    /// trace arrival.
    fn on_node_recover(&mut self, world: &mut World, node: NodeId) {
        let _ = (world, node);
    }
}
