//! Shared machinery for the carry-and-compare baselines.
//!
//! A [`UtilityRouter`] wraps a [`UtilityModel`] and implements the routing
//! pattern shared by all five baselines (Fig. 1a):
//!
//! * a packet born in a subarea waits until the first node with free
//!   memory arrives (or is handed to the best-scoring node already there);
//! * when two nodes meet at a landmark, they exchange their utility tables
//!   (counted as maintenance cost) and every packet moves to the node with
//!   the higher utility for its destination landmark;
//! * delivery happens when a carrier reaches the destination landmark
//!   (handled by the engine).

use dtnflow_core::dense::{DenseMap, DenseSet};
use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_core::packet::PacketLoc;
use dtnflow_core::time::{SimDuration, SimTime};
use dtnflow_sim::{Router, TransferError, World};

/// The algorithm-specific part of a baseline: a per-node suitability
/// estimate for carrying packets to each destination landmark.
pub trait UtilityModel {
    /// Display name of the resulting router.
    fn name(&self) -> &'static str;

    /// Learning signal: `node` connected to `lm` at `now`.
    fn on_visit(&mut self, node: NodeId, lm: LandmarkId, now: SimTime);

    /// The node's suitability for delivering to `dst` given the packet's
    /// remaining lifetime. Higher is better; the scale is model-internal.
    fn score(&mut self, node: NodeId, dst: LandmarkId, remaining: SimDuration, now: SimTime)
        -> f64;

    /// Whether `holder` should hand a packet for `dst` to `other`.
    /// The default is a strict score comparison; models with pairwise
    /// normalization (SimBet) override it.
    fn should_forward(
        &mut self,
        holder: NodeId,
        other: NodeId,
        dst: LandmarkId,
        remaining: SimDuration,
        now: SimTime,
    ) -> bool {
        self.score(other, dst, remaining, now) > self.score(holder, dst, remaining, now)
    }

    /// Entries in the utility table exchanged at an encounter (for
    /// maintenance-cost accounting). Defaults to one entry per landmark.
    fn table_entries(&self, num_landmarks: usize) -> usize {
        num_landmarks
    }
}

/// The generic carry-and-compare router.
pub struct UtilityRouter<U: UtilityModel> {
    model: U,
    /// Per node: packets grouped by destination landmark (lazily validated
    /// against the world, since auto-delivery and expiry bypass us).
    /// Dense-indexed map: the forward pass walks destinations in id order
    /// — the same observable order the ordered tree it replaces gave — and
    /// a full receiver aborts the pass midway, so that order matters.
    groups: Vec<DenseMap<u16, DenseSet<PacketId>>>,
    /// Reusable buffers for the forward pass (encounters are the hottest
    /// router path; allocating per pass dominates the pass itself).
    scratch_dsts: Vec<u16>,
    scratch_pkts: Vec<PacketId>,
}

impl<U: UtilityModel> UtilityRouter<U> {
    pub fn new(model: U) -> Self {
        UtilityRouter {
            model,
            groups: Vec::new(),
            scratch_dsts: Vec::new(),
            scratch_pkts: Vec::new(),
        }
    }

    /// Access the wrapped model (diagnostics and tests).
    pub fn model(&self) -> &U {
        &self.model
    }

    fn ensure_node(&mut self, node: NodeId) {
        if self.groups.len() <= node.index() {
            self.groups.resize_with(node.index() + 1, DenseMap::new);
        }
    }

    fn index_packet(&mut self, node: NodeId, dst: LandmarkId, pkt: PacketId) {
        self.ensure_node(node);
        self.groups[node.index()].get_or_default(dst.0).insert(pkt);
    }

    /// One direction of an encounter: move `holder`'s packets to `other`
    /// where the model says so. Stale index entries (auto-delivery and
    /// expiry bypass us) are dropped in the same pass.
    fn forward_pass(&mut self, world: &mut World, holder: NodeId, other: NodeId) {
        self.ensure_node(holder);
        let mut dsts = std::mem::take(&mut self.scratch_dsts);
        dsts.clear();
        dsts.extend(self.groups[holder.index()].keys());
        let mut pkts = std::mem::take(&mut self.scratch_pkts);
        let now = world.now();
        'pass: for &dst in &dsts {
            let Some(set) = self.groups[holder.index()].get_mut(dst) else {
                continue;
            };
            set.retain(|p| world.packet(p).loc == PacketLoc::OnNode(holder));
            pkts.clear();
            pkts.extend(set.iter());
            let dst_lm = LandmarkId(dst);
            for &pkt in pkts.iter() {
                let remaining = world.packet(pkt).remaining_ttl(now);
                if remaining == SimDuration::ZERO {
                    continue;
                }
                if !self
                    .model
                    .should_forward(holder, other, dst_lm, remaining, now)
                {
                    // The model's verdict is per (holder, other, dst,
                    // remaining); with a shared TTL it rarely differs
                    // within a group, but PER's deadline-awareness can
                    // split a group, so keep checking per packet.
                    continue;
                }
                match world.transfer_to_node(pkt, other) {
                    Ok(()) => {
                        if let Some(g) = self.groups[holder.index()].get_mut(dst) {
                            g.remove(pkt);
                        }
                        self.index_packet(other, dst_lm, pkt);
                    }
                    Err(TransferError::NoSpace) => break 'pass, // receiver full
                    Err(_) => continue,
                }
            }
        }
        self.scratch_dsts = dsts;
        self.scratch_pkts = pkts;
    }
}

impl<U: UtilityModel> Router for UtilityRouter<U> {
    fn name(&self) -> &'static str {
        self.model.name()
    }

    fn on_arrive(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        self.model.on_visit(node, lm, world.now());
        // Pick up packets waiting in this subarea (first carrier wins).
        let mut pending = std::mem::take(&mut self.scratch_pkts);
        pending.clear();
        pending.extend(world.pending_at(lm));
        for &pkt in pending.iter() {
            let dst = world.packet(pkt).dst;
            match world.transfer_to_node(pkt, node) {
                Ok(()) => self.index_packet(node, dst, pkt),
                Err(TransferError::NoSpace) => break,
                Err(_) => continue,
            }
        }
        self.scratch_pkts = pending;
    }

    fn on_encounter(
        &mut self,
        world: &mut World,
        newcomer: NodeId,
        present: NodeId,
        _lm: LandmarkId,
    ) {
        // Both nodes exchange their utility tables.
        let entries = self.model.table_entries(world.num_landmarks());
        world.record_table_exchange(entries * 2);
        self.forward_pass(world, newcomer, present);
        self.forward_pass(world, present, newcomer);
    }

    fn on_packet_generated(&mut self, world: &mut World, pkt: PacketId) {
        let p = world.packet(pkt);
        let PacketLoc::PendingAtSource(src) = p.loc else {
            return;
        };
        let dst = p.dst;
        let now = world.now();
        let remaining = p.ttl;
        // Hand it to the best-scoring node already in the subarea.
        let mut best: Option<(f64, NodeId)> = None;
        for n in world.nodes_at(src).iter() {
            if !world.node_has_space(n) {
                continue;
            }
            let s = self.model.score(n, dst, remaining, now);
            if best.is_none_or(|(bs, bn)| s > bs || (s == bs && n < bn)) {
                best = Some((s, n));
            }
        }
        if let Some((_, n)) = best {
            if world.transfer_to_node(pkt, n).is_ok() {
                self.index_packet(n, dst, pkt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_core::config::SimConfig;
    use dtnflow_core::geometry::Point;
    use dtnflow_core::time::DAY;
    use dtnflow_mobility::{Trace, Visit};
    use dtnflow_sim::RunSpec;

    /// A model that scores nodes by a fixed per-node rank — node ids with
    /// higher numbers are "better" for every destination.
    struct RankModel;
    impl UtilityModel for RankModel {
        fn name(&self) -> &'static str {
            "rank"
        }
        fn on_visit(&mut self, _: NodeId, _: LandmarkId, _: SimTime) {}
        fn score(&mut self, node: NodeId, _: LandmarkId, _: SimDuration, _: SimTime) -> f64 {
            node.0 as f64
        }
    }

    fn two_node_trace() -> Trace {
        // Node 0 visits l0 then stays around l0; node 1 visits l0 (meeting
        // node 0) and then l1.
        let visits = vec![
            Visit::new(NodeId(0), LandmarkId(0), SimTime(0), SimTime(5_000)),
            Visit::new(NodeId(1), LandmarkId(0), SimTime(1_000), SimTime(4_000)),
            Visit::new(NodeId(1), LandmarkId(1), SimTime(10_000), SimTime(12_000)),
            // Another cycle so packets generated later also flow.
            Visit::new(NodeId(0), LandmarkId(0), SimTime(86_400), SimTime(96_000)),
            Visit::new(NodeId(1), LandmarkId(0), SimTime(88_000), SimTime(90_000)),
            Visit::new(NodeId(1), LandmarkId(1), SimTime(100_000), SimTime(102_000)),
        ];
        Trace::new(
            "meet",
            2,
            2,
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
            visits,
        )
        .unwrap()
    }

    #[test]
    fn packets_flow_to_higher_utility_and_deliver() {
        let trace = two_node_trace();
        let cfg = SimConfig {
            packets_per_landmark_per_day: 40.0,
            ttl: DAY,
            time_unit: DAY,
            warmup_fraction: 0.0,
            seed: 1,
            ..SimConfig::default()
        };
        let mut router = UtilityRouter::new(RankModel);
        let out = RunSpec::new(&trace, &cfg).run(&mut router);
        assert!(out.metrics.generated > 0);
        // Node 1 (higher rank) carries everything; packets to l1 delivered
        // when it travels there.
        assert!(out.metrics.delivered > 0, "some delivery expected");
        // Utility tables were exchanged at the meetings.
        assert!(out.metrics.maintenance_ops > 0.0);
    }

    #[test]
    fn single_copy_semantics() {
        let trace = two_node_trace();
        let cfg = SimConfig {
            packets_per_landmark_per_day: 10.0,
            ttl: DAY,
            time_unit: DAY,
            warmup_fraction: 0.0,
            seed: 2,
            ..SimConfig::default()
        };
        let mut router = UtilityRouter::new(RankModel);
        let out = RunSpec::new(&trace, &cfg).run(&mut router);
        // Every live packet is in exactly one place; forwarding ops are
        // bounded by pickups + node-to-node moves (no duplication).
        for p in &out.packets {
            if let PacketLoc::Delivered(_) = p.loc {
                assert!(p.hops >= 1);
            }
        }
    }

    #[test]
    fn stale_group_entries_are_cleaned() {
        // After auto-delivery, the router's index is lazily repaired: a
        // second encounter must not panic or double-transfer.
        let trace = two_node_trace();
        let cfg = SimConfig {
            packets_per_landmark_per_day: 40.0,
            ttl: DAY,
            time_unit: DAY,
            warmup_fraction: 0.0,
            seed: 3,
            ..SimConfig::default()
        };
        let mut router = UtilityRouter::new(RankModel);
        let out = RunSpec::new(&trace, &cfg).run(&mut router);
        // Reaching the end without panics exercises the lazy cleanup path;
        // deliveries confirm packets really moved through the index.
        assert!(out.metrics.delivered > 0);
    }
}
