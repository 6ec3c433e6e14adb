//! The paper's stated future work (§VI): "combine node-to-node
//! communication to further enhance the packet routing efficiency."
//!
//! [`HybridFlowRouter`] wraps the plain [`FlowRouter`] and adds one
//! mechanism: when two carriers are connected to the same landmark, a
//! packet hops to the peer whose overall transit probability toward the
//! packet's stamped next-hop landmark is decisively higher. Everything
//! else — stations, bandwidth measurement, routing tables, carrier
//! selection — is inherited unchanged, so the wrapper isolates exactly
//! the marginal value of node-to-node handoffs.

use crate::config::FlowConfig;
use crate::router::FlowRouter;
use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_sim::{Router, TransferError, World};

/// DTN-FLOW plus opportunistic node-to-node handoffs.
pub struct HybridFlowRouter {
    inner: FlowRouter,
    /// A handoff requires the peer's score to exceed the holder's by this
    /// relative margin (hysteresis against ping-pong).
    margin: f64,
    handoffs: u64,
}

impl HybridFlowRouter {
    /// Wrap a fresh DTN-FLOW router; `margin` is the relative score
    /// hysteresis (0.25 works well — see the ablation bench).
    pub fn new(cfg: FlowConfig, num_nodes: usize, num_landmarks: usize, margin: f64) -> Self {
        assert!(margin >= 0.0, "margin must be non-negative");
        HybridFlowRouter {
            inner: FlowRouter::new(cfg, num_nodes, num_landmarks),
            margin,
            handoffs: 0,
        }
    }

    /// The wrapped router (routing tables, stats, registrations, …).
    pub fn inner(&self) -> &FlowRouter {
        &self.inner
    }

    /// Number of node-to-node handoffs performed.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// One direction of an encounter: move `holder`'s packets to `other`
    /// when `other` is decisively more likely to make the needed transit.
    fn handoff_pass(&mut self, world: &mut World, holder: NodeId, other: NodeId, lm: LandmarkId) {
        let pkts: Vec<PacketId> = world.node_packets(holder).collect();
        for pkt in pkts {
            if !world.node_has_space(other) {
                break;
            }
            let p = world.packet(pkt);
            // Prefer the final destination when the peer can deliver
            // directly; otherwise compare on the stamped next hop.
            let target = if self.inner.transit_score(other, lm, p.dst) > 0.0 {
                p.dst
            } else {
                match self.inner.stamped_next_hop(pkt) {
                    Some(h) => h,
                    None => continue,
                }
            };
            let mine = self.inner.transit_score(holder, lm, target);
            let theirs = self.inner.transit_score(other, lm, target);
            if theirs > mine * (1.0 + self.margin) && theirs > 0.0 {
                match world.transfer_to_node(pkt, other) {
                    Ok(()) => self.handoffs += 1,
                    Err(TransferError::NoSpace) => break,
                    Err(_) => continue,
                }
            }
        }
    }
}

impl Router for HybridFlowRouter {
    fn name(&self) -> &'static str {
        "DTN-FLOW+n2n"
    }

    fn uses_stations(&self) -> bool {
        true
    }

    fn on_arrive(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        self.inner.on_arrive(world, node, lm);
    }

    fn on_depart(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        self.inner.on_depart(world, node, lm);
    }

    fn on_encounter(
        &mut self,
        world: &mut World,
        newcomer: NodeId,
        present: NodeId,
        lm: LandmarkId,
    ) {
        // Note: fires before `on_arrive`, so the newcomer's prediction is
        // still the one made at its previous landmark — its scores here
        // are zero and packets flow *to* nodes settled at `lm`. The
        // reverse direction happens at the peer's own next encounter.
        self.handoff_pass(world, newcomer, present, lm);
        self.handoff_pass(world, present, newcomer, lm);
    }

    fn on_packet_generated(&mut self, world: &mut World, pkt: PacketId) {
        self.inner.on_packet_generated(world, pkt);
    }

    fn on_time_unit(&mut self, world: &mut World, unit: u64) {
        self.inner.on_time_unit(world, unit);
    }

    fn on_observe(&mut self, world: &mut World, idx: usize) {
        self.inner.on_observe(world, idx);
    }

    fn on_timer(&mut self, world: &mut World, token: u64) {
        self.inner.on_timer(world, token);
    }

    fn on_station_down(&mut self, world: &mut World, lm: LandmarkId) {
        self.inner.on_station_down(world, lm);
    }

    fn on_station_up(&mut self, world: &mut World, lm: LandmarkId) {
        self.inner.on_station_up(world, lm);
    }

    fn on_node_fail(&mut self, world: &mut World, node: NodeId, at: Option<LandmarkId>) {
        self.inner.on_node_fail(world, node, at);
    }

    fn on_node_recover(&mut self, world: &mut World, node: NodeId) {
        self.inner.on_node_recover(world, node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_core::config::SimConfig;
    use dtnflow_core::geometry::Point;
    use dtnflow_core::time::{SimTime, DAY};
    use dtnflow_mobility::{Trace, Visit};
    use dtnflow_sim::RunSpec;

    /// Node 0 picks packets up at l0 but then dawdles at l1; node 1
    /// reliably shuttles l1 -> l2. Handoffs at l1 should move l2-bound
    /// packets from node 0 to node 1.
    fn handoff_trace(days: u64) -> Trace {
        let mut visits = Vec::new();
        for d in 0..days {
            let base = d * 86_400;
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(0),
                SimTime(base + 1_000),
                SimTime(base + 8_000),
            ));
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(1),
                SimTime(base + 12_000),
                SimTime(base + 40_000),
            ));
            // Node 1 arrives at l1 while node 0 is there, then goes to l2.
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(1),
                SimTime(base + 20_000),
                SimTime(base + 26_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(2),
                SimTime(base + 30_000),
                SimTime(base + 36_000),
            ));
        }
        Trace::new(
            "handoff",
            2,
            3,
            (0..3).map(|i| Point::new(i as f64 * 100.0, 0.0)).collect(),
            visits,
        )
        .unwrap()
    }

    fn cfg() -> SimConfig {
        SimConfig {
            packets_per_landmark_per_day: 6.0,
            ttl: DAY.mul(4),
            time_unit: DAY,
            seed: 17,
            ..SimConfig::default()
        }
    }

    #[test]
    fn handoffs_happen_and_do_not_hurt() {
        let trace = handoff_trace(14);
        let mut hybrid = HybridFlowRouter::new(FlowConfig::default(), 2, 3, 0.25);
        let hybrid_out = RunSpec::new(&trace, &cfg()).run(&mut hybrid);
        assert!(hybrid.handoffs() > 0, "handoffs must occur at l1");

        let mut plain = FlowRouter::new(FlowConfig::default(), 2, 3);
        let plain_out = RunSpec::new(&trace, &cfg()).run(&mut plain);
        assert!(
            hybrid_out.metrics.success_rate() >= plain_out.metrics.success_rate(),
            "hybrid {} vs plain {}",
            hybrid_out.metrics.success_rate(),
            plain_out.metrics.success_rate()
        );
    }

    #[test]
    fn conservation_holds_with_handoffs() {
        let trace = handoff_trace(10);
        let mut hybrid = HybridFlowRouter::new(FlowConfig::default(), 2, 3, 0.1);
        let out = RunSpec::new(&trace, &cfg()).run(&mut hybrid);
        let m = &out.metrics;
        let live = out.packets.iter().filter(|p| p.loc.is_live()).count() as u64;
        assert_eq!(m.delivered + m.expired + live, m.generated);
        let hops: u64 = out.packets.iter().map(|p| p.hops as u64).sum();
        assert_eq!(hops, m.forwarding_ops);
    }

    #[test]
    fn inner_state_is_accessible() {
        let trace = handoff_trace(10);
        let mut hybrid = HybridFlowRouter::new(FlowConfig::default(), 2, 3, 0.25);
        let _ = RunSpec::new(&trace, &cfg()).run(&mut hybrid);
        // The wrapped router built real routing tables.
        assert!(!hybrid.inner().routing_rows(LandmarkId(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "margin must be non-negative")]
    fn rejects_negative_margin() {
        HybridFlowRouter::new(FlowConfig::default(), 1, 2, -0.5);
    }
}
