//! Direct delivery: the no-relaying floor reference.
//!
//! Packets are picked up by the first node passing through their source
//! subarea and are never forwarded again; they are delivered only if that
//! carrier happens to visit the destination landmark within TTL. Not one
//! of the paper's baselines, but a useful lower bound in the benches: any
//! relaying scheme should beat it.

use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_sim::{Router, TransferError, World};

/// The direct-delivery router.
#[derive(Debug, Default)]
pub struct Direct;

impl Direct {
    pub fn new() -> Self {
        Direct
    }
}

impl Router for Direct {
    fn name(&self) -> &'static str {
        "Direct"
    }

    fn on_arrive(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        let pending: Vec<PacketId> = world.pending_at(lm).collect();
        for pkt in pending {
            match world.transfer_to_node(pkt, node) {
                Ok(()) | Err(TransferError::Expired) => {}
                Err(TransferError::NoSpace) => break,
                Err(_) => {}
            }
        }
    }

    fn on_packet_generated(&mut self, world: &mut World, pkt: PacketId) {
        // Hand it to anyone already in the subarea.
        let src = match world.packet(pkt).loc {
            dtnflow_core::packet::PacketLoc::PendingAtSource(l) => l,
            _ => return,
        };
        let first = world.nodes_at(src).iter().next();
        if let Some(n) = first {
            let _ = world.transfer_to_node(pkt, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_core::config::SimConfig;
    use dtnflow_core::geometry::Point;
    use dtnflow_core::ids::NodeId;
    use dtnflow_core::time::{SimTime, DAY};
    use dtnflow_mobility::{Trace, Visit};
    use dtnflow_sim::RunSpec;

    #[test]
    fn delivers_only_what_the_first_carrier_covers() {
        // Node 0 shuttles l0 <-> l1; l2 exists but nobody goes there.
        let mut visits = Vec::new();
        for d in 0..6u64 {
            let base = d * 86_400;
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(0),
                SimTime(base),
                SimTime(base + 10_000),
            ));
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(1),
                SimTime(base + 20_000),
                SimTime(base + 30_000),
            ));
        }
        let trace = Trace::new(
            "shuttle3",
            1,
            3,
            (0..3).map(|i| Point::new(i as f64, 0.0)).collect(),
            visits,
        )
        .unwrap();
        let cfg = SimConfig {
            packets_per_landmark_per_day: 6.0,
            ttl: DAY.mul(2),
            time_unit: DAY,
            warmup_fraction: 0.1,
            seed: 4,
            ..SimConfig::default()
        };
        let out = RunSpec::new(&trace, &cfg).run(&mut Direct::new());
        // Packets between l0 and l1 deliver; anything touching l2 cannot.
        assert!(out.metrics.delivered > 0);
        let l2 = LandmarkId(2);
        for p in &out.packets {
            if p.dst == l2 {
                assert!(
                    !matches!(p.loc, dtnflow_core::packet::PacketLoc::Delivered(_)),
                    "nothing can reach l2"
                );
            }
        }
    }
}
