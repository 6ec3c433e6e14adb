//! The packet record and its lifecycle.
//!
//! Packets in the paper are fixed-size (1 kB by default), share one
//! time-to-live per run (kept by the simulator's world, not by each
//! packet), and are destined to a *landmark* (§III-A.2). The optional
//! [`Packet::dst_node`] field supports the §IV-E.4 extension that routes
//! packets to mobile nodes via their frequently-visited landmarks.

use crate::ids::{LandmarkId, NodeId, PacketId};
use crate::time::{SimDuration, SimTime};
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

/// Where a packet currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketLoc {
    /// Generated in a subarea but not yet picked up by any carrier
    /// (baseline routers without landmark stations start here).
    PendingAtSource(LandmarkId),
    /// Stored in a mobile node's memory.
    OnNode(NodeId),
    /// Stored at a landmark's central station (DTN-FLOW only).
    AtStation(LandmarkId),
    /// Successfully delivered at this time.
    Delivered(SimTime),
    /// Dropped because its TTL elapsed before delivery.
    Expired,
    /// Destroyed by an injected fault: generated at a station that was
    /// down, carried by a node that failed, or dropped after exhausting
    /// its retry budget at a failed station.
    Lost,
}

impl PacketLoc {
    /// Whether the packet is still live (not delivered, expired, or lost).
    #[inline]
    pub fn is_live(self) -> bool {
        !matches!(
            self,
            PacketLoc::Delivered(_) | PacketLoc::Expired | PacketLoc::Lost
        )
    }
}

/// A single-copy data packet travelling from one subarea to another.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Dense identifier.
    pub id: PacketId,
    /// Landmark of the subarea where the packet was generated.
    pub src: LandmarkId,
    /// Destination landmark (subarea).
    pub dst: LandmarkId,
    /// Optional destination mobile node (§IV-E.4 extension). When set, the
    /// packet is delivered when this node reaches a station holding it.
    pub dst_node: Option<NodeId>,
    /// Generation instant.
    pub created: SimTime,
    /// Current location / lifecycle state.
    pub loc: PacketLoc,
    /// Landmarks whose station has held this packet, in order. Used by the
    /// routing-loop detection extension (§IV-E.2) and for path diagnostics.
    pub visited: Vec<LandmarkId>,
    /// Number of forwarding operations this packet has undergone.
    pub hops: u32,
}

impl Packet {
    /// Create a fresh packet pending at its source subarea.
    pub fn new(id: PacketId, src: LandmarkId, dst: LandmarkId, created: SimTime) -> Self {
        Packet {
            id,
            src,
            dst,
            dst_node: None,
            created,
            loc: PacketLoc::PendingAtSource(src),
            visited: Vec::new(),
            hops: 0,
        }
    }

    /// End-to-end delay, if delivered.
    #[inline]
    pub fn delay(&self) -> Option<SimDuration> {
        match self.loc {
            PacketLoc::Delivered(t) => Some(t.since(self.created)),
            _ => None,
        }
    }

    /// Record a station visit and report whether the station was already on
    /// the path — i.e. whether a routing loop has been traversed (§IV-E.2).
    pub fn record_station_visit(&mut self, lm: LandmarkId) -> bool {
        let looped = self.visited.contains(&lm);
        self.visited.push(lm);
        looped
    }

    /// The landmarks of the loop the packet just closed at `lm`: everything
    /// from the first visit of `lm` onward. Empty if no loop.
    pub fn loop_members(&self, lm: LandmarkId) -> &[LandmarkId] {
        match self.visited.iter().position(|&v| v == lm) {
            Some(first) if self.visited[first + 1..].contains(&lm) => {
                let last = self
                    .visited
                    .iter()
                    .rposition(|&v| v == lm)
                    // detlint: allow(P1, reason = "guarded by the contains() check in this match arm; a second occurrence is proven present")
                    .expect("second occurrence exists");
                &self.visited[first..=last]
            }
            _ => &[],
        }
    }

    /// Checkpoint encoding: the [`Codec`] form, callable without the
    /// trait in scope.
    pub fn encode(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

/// Checkpoint encoding (DESIGN.md §11): every field in declaration
/// order; byte-deterministic.
impl Codec for Packet {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        self.src.encode(w);
        self.dst.encode(w);
        self.dst_node.encode(w);
        self.created.encode(w);
        self.loc.encode(w);
        self.visited.encode(w);
        self.hops.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Packet, SnapshotError> {
        Ok(Packet {
            id: Codec::decode(r)?,
            src: Codec::decode(r)?,
            dst: Codec::decode(r)?,
            dst_node: Codec::decode(r)?,
            created: Codec::decode(r)?,
            loc: Codec::decode(r)?,
            visited: Codec::decode(r)?,
            hops: Codec::decode(r)?,
        })
    }
}

/// One tag byte (declaration order), then the variant's payload.
impl Codec for PacketLoc {
    fn encode(&self, w: &mut Writer) {
        match *self {
            PacketLoc::PendingAtSource(lm) => (0u8, lm).encode(w),
            PacketLoc::OnNode(n) => (1u8, n).encode(w),
            PacketLoc::AtStation(lm) => (2u8, lm).encode(w),
            PacketLoc::Delivered(t) => (3u8, t).encode(w),
            PacketLoc::Expired => w.put_u8(4),
            PacketLoc::Lost => w.put_u8(5),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<PacketLoc, SnapshotError> {
        Ok(match r.u8("PacketLoc")? {
            0 => PacketLoc::PendingAtSource(Codec::decode(r)?),
            1 => PacketLoc::OnNode(Codec::decode(r)?),
            2 => PacketLoc::AtStation(Codec::decode(r)?),
            3 => PacketLoc::Delivered(Codec::decode(r)?),
            4 => PacketLoc::Expired,
            5 => PacketLoc::Lost,
            tag => {
                return Err(SnapshotError::InvalidTag {
                    context: "PacketLoc",
                    tag: tag.into(),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Packet {
        Packet::new(PacketId(0), LandmarkId(1), LandmarkId(2), SimTime(100))
    }

    #[test]
    fn lifecycle_flags() {
        let mut p = pkt();
        assert!(p.loc.is_live());
        p.loc = PacketLoc::Delivered(SimTime(200));
        assert!(!p.loc.is_live());
        assert_eq!(p.delay(), Some(SimDuration(100)));
        p.loc = PacketLoc::Expired;
        assert!(!p.loc.is_live());
        assert_eq!(p.delay(), None);
    }

    #[test]
    fn loop_detection_on_revisit() {
        let mut p = pkt();
        assert!(!p.record_station_visit(LandmarkId(1)));
        assert!(!p.record_station_visit(LandmarkId(3)));
        assert!(!p.record_station_visit(LandmarkId(4)));
        assert!(p.record_station_visit(LandmarkId(3)));
        assert_eq!(
            p.loop_members(LandmarkId(3)),
            &[LandmarkId(3), LandmarkId(4), LandmarkId(3)]
        );
        // A landmark never visited twice yields no loop.
        assert!(p.loop_members(LandmarkId(1)).is_empty());
        assert!(p.loop_members(LandmarkId(9)).is_empty());
    }
}
