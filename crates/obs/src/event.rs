//! Structured simulation events for the flight recorder.
//!
//! Every event carries the simulation timestamp it occurred at (`SimTime`,
//! never wall-clock time), so a recorded stream is deterministic for a
//! fixed scenario and seed. The `Display` impl renders one compact,
//! byte-stable line per event — that rendering is what the cross-process
//! trace-stability test compares.

use std::fmt;

use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_core::time::{SimDuration, SimTime};
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

/// Where a packet currently sits, from the tracer's point of view.
///
/// Mirrors the simulator's live `PacketLoc` states; terminal states
/// (delivered/expired/lost) are events, not places.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Place {
    /// Generated at a landmark but not yet picked up by any carrier.
    Pending(LandmarkId),
    /// Carried by a mobile node.
    Node(NodeId),
    /// Buffered in a landmark station's queue.
    Station(LandmarkId),
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Place::Pending(lm) => write!(f, "pending@{lm}"),
            Place::Node(n) => write!(f, "{n}"),
            Place::Station(lm) => write!(f, "station@{lm}"),
        }
    }
}

/// Why a packet was lost (mirrors the simulator's loss reasons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LossKind {
    /// Dropped because a station was down (record loss / stillborn).
    Outage,
    /// Dropped because its carrier node failed.
    Churn,
}

impl fmt::Display for LossKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LossKind::Outage => f.write_str("outage"),
            LossKind::Churn => f.write_str("churn"),
        }
    }
}

/// One structured observability record.
///
/// Variants cover the full packet lifecycle, contact and fault
/// transitions, and the router-internal state changes the paper's
/// evaluation cares about (table exchanges, EWMA bandwidth folds,
/// mis-transit decisions, retry queueing, route coverage).
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A node arrived at a landmark station (contact opened).
    ContactOpen {
        at: SimTime,
        node: NodeId,
        lm: LandmarkId,
    },
    /// A node departed a landmark station (contact closed).
    ContactClose {
        at: SimTime,
        node: NodeId,
        lm: LandmarkId,
    },
    /// A time-unit boundary (Eq. 4 bandwidth fold happens here).
    UnitBoundary { at: SimTime, unit: u64 },
    /// A packet entered the simulation. `start` is `None` for stillborn
    /// packets generated at a station that was down.
    PacketGenerated {
        at: SimTime,
        pkt: PacketId,
        src: LandmarkId,
        dst: LandmarkId,
        start: Option<Place>,
    },
    /// A packet moved between a node and a station (either direction).
    PacketForwarded {
        at: SimTime,
        pkt: PacketId,
        from: Place,
        to: Place,
    },
    /// A packet reached its destination landmark.
    PacketDelivered {
        at: SimTime,
        pkt: PacketId,
        lm: LandmarkId,
        delay: SimDuration,
        hops: u32,
        from: Place,
    },
    /// A packet's TTL ran out.
    PacketExpired {
        at: SimTime,
        pkt: PacketId,
        from: Place,
    },
    /// A packet was destroyed by a fault. `from` is `None` for stillborn
    /// packets that never occupied a place.
    PacketLost {
        at: SimTime,
        pkt: PacketId,
        from: Option<Place>,
        kind: LossKind,
    },
    /// A landmark station went down (fault injection).
    StationDown { at: SimTime, lm: LandmarkId },
    /// A landmark station recovered.
    StationUp { at: SimTime, lm: LandmarkId },
    /// A node failed, destroying the packets it carried.
    NodeFailed {
        at: SimTime,
        node: NodeId,
        lost_packets: u64,
    },
    /// A failed node rejoined the simulation.
    NodeRecovered { at: SimTime, node: NodeId },
    /// A carried routing table from `from` was offered to `to`.
    TableExchanged {
        at: SimTime,
        from: LandmarkId,
        to: LandmarkId,
        entries: usize,
        accepted: bool,
    },
    /// End-of-unit EWMA fold produced a new smoothed bandwidth B(from→to).
    BandwidthUpdated {
        at: SimTime,
        from: LandmarkId,
        to: LandmarkId,
        value: f64,
    },
    /// A carrier holding a packet transited to a landmark that was not the
    /// predicted next hop (§IV-D). `uploaded` records the router's
    /// keep-vs-forward decision.
    MisTransit {
        at: SimTime,
        pkt: PacketId,
        node: NodeId,
        lm: LandmarkId,
        uploaded: bool,
    },
    /// A stranded packet was re-queued for retry after a station recovered.
    RetryQueued {
        at: SimTime,
        lm: LandmarkId,
        pkt: PacketId,
    },
    /// Periodic routing-table health sample for one landmark.
    RouteCoverage {
        at: SimTime,
        lm: LandmarkId,
        coverage: f64,
        revision: u64,
    },
    /// A crash-consistent checkpoint of the full run state was written
    /// at a unit boundary (DESIGN.md §11). `bytes` is the state payload
    /// size, excluding the recorder's own section.
    CheckpointWritten { at: SimTime, unit: u64, bytes: u64 },
    /// The run was restored from a checkpoint at a unit boundary.
    /// `bytes` is the total snapshot size that was decoded.
    Restored { at: SimTime, unit: u64, bytes: u64 },
}

/// Every kind tag, sorted — `kind_index` is the position here, so a flat
/// `[u64; KIND_COUNT]` counter array iterated in index order reads back
/// in exactly the order a `BTreeMap<&str, u64>` keyed by tag would.
pub const KIND_TAGS: [&str; 19] = [
    "bandwidth_updated",
    "checkpoint_written",
    "contact_close",
    "contact_open",
    "mis_transit",
    "node_failed",
    "node_recovered",
    "packet_delivered",
    "packet_expired",
    "packet_forwarded",
    "packet_generated",
    "packet_lost",
    "restored",
    "retry_queued",
    "route_coverage",
    "station_down",
    "station_up",
    "table_exchanged",
    "unit_boundary",
];

/// Number of distinct event kinds.
pub const KIND_COUNT: usize = KIND_TAGS.len();

impl SimEvent {
    /// Timestamp the event occurred at.
    pub fn at(&self) -> SimTime {
        match *self {
            SimEvent::ContactOpen { at, .. }
            | SimEvent::ContactClose { at, .. }
            | SimEvent::UnitBoundary { at, .. }
            | SimEvent::PacketGenerated { at, .. }
            | SimEvent::PacketForwarded { at, .. }
            | SimEvent::PacketDelivered { at, .. }
            | SimEvent::PacketExpired { at, .. }
            | SimEvent::PacketLost { at, .. }
            | SimEvent::StationDown { at, .. }
            | SimEvent::StationUp { at, .. }
            | SimEvent::NodeFailed { at, .. }
            | SimEvent::NodeRecovered { at, .. }
            | SimEvent::TableExchanged { at, .. }
            | SimEvent::BandwidthUpdated { at, .. }
            | SimEvent::MisTransit { at, .. }
            | SimEvent::RetryQueued { at, .. }
            | SimEvent::RouteCoverage { at, .. }
            | SimEvent::CheckpointWritten { at, .. }
            | SimEvent::Restored { at, .. } => at,
        }
    }

    /// Stable machine-readable kind tag (used for event-count registries).
    pub fn kind(&self) -> &'static str {
        KIND_TAGS[self.kind_index()]
    }

    /// This event's position in [`KIND_TAGS`] — a dense index for flat
    /// per-kind counter arrays.
    pub fn kind_index(&self) -> usize {
        match self {
            SimEvent::BandwidthUpdated { .. } => 0,
            SimEvent::CheckpointWritten { .. } => 1,
            SimEvent::ContactClose { .. } => 2,
            SimEvent::ContactOpen { .. } => 3,
            SimEvent::MisTransit { .. } => 4,
            SimEvent::NodeFailed { .. } => 5,
            SimEvent::NodeRecovered { .. } => 6,
            SimEvent::PacketDelivered { .. } => 7,
            SimEvent::PacketExpired { .. } => 8,
            SimEvent::PacketForwarded { .. } => 9,
            SimEvent::PacketGenerated { .. } => 10,
            SimEvent::PacketLost { .. } => 11,
            SimEvent::Restored { .. } => 12,
            SimEvent::RetryQueued { .. } => 13,
            SimEvent::RouteCoverage { .. } => 14,
            SimEvent::StationDown { .. } => 15,
            SimEvent::StationUp { .. } => 16,
            SimEvent::TableExchanged { .. } => 17,
            SimEvent::UnitBoundary { .. } => 18,
        }
    }
}

/// Binary encoding for checkpoints (DESIGN.md §11): one tag byte (the
/// kind index), the timestamp, then the variant's fields in declaration
/// order. Byte-deterministic; floats travel as raw bits. Decode rejects
/// unknown tag bytes with a typed error.
impl Codec for SimEvent {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.kind_index() as u8);
        self.at().encode(w);
        match *self {
            SimEvent::ContactOpen { node, lm, .. } | SimEvent::ContactClose { node, lm, .. } => {
                (node, lm).encode(w);
            }
            SimEvent::UnitBoundary { unit, .. } => unit.encode(w),
            SimEvent::PacketGenerated {
                pkt,
                src,
                dst,
                start,
                ..
            } => {
                (pkt, src, dst).encode(w);
                encode_opt_place(w, start);
            }
            SimEvent::PacketForwarded { pkt, from, to, .. } => (pkt, from, to).encode(w),
            SimEvent::PacketDelivered {
                pkt,
                lm,
                delay,
                hops,
                from,
                ..
            } => {
                (pkt, lm, delay).encode(w);
                (hops, from).encode(w);
            }
            SimEvent::PacketExpired { pkt, from, .. } => (pkt, from).encode(w),
            SimEvent::PacketLost {
                pkt, from, kind, ..
            } => {
                pkt.encode(w);
                encode_opt_place(w, from);
                kind.encode(w);
            }
            SimEvent::StationDown { lm, .. } | SimEvent::StationUp { lm, .. } => lm.encode(w),
            SimEvent::NodeFailed {
                node, lost_packets, ..
            } => (node, lost_packets).encode(w),
            SimEvent::NodeRecovered { node, .. } => node.encode(w),
            SimEvent::TableExchanged {
                from,
                to,
                entries,
                accepted,
                ..
            } => {
                (from, to).encode(w);
                (entries, accepted).encode(w);
            }
            SimEvent::BandwidthUpdated {
                from, to, value, ..
            } => (from, to, value).encode(w),
            SimEvent::MisTransit {
                pkt,
                node,
                lm,
                uploaded,
                ..
            } => {
                (pkt, node, lm).encode(w);
                uploaded.encode(w);
            }
            SimEvent::RetryQueued { lm, pkt, .. } => (lm, pkt).encode(w),
            SimEvent::RouteCoverage {
                lm,
                coverage,
                revision,
                ..
            } => (lm, coverage, revision).encode(w),
            SimEvent::CheckpointWritten { unit, bytes, .. }
            | SimEvent::Restored { unit, bytes, .. } => (unit, bytes).encode(w),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<SimEvent, SnapshotError> {
        let tag = r.u8("SimEvent")?;
        let at = Codec::decode(r)?;
        Ok(match tag {
            0 => SimEvent::BandwidthUpdated {
                at,
                from: Codec::decode(r)?,
                to: Codec::decode(r)?,
                value: Codec::decode(r)?,
            },
            1 => SimEvent::CheckpointWritten {
                at,
                unit: Codec::decode(r)?,
                bytes: Codec::decode(r)?,
            },
            2 => SimEvent::ContactClose {
                at,
                node: Codec::decode(r)?,
                lm: Codec::decode(r)?,
            },
            3 => SimEvent::ContactOpen {
                at,
                node: Codec::decode(r)?,
                lm: Codec::decode(r)?,
            },
            4 => SimEvent::MisTransit {
                at,
                pkt: Codec::decode(r)?,
                node: Codec::decode(r)?,
                lm: Codec::decode(r)?,
                uploaded: Codec::decode(r)?,
            },
            5 => SimEvent::NodeFailed {
                at,
                node: Codec::decode(r)?,
                lost_packets: Codec::decode(r)?,
            },
            6 => SimEvent::NodeRecovered {
                at,
                node: Codec::decode(r)?,
            },
            7 => SimEvent::PacketDelivered {
                at,
                pkt: Codec::decode(r)?,
                lm: Codec::decode(r)?,
                delay: Codec::decode(r)?,
                hops: Codec::decode(r)?,
                from: Codec::decode(r)?,
            },
            8 => SimEvent::PacketExpired {
                at,
                pkt: Codec::decode(r)?,
                from: Codec::decode(r)?,
            },
            9 => SimEvent::PacketForwarded {
                at,
                pkt: Codec::decode(r)?,
                from: Codec::decode(r)?,
                to: Codec::decode(r)?,
            },
            10 => SimEvent::PacketGenerated {
                at,
                pkt: Codec::decode(r)?,
                src: Codec::decode(r)?,
                dst: Codec::decode(r)?,
                start: decode_opt_place(r)?,
            },
            11 => SimEvent::PacketLost {
                at,
                pkt: Codec::decode(r)?,
                from: decode_opt_place(r)?,
                kind: Codec::decode(r)?,
            },
            12 => SimEvent::Restored {
                at,
                unit: Codec::decode(r)?,
                bytes: Codec::decode(r)?,
            },
            13 => SimEvent::RetryQueued {
                at,
                lm: Codec::decode(r)?,
                pkt: Codec::decode(r)?,
            },
            14 => SimEvent::RouteCoverage {
                at,
                lm: Codec::decode(r)?,
                coverage: Codec::decode(r)?,
                revision: Codec::decode(r)?,
            },
            15 => SimEvent::StationDown {
                at,
                lm: Codec::decode(r)?,
            },
            16 => SimEvent::StationUp {
                at,
                lm: Codec::decode(r)?,
            },
            17 => SimEvent::TableExchanged {
                at,
                from: Codec::decode(r)?,
                to: Codec::decode(r)?,
                entries: Codec::decode(r)?,
                accepted: Codec::decode(r)?,
            },
            18 => SimEvent::UnitBoundary {
                at,
                unit: Codec::decode(r)?,
            },
            tag => {
                return Err(SnapshotError::InvalidTag {
                    context: "SimEvent",
                    tag: tag.into(),
                })
            }
        })
    }
}

/// One tag byte (declaration order), then the id.
impl Codec for Place {
    fn encode(&self, w: &mut Writer) {
        match *self {
            Place::Pending(lm) => (0u8, lm).encode(w),
            Place::Node(n) => (1u8, n).encode(w),
            Place::Station(lm) => (2u8, lm).encode(w),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Place, SnapshotError> {
        decode_opt_place(r)?.ok_or(SnapshotError::InvalidTag {
            context: "Place",
            tag: 255,
        })
    }
}

/// `Option<Place>` is not the generic 0/1 option tag: `None` is the tag
/// byte 255, and `Some` is the place's own tag and id.
fn encode_opt_place(w: &mut Writer, p: Option<Place>) {
    match p {
        None => w.put_u8(255),
        Some(p) => p.encode(w),
    }
}

fn decode_opt_place(r: &mut Reader<'_>) -> Result<Option<Place>, SnapshotError> {
    Ok(Some(match r.u8("Place")? {
        0 => Place::Pending(Codec::decode(r)?),
        1 => Place::Node(Codec::decode(r)?),
        2 => Place::Station(Codec::decode(r)?),
        255 => return Ok(None),
        tag => {
            return Err(SnapshotError::InvalidTag {
                context: "Place",
                tag: tag.into(),
            })
        }
    }))
}

impl Codec for LossKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            LossKind::Outage => 0,
            LossKind::Churn => 1,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<LossKind, SnapshotError> {
        match r.u8("LossKind")? {
            0 => Ok(LossKind::Outage),
            1 => Ok(LossKind::Churn),
            tag => Err(SnapshotError::InvalidTag {
                context: "LossKind",
                tag: tag.into(),
            }),
        }
    }
}

impl fmt::Display for SimEvent {
    /// One compact line per event: `@<secs> <kind> <fields>`.
    ///
    /// Floats render via `{:?}` (shortest round-trip form), which is
    /// byte-stable for identical bit patterns across processes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.at().secs();
        match self {
            SimEvent::ContactOpen { node, lm, .. } => {
                write!(f, "@{t} contact_open {node} {lm}")
            }
            SimEvent::ContactClose { node, lm, .. } => {
                write!(f, "@{t} contact_close {node} {lm}")
            }
            SimEvent::UnitBoundary { unit, .. } => write!(f, "@{t} unit_boundary u{unit}"),
            SimEvent::PacketGenerated {
                pkt,
                src,
                dst,
                start,
                ..
            } => match start {
                Some(place) => write!(f, "@{t} packet_generated {pkt} {src}->{dst} at {place}"),
                None => write!(f, "@{t} packet_generated {pkt} {src}->{dst} stillborn"),
            },
            SimEvent::PacketForwarded { pkt, from, to, .. } => {
                write!(f, "@{t} packet_forwarded {pkt} {from}->{to}")
            }
            SimEvent::PacketDelivered {
                pkt,
                lm,
                delay,
                hops,
                from,
                ..
            } => write!(
                f,
                "@{t} packet_delivered {pkt} at {lm} delay={}s hops={hops} from {from}",
                delay.0
            ),
            SimEvent::PacketExpired { pkt, from, .. } => {
                write!(f, "@{t} packet_expired {pkt} at {from}")
            }
            SimEvent::PacketLost {
                pkt, from, kind, ..
            } => match from {
                Some(place) => write!(f, "@{t} packet_lost {pkt} at {place} kind={kind}"),
                None => write!(f, "@{t} packet_lost {pkt} stillborn kind={kind}"),
            },
            SimEvent::StationDown { lm, .. } => write!(f, "@{t} station_down {lm}"),
            SimEvent::StationUp { lm, .. } => write!(f, "@{t} station_up {lm}"),
            SimEvent::NodeFailed {
                node, lost_packets, ..
            } => {
                write!(f, "@{t} node_failed {node} lost={lost_packets}")
            }
            SimEvent::NodeRecovered { node, .. } => write!(f, "@{t} node_recovered {node}"),
            SimEvent::TableExchanged {
                from,
                to,
                entries,
                accepted,
                ..
            } => write!(
                f,
                "@{t} table_exchanged {from}->{to} entries={entries} accepted={accepted}"
            ),
            SimEvent::BandwidthUpdated {
                from, to, value, ..
            } => {
                write!(f, "@{t} bandwidth_updated {from}->{to} value={value:?}")
            }
            SimEvent::MisTransit {
                pkt,
                node,
                lm,
                uploaded,
                ..
            } => {
                write!(
                    f,
                    "@{t} mis_transit {pkt} {node} at {lm} uploaded={uploaded}"
                )
            }
            SimEvent::RetryQueued { lm, pkt, .. } => write!(f, "@{t} retry_queued {pkt} at {lm}"),
            SimEvent::RouteCoverage {
                lm,
                coverage,
                revision,
                ..
            } => {
                write!(
                    f,
                    "@{t} route_coverage {lm} coverage={coverage:?} rev={revision}"
                )
            }
            SimEvent::CheckpointWritten { unit, bytes, .. } => {
                write!(f, "@{t} checkpoint_written u{unit} bytes={bytes}")
            }
            SimEvent::Restored { unit, bytes, .. } => {
                write!(f, "@{t} restored u{unit} bytes={bytes}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact_and_stable() {
        let ev = SimEvent::PacketDelivered {
            at: SimTime(3661),
            pkt: PacketId(7),
            lm: LandmarkId(2),
            delay: SimDuration(600),
            hops: 3,
            from: Place::Node(NodeId(4)),
        };
        assert_eq!(
            ev.to_string(),
            "@3661 packet_delivered p7 at l2 delay=600s hops=3 from n4"
        );
        assert_eq!(ev.kind(), "packet_delivered");
        assert_eq!(ev.at(), SimTime(3661));
    }

    #[test]
    fn stillborn_renders_without_place() {
        let ev = SimEvent::PacketLost {
            at: SimTime(0),
            pkt: PacketId(0),
            from: None,
            kind: LossKind::Outage,
        };
        assert_eq!(ev.to_string(), "@0 packet_lost p0 stillborn kind=outage");
    }

    #[test]
    fn every_variant_has_a_distinct_kind() {
        use std::collections::BTreeSet;
        let evs = [
            SimEvent::ContactOpen {
                at: SimTime(0),
                node: NodeId(0),
                lm: LandmarkId(0),
            },
            SimEvent::ContactClose {
                at: SimTime(0),
                node: NodeId(0),
                lm: LandmarkId(0),
            },
            SimEvent::UnitBoundary {
                at: SimTime(0),
                unit: 0,
            },
            SimEvent::PacketGenerated {
                at: SimTime(0),
                pkt: PacketId(0),
                src: LandmarkId(0),
                dst: LandmarkId(1),
                start: Some(Place::Pending(LandmarkId(0))),
            },
            SimEvent::PacketForwarded {
                at: SimTime(0),
                pkt: PacketId(0),
                from: Place::Station(LandmarkId(0)),
                to: Place::Node(NodeId(0)),
            },
            SimEvent::PacketDelivered {
                at: SimTime(0),
                pkt: PacketId(0),
                lm: LandmarkId(0),
                delay: SimDuration(0),
                hops: 0,
                from: Place::Node(NodeId(0)),
            },
            SimEvent::PacketExpired {
                at: SimTime(0),
                pkt: PacketId(0),
                from: Place::Pending(LandmarkId(0)),
            },
            SimEvent::PacketLost {
                at: SimTime(0),
                pkt: PacketId(0),
                from: None,
                kind: LossKind::Churn,
            },
            SimEvent::StationDown {
                at: SimTime(0),
                lm: LandmarkId(0),
            },
            SimEvent::StationUp {
                at: SimTime(0),
                lm: LandmarkId(0),
            },
            SimEvent::NodeFailed {
                at: SimTime(0),
                node: NodeId(0),
                lost_packets: 0,
            },
            SimEvent::NodeRecovered {
                at: SimTime(0),
                node: NodeId(0),
            },
            SimEvent::TableExchanged {
                at: SimTime(0),
                from: LandmarkId(0),
                to: LandmarkId(1),
                entries: 0,
                accepted: false,
            },
            SimEvent::BandwidthUpdated {
                at: SimTime(0),
                from: LandmarkId(0),
                to: LandmarkId(1),
                value: 0.0,
            },
            SimEvent::MisTransit {
                at: SimTime(0),
                pkt: PacketId(0),
                node: NodeId(0),
                lm: LandmarkId(0),
                uploaded: false,
            },
            SimEvent::RetryQueued {
                at: SimTime(0),
                lm: LandmarkId(0),
                pkt: PacketId(0),
            },
            SimEvent::RouteCoverage {
                at: SimTime(0),
                lm: LandmarkId(0),
                coverage: 0.0,
                revision: 0,
            },
            SimEvent::CheckpointWritten {
                at: SimTime(0),
                unit: 0,
                bytes: 0,
            },
            SimEvent::Restored {
                at: SimTime(0),
                unit: 0,
                bytes: 0,
            },
        ];
        let kinds: BTreeSet<&'static str> = evs.iter().map(SimEvent::kind).collect();
        assert_eq!(kinds.len(), evs.len());
        // Every kind index is covered and consistent with the tag table.
        let idxs: BTreeSet<usize> = evs.iter().map(SimEvent::kind_index).collect();
        assert_eq!(idxs.len(), KIND_COUNT);
        for ev in &evs {
            assert_eq!(KIND_TAGS[ev.kind_index()], ev.kind());
        }
    }

    #[test]
    fn kind_tags_are_sorted() {
        // Flat counters iterated in kind_index order must read back in the
        // lexicographic order the old BTreeMap registry exported.
        assert!(KIND_TAGS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn checkpoint_events_render_compactly() {
        let ev = SimEvent::CheckpointWritten {
            at: SimTime(259_200),
            unit: 1,
            bytes: 4096,
        };
        assert_eq!(ev.to_string(), "@259200 checkpoint_written u1 bytes=4096");
        let ev = SimEvent::Restored {
            at: SimTime(259_200),
            unit: 1,
            bytes: 5000,
        };
        assert_eq!(ev.to_string(), "@259200 restored u1 bytes=5000");
    }

    #[test]
    fn codec_roundtrips_every_variant() {
        let evs = [
            SimEvent::ContactOpen {
                at: SimTime(9),
                node: NodeId(3),
                lm: LandmarkId(1),
            },
            SimEvent::ContactClose {
                at: SimTime(10),
                node: NodeId(3),
                lm: LandmarkId(1),
            },
            SimEvent::UnitBoundary {
                at: SimTime(11),
                unit: 4,
            },
            SimEvent::PacketGenerated {
                at: SimTime(12),
                pkt: PacketId(5),
                src: LandmarkId(0),
                dst: LandmarkId(2),
                start: None,
            },
            SimEvent::PacketGenerated {
                at: SimTime(12),
                pkt: PacketId(6),
                src: LandmarkId(0),
                dst: LandmarkId(2),
                start: Some(Place::Pending(LandmarkId(0))),
            },
            SimEvent::PacketForwarded {
                at: SimTime(13),
                pkt: PacketId(5),
                from: Place::Station(LandmarkId(0)),
                to: Place::Node(NodeId(9)),
            },
            SimEvent::PacketDelivered {
                at: SimTime(14),
                pkt: PacketId(5),
                lm: LandmarkId(2),
                delay: SimDuration(600),
                hops: 3,
                from: Place::Node(NodeId(9)),
            },
            SimEvent::PacketExpired {
                at: SimTime(15),
                pkt: PacketId(6),
                from: Place::Pending(LandmarkId(0)),
            },
            SimEvent::PacketLost {
                at: SimTime(16),
                pkt: PacketId(7),
                from: None,
                kind: LossKind::Outage,
            },
            SimEvent::StationDown {
                at: SimTime(17),
                lm: LandmarkId(4),
            },
            SimEvent::StationUp {
                at: SimTime(18),
                lm: LandmarkId(4),
            },
            SimEvent::NodeFailed {
                at: SimTime(19),
                node: NodeId(2),
                lost_packets: 3,
            },
            SimEvent::NodeRecovered {
                at: SimTime(20),
                node: NodeId(2),
            },
            SimEvent::TableExchanged {
                at: SimTime(21),
                from: LandmarkId(0),
                to: LandmarkId(1),
                entries: 40,
                accepted: true,
            },
            SimEvent::BandwidthUpdated {
                at: SimTime(22),
                from: LandmarkId(0),
                to: LandmarkId(1),
                value: f64::NAN,
            },
            SimEvent::MisTransit {
                at: SimTime(23),
                pkt: PacketId(8),
                node: NodeId(1),
                lm: LandmarkId(3),
                uploaded: false,
            },
            SimEvent::RetryQueued {
                at: SimTime(24),
                lm: LandmarkId(2),
                pkt: PacketId(8),
            },
            SimEvent::RouteCoverage {
                at: SimTime(25),
                lm: LandmarkId(1),
                coverage: 0.75,
                revision: 12,
            },
            SimEvent::CheckpointWritten {
                at: SimTime(26),
                unit: 2,
                bytes: 1234,
            },
            SimEvent::Restored {
                at: SimTime(27),
                unit: 2,
                bytes: 1250,
            },
        ];
        let mut w = Writer::new();
        for ev in &evs {
            ev.encode(&mut w);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for ev in &evs {
            let back = SimEvent::decode(&mut r).unwrap();
            // NaN != NaN under PartialEq, so compare the Display lines
            // (shortest-round-trip floats) plus the re-encoded bytes.
            assert_eq!(back.to_string(), ev.to_string());
            let mut w1 = Writer::new();
            let mut w2 = Writer::new();
            ev.encode(&mut w1);
            back.encode(&mut w2);
            assert_eq!(w1.into_bytes(), w2.into_bytes());
        }
        r.finish("events").unwrap();
    }

    #[test]
    fn codec_rejects_bad_tags() {
        let mut w = Writer::new();
        w.put_u8(200);
        w.put_u64(0);
        let bytes = w.into_bytes();
        assert!(matches!(
            SimEvent::decode(&mut Reader::new(&bytes)),
            Err(SnapshotError::InvalidTag { .. })
        ));
    }
}
