//! Counter/gauge registries and fixed-bucket histograms.
//!
//! `ObsMetrics` is a pure fold over the event stream: feeding the same
//! events in the same order always produces the same state. All keyed
//! state lives in dense-index structures (`DenseMap`, `LinkMatrix`, a
//! flat per-kind counter array) whose iteration order is ascending-id by
//! construction, so every exported snapshot is deterministic without any
//! tree bookkeeping on the per-event fold.

use dtnflow_core::dense::{DenseMap, LinkMatrix};
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

use crate::event::{LossKind, Place, SimEvent, KIND_COUNT, KIND_TAGS};

/// Fixed delay-histogram bucket edges, in seconds (upper-inclusive).
///
/// 1 h, 2 h, 4 h, 8 h, 1 d, 2 d, 4 d, 8 d, 16 d — chosen to resolve the
/// paper's multi-day landmark-to-landmark delays; a final implicit
/// overflow bucket catches anything slower.
pub const DELAY_BUCKET_EDGES_SECS: [u64; 9] = [
    3_600, 7_200, 14_400, 28_800, 86_400, 172_800, 345_600, 691_200, 1_382_400,
];

/// Number of delay-histogram buckets (edges plus one overflow bucket).
pub const DELAY_BUCKETS: usize = DELAY_BUCKET_EDGES_SECS.len() + 1;

/// Hop counts 0..=15 get their own bucket; 16+ share the overflow bucket.
pub const HOP_BUCKETS: usize = 17;

/// Per-landmark counters and queue-depth gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LandmarkCounters {
    /// Packets generated with this landmark as source.
    pub generated: u64,
    /// Packets that entered this landmark's station queue (node → station).
    pub uplinks: u64,
    /// Packets that left this landmark's station queue (station → node).
    pub downlinks: u64,
    /// Packets delivered at this landmark (their destination).
    pub delivered: u64,
    /// Packets that expired while queued at this landmark.
    pub expired: u64,
    /// Packets lost while queued at this landmark.
    pub lost: u64,
    /// Mis-transit decisions observed at this landmark (§IV-D).
    pub mis_transits: u64,
    /// Of those mis-transits, how many resulted in an upload.
    pub mis_transit_uploads: u64,
    /// Stranded packets re-queued here after station recovery.
    pub retries: u64,
    /// Carried routing tables offered to this landmark.
    pub table_exchanges: u64,
    /// Current number of packets queued (pending + station buffer).
    pub queue_depth: u64,
    /// High-water mark of `queue_depth`.
    pub queue_peak: u64,
}

/// Run-wide packet totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub generated: u64,
    pub delivered: u64,
    pub expired: u64,
    pub lost_outage: u64,
    pub lost_churn: u64,
    pub forwards: u64,
    pub contacts_opened: u64,
    pub contacts_closed: u64,
    /// Expiries that happened on a carrier node (not in any landmark queue).
    pub expired_on_node: u64,
}

/// Per-kind event counters as a flat array indexed by
/// [`SimEvent::kind_index`]. Reads mirror the `BTreeMap<&str, u64>` this
/// replaces: iteration yields only kinds seen at least once, in tag
/// order (kind indexes are assigned alphabetically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventCounts {
    counts: [u64; KIND_COUNT],
}

impl Default for EventCounts {
    fn default() -> Self {
        EventCounts {
            counts: [0; KIND_COUNT],
        }
    }
}

impl EventCounts {
    /// Count one occurrence of the kind at `kind_index`.
    #[inline]
    pub fn bump(&mut self, kind_index: usize) {
        self.counts[kind_index] += 1;
    }

    /// `(tag, count)` for every kind seen at least once, in tag order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (KIND_TAGS[i], c))
    }

    /// Counts for every kind seen at least once, in tag order.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(_, c)| c)
    }
}

/// Checkpoint encoding: the full flat counter array (zeroes included)
/// after its length, so a build with more kinds rejects older payloads.
impl Codec for EventCounts {
    fn encode(&self, w: &mut Writer) {
        KIND_COUNT.encode(w);
        self.counts.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        if usize::decode(r)? != KIND_COUNT {
            return Err(SnapshotError::Corrupt {
                context: "EventCounts",
            });
        }
        Ok(EventCounts {
            counts: Codec::decode(r)?,
        })
    }
}

impl std::ops::Index<&str> for EventCounts {
    type Output = u64;

    /// Panics on an unknown tag, like the map it replaces did on an
    /// absent key. A known tag never observed reads as 0.
    fn index(&self, tag: &str) -> &u64 {
        match KIND_TAGS.iter().position(|&t| t == tag) {
            Some(i) => &self.counts[i],
            // detlint: allow(P1, reason = "Index contract: bad key panics, like the BTreeMap this replaces")
            None => panic!("unknown event kind tag {tag:?}"),
        }
    }
}

/// Deterministic fold of the event stream into registries and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsMetrics {
    /// Per-landmark counter rows, keyed by raw landmark id.
    pub landmarks: DenseMap<u16, LandmarkCounters>,
    /// Latest smoothed EWMA bandwidth per directed link `(from, to)` (Eq. 4).
    pub bandwidth: LinkMatrix,
    /// Latest `(coverage, table revision)` sample per landmark.
    pub coverage: DenseMap<u16, (f64, u64)>,
    /// Always empty: nothing writes it. It stays public only because
    /// the benchmark adapter (`perfbench/`) still reads it.
    // detlint: allow(S1, reason = "never written, so nothing to checkpoint; the benchmark adapter still reads it")
    pub route_cache: DenseMap<u16, (u64, u64)>,
    /// Event counts per kind tag.
    pub event_counts: EventCounts,
    /// End-to-end delivery delay histogram (see `DELAY_BUCKET_EDGES_SECS`).
    pub delay_hist: [u64; DELAY_BUCKETS],
    /// Delivery hop-count histogram (0..=15, then 16+).
    pub hop_hist: [u64; HOP_BUCKETS],
    /// Run-wide totals.
    pub totals: Totals,
}

impl ObsMetrics {
    /// Fresh, empty registries.
    pub fn new() -> Self {
        Self::default()
    }

    fn lm(&mut self, id: u16) -> &mut LandmarkCounters {
        self.landmarks.get_or_default(id)
    }

    /// A packet entered the queue at `place` (no-op for carrier nodes).
    fn enqueue(&mut self, place: Place) {
        if let Place::Pending(lm) | Place::Station(lm) = place {
            let c = self.lm(lm.0);
            c.queue_depth += 1;
            c.queue_peak = c.queue_peak.max(c.queue_depth);
        }
    }

    /// A packet left the queue at `place` (no-op for carrier nodes).
    fn dequeue(&mut self, place: Place) {
        if let Place::Pending(lm) | Place::Station(lm) = place {
            let c = self.lm(lm.0);
            c.queue_depth = c.queue_depth.saturating_sub(1);
        }
    }

    /// Fold one event into the registries.
    pub fn apply(&mut self, ev: &SimEvent) {
        self.event_counts.bump(ev.kind_index());
        match *ev {
            SimEvent::ContactOpen { .. } => self.totals.contacts_opened += 1,
            SimEvent::ContactClose { .. } => self.totals.contacts_closed += 1,
            SimEvent::UnitBoundary { .. } => {}
            SimEvent::PacketGenerated { src, start, .. } => {
                self.totals.generated += 1;
                self.lm(src.0).generated += 1;
                if let Some(place) = start {
                    self.enqueue(place);
                }
            }
            SimEvent::PacketForwarded { from, to, .. } => {
                self.totals.forwards += 1;
                self.dequeue(from);
                self.enqueue(to);
                if let Place::Station(lm) = to {
                    self.lm(lm.0).uplinks += 1;
                }
                if let Place::Station(lm) | Place::Pending(lm) = from {
                    self.lm(lm.0).downlinks += 1;
                }
            }
            SimEvent::PacketDelivered {
                lm,
                delay,
                hops,
                from,
                ..
            } => {
                self.totals.delivered += 1;
                self.dequeue(from);
                self.lm(lm.0).delivered += 1;
                let bucket = DELAY_BUCKET_EDGES_SECS
                    .iter()
                    .position(|&edge| delay.0 <= edge)
                    .unwrap_or(DELAY_BUCKETS - 1);
                if let Some(slot) = self.delay_hist.get_mut(bucket) {
                    *slot += 1;
                }
                let hop_bucket = (hops as usize).min(HOP_BUCKETS - 1);
                if let Some(slot) = self.hop_hist.get_mut(hop_bucket) {
                    *slot += 1;
                }
            }
            SimEvent::PacketExpired { from, .. } => {
                self.totals.expired += 1;
                self.dequeue(from);
                match from {
                    Place::Pending(lm) | Place::Station(lm) => self.lm(lm.0).expired += 1,
                    Place::Node(_) => self.totals.expired_on_node += 1,
                }
            }
            SimEvent::PacketLost { from, kind, .. } => {
                match kind {
                    LossKind::Outage => self.totals.lost_outage += 1,
                    LossKind::Churn => self.totals.lost_churn += 1,
                }
                if let Some(place) = from {
                    self.dequeue(place);
                    if let Place::Pending(lm) | Place::Station(lm) = place {
                        self.lm(lm.0).lost += 1;
                    }
                }
            }
            SimEvent::StationDown { .. }
            | SimEvent::StationUp { .. }
            | SimEvent::NodeFailed { .. }
            | SimEvent::NodeRecovered { .. }
            | SimEvent::CheckpointWritten { .. }
            | SimEvent::Restored { .. } => {}
            SimEvent::TableExchanged { to, .. } => self.lm(to.0).table_exchanges += 1,
            SimEvent::BandwidthUpdated {
                from, to, value, ..
            } => {
                self.bandwidth.set(from.0, to.0, value);
            }
            SimEvent::MisTransit { lm, uploaded, .. } => {
                let c = self.lm(lm.0);
                c.mis_transits += 1;
                if uploaded {
                    c.mis_transit_uploads += 1;
                }
            }
            SimEvent::RetryQueued { lm, .. } => self.lm(lm.0).retries += 1,
            SimEvent::RouteCoverage {
                lm,
                coverage,
                revision,
                ..
            } => {
                self.coverage.insert(lm.0, (coverage, revision));
            }
        }
    }
}

impl Codec for LandmarkCounters {
    fn encode(&self, w: &mut Writer) {
        self.generated.encode(w);
        self.uplinks.encode(w);
        self.downlinks.encode(w);
        self.delivered.encode(w);
        self.expired.encode(w);
        self.lost.encode(w);
        self.mis_transits.encode(w);
        self.mis_transit_uploads.encode(w);
        self.retries.encode(w);
        self.table_exchanges.encode(w);
        self.queue_depth.encode(w);
        self.queue_peak.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(LandmarkCounters {
            generated: Codec::decode(r)?,
            uplinks: Codec::decode(r)?,
            downlinks: Codec::decode(r)?,
            delivered: Codec::decode(r)?,
            expired: Codec::decode(r)?,
            lost: Codec::decode(r)?,
            mis_transits: Codec::decode(r)?,
            mis_transit_uploads: Codec::decode(r)?,
            retries: Codec::decode(r)?,
            table_exchanges: Codec::decode(r)?,
            queue_depth: Codec::decode(r)?,
            queue_peak: Codec::decode(r)?,
        })
    }
}

impl Codec for Totals {
    fn encode(&self, w: &mut Writer) {
        self.generated.encode(w);
        self.delivered.encode(w);
        self.expired.encode(w);
        self.lost_outage.encode(w);
        self.lost_churn.encode(w);
        self.forwards.encode(w);
        self.contacts_opened.encode(w);
        self.contacts_closed.encode(w);
        self.expired_on_node.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Totals {
            generated: Codec::decode(r)?,
            delivered: Codec::decode(r)?,
            expired: Codec::decode(r)?,
            lost_outage: Codec::decode(r)?,
            lost_churn: Codec::decode(r)?,
            forwards: Codec::decode(r)?,
            contacts_opened: Codec::decode(r)?,
            contacts_closed: Codec::decode(r)?,
            expired_on_node: Codec::decode(r)?,
        })
    }
}

/// Checkpoint encoding (DESIGN.md §11): every registry in field order.
/// Floats travel as raw bits, so a restored fold continues bit-exactly
/// where the checkpointed one stopped.
impl Codec for ObsMetrics {
    fn encode(&self, w: &mut Writer) {
        self.landmarks.encode(w);
        self.bandwidth.encode(w);
        self.coverage.encode(w);
        self.event_counts.encode(w);
        self.delay_hist.encode(w);
        self.hop_hist.encode(w);
        self.totals.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(ObsMetrics {
            landmarks: Codec::decode(r)?,
            bandwidth: Codec::decode(r)?,
            coverage: Codec::decode(r)?,
            route_cache: DenseMap::new(),
            event_counts: Codec::decode(r)?,
            delay_hist: Codec::decode(r)?,
            hop_hist: Codec::decode(r)?,
            totals: Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
    use dtnflow_core::time::{SimDuration, SimTime};

    #[test]
    fn queue_depth_follows_forwarding() {
        let mut m = ObsMetrics::new();
        let l0 = LandmarkId(0);
        m.apply(&SimEvent::PacketGenerated {
            at: SimTime(0),
            pkt: PacketId(0),
            src: l0,
            dst: LandmarkId(1),
            start: Some(Place::Pending(l0)),
        });
        assert_eq!(m.landmarks[0].queue_depth, 1);
        assert_eq!(m.landmarks[0].queue_peak, 1);
        m.apply(&SimEvent::PacketForwarded {
            at: SimTime(5),
            pkt: PacketId(0),
            from: Place::Pending(l0),
            to: Place::Node(NodeId(3)),
        });
        assert_eq!(m.landmarks[0].queue_depth, 0);
        assert_eq!(m.landmarks[0].downlinks, 1);
        m.apply(&SimEvent::PacketForwarded {
            at: SimTime(9),
            pkt: PacketId(0),
            from: Place::Node(NodeId(3)),
            to: Place::Station(LandmarkId(1)),
        });
        assert_eq!(m.landmarks[1].queue_depth, 1);
        assert_eq!(m.landmarks[1].uplinks, 1);
        m.apply(&SimEvent::PacketDelivered {
            at: SimTime(9),
            pkt: PacketId(0),
            lm: LandmarkId(1),
            delay: SimDuration(9),
            hops: 2,
            from: Place::Station(LandmarkId(1)),
        });
        assert_eq!(m.landmarks[1].queue_depth, 0);
        assert_eq!(m.totals.delivered, 1);
        // 9 s lands in the first (<= 1 h) bucket; 2 hops in bucket 2.
        assert_eq!(m.delay_hist[0], 1);
        assert_eq!(m.hop_hist[2], 1);
    }

    #[test]
    fn delay_buckets_cover_edges_and_overflow() {
        let mut m = ObsMetrics::new();
        for (i, secs) in [3_600u64, 3_601, 1_382_400, 1_382_401]
            .into_iter()
            .enumerate()
        {
            m.apply(&SimEvent::PacketDelivered {
                at: SimTime(secs),
                pkt: PacketId(i as u32),
                lm: LandmarkId(0),
                delay: SimDuration(secs),
                hops: 20,
                from: Place::Node(NodeId(0)),
            });
        }
        assert_eq!(m.delay_hist[0], 1); // exactly 1 h is upper-inclusive
        assert_eq!(m.delay_hist[1], 1); // 1 h + 1 s spills to the next bucket
        assert_eq!(m.delay_hist[DELAY_BUCKETS - 2], 1); // exactly 16 d
        assert_eq!(m.delay_hist[DELAY_BUCKETS - 1], 1); // overflow
        assert_eq!(m.hop_hist[HOP_BUCKETS - 1], 4); // 20 hops all overflow
    }

    #[test]
    fn loss_kinds_are_separated() {
        let mut m = ObsMetrics::new();
        m.apply(&SimEvent::PacketLost {
            at: SimTime(1),
            pkt: PacketId(0),
            from: Some(Place::Station(LandmarkId(2))),
            kind: LossKind::Outage,
        });
        m.apply(&SimEvent::PacketLost {
            at: SimTime(2),
            pkt: PacketId(1),
            from: Some(Place::Node(NodeId(1))),
            kind: LossKind::Churn,
        });
        m.apply(&SimEvent::PacketLost {
            at: SimTime(3),
            pkt: PacketId(2),
            from: None,
            kind: LossKind::Outage,
        });
        assert_eq!(m.totals.lost_outage, 2);
        assert_eq!(m.totals.lost_churn, 1);
        assert_eq!(m.landmarks[2].lost, 1);
    }

    #[test]
    fn gauges_keep_latest_sample() {
        let mut m = ObsMetrics::new();
        for (unit, v) in [(1u64, 0.5f64), (2, 0.75)] {
            m.apply(&SimEvent::BandwidthUpdated {
                at: SimTime(unit * 100),
                from: LandmarkId(0),
                to: LandmarkId(1),
                value: v,
            });
            m.apply(&SimEvent::RouteCoverage {
                at: SimTime(unit * 100),
                lm: LandmarkId(0),
                coverage: v,
                revision: unit,
            });
        }
        assert_eq!(m.bandwidth.get(0, 1), Some(0.75));
        assert_eq!(m.coverage[0], (0.75, 2));
    }
}
