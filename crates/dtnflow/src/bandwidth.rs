//! Per-landmark transit-link bandwidth measurement (paper §IV-C.1,
//! Table III, Eq. 4).
//!
//! A landmark `j` directly measures its *incoming* links: every node
//! arriving at `j` reports its previous landmark `i`, so `j` counts the
//! per-unit transits `n(i→j)` and smooths them with Eq. 4,
//! `B = α·n + (1−α)·B_prev`.
//!
//! The *outgoing* bandwidth `B(j→i)` is measured at `i`, not at `j`. Two
//! mechanisms give `j` an estimate: a fresh report of `i`'s measurement,
//! carried from `i` back to `j` by a node that `i` predicts will leave for
//! `j`; and, absent a fresh report, the O3 symmetry assumption
//! `B(j→i) ≈ B(i→j)` using `j`'s own incoming measurement.

use crate::config::{FlowConfig, LinkDelayModel};
use dtnflow_core::config::SimConfig;
use dtnflow_core::dense::LinkMatrix;
use dtnflow_core::ids::LandmarkId;
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

/// All landmarks' transit-link measurements in one flat `n×n` store.
///
/// Row `me` holds landmark `me`'s view: this unit's incoming transit
/// counts `n(from→me)`, the Eq. 4 smoothed incoming bandwidths
/// `B(from→me)` (a [`LinkMatrix`] cell `me * n + from`), and the carried
/// outgoing-bandwidth reports `B(me→to)`. Keeping every landmark's row in
/// the same flat arrays lets the end-of-unit EWMA fold run as a single
/// linear pass over all `n²` links instead of `n` per-landmark loops.
#[derive(Debug, Clone)]
pub struct BandwidthMatrix {
    n: usize,
    /// This unit's incoming transit counts, cell `me * n + from`.
    counts: Vec<u32>,
    /// Smoothed incoming bandwidth `B(from→me)`, cell `me * n + from`.
    incoming: LinkMatrix,
    /// Reported outgoing bandwidth `B(me→to)` with the time-unit sequence
    /// of the report (freshness guard), cell `me * n + to`.
    reported: Vec<Option<(f64, u64)>>,
    alpha: f64,
}

impl BandwidthMatrix {
    /// Empty measurements for a network of `num_landmarks` landmarks.
    pub fn new(num_landmarks: usize, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        BandwidthMatrix {
            n: num_landmarks,
            counts: vec![0; num_landmarks * num_landmarks],
            incoming: LinkMatrix::filled(num_landmarks, 0.0),
            reported: vec![None; num_landmarks * num_landmarks],
            alpha,
        }
    }

    #[inline]
    fn cell(&self, me: LandmarkId, other: LandmarkId) -> usize {
        me.index() * self.n + other.index()
    }

    /// The network size the matrix was built for (one side of the n×n
    /// store).
    pub fn side(&self) -> usize {
        self.n
    }

    /// A node arrived at `me`, reporting `from` as its previous landmark.
    pub fn record_arrival_from(&mut self, me: LandmarkId, from: LandmarkId) {
        let i = self.cell(me, from);
        self.counts[i] += 1;
    }

    /// Close the current time unit for *every* landmark at once: fold
    /// each link's count into its smoothed incoming bandwidth (Eq. 4,
    /// `B = α·n + (1−α)·B_prev`) and reset the counters. Per-landmark
    /// folds are independent, so one flat pass computes exactly what `n`
    /// per-row folds would.
    pub fn end_of_unit_all(&mut self) {
        let alpha = self.alpha;
        for (b, c) in self
            .incoming
            .as_mut_slice()
            .iter_mut()
            .zip(self.counts.iter_mut())
        {
            *b = alpha * (*c as f64) + (1.0 - alpha) * *b;
            *c = 0;
        }
    }

    /// The smoothed incoming bandwidth `B(from → me)`.
    #[inline]
    pub fn incoming(&self, me: LandmarkId, from: LandmarkId) -> f64 {
        self.incoming.at(me.0, from.0)
    }

    /// Apply at `me` a carried report of its outgoing bandwidth
    /// `B(me → to)` measured at `to`, stamped with the measuring unit.
    /// Stale reports (sequence not newer than the stored one) are
    /// discarded, as in the paper. Returns whether the report was
    /// accepted.
    pub fn apply_report(
        &mut self,
        me: LandmarkId,
        to: LandmarkId,
        value: f64,
        unit_seq: u64,
    ) -> bool {
        let i = self.cell(me, to);
        match self.reported[i] {
            Some((_, seq)) if seq >= unit_seq => false,
            _ => {
                self.reported[i] = Some((value, unit_seq));
                true
            }
        }
    }

    /// Best available estimate at `me` of the outgoing bandwidth
    /// `B(me → to)`: a received report when present, else the symmetric
    /// assumption (its incoming measurement of `to → me`).
    #[inline]
    pub fn outgoing(&self, me: LandmarkId, to: LandmarkId) -> f64 {
        match self.reported[self.cell(me, to)] {
            Some((v, _)) => v,
            None => self.incoming.at(me.0, to.0),
        }
    }

    /// Expected per-hop delay of the link `me → to` in seconds, under the
    /// configured delay model; `f64::INFINITY` when the link is unusable.
    pub fn link_delay(
        &self,
        me: LandmarkId,
        to: LandmarkId,
        flow: &FlowConfig,
        sim: &SimConfig,
    ) -> f64 {
        let b = self.outgoing(me, to);
        if b < flow.min_bandwidth {
            return f64::INFINITY;
        }
        let t = sim.time_unit.secs() as f64;
        match flow.delay_model {
            LinkDelayModel::TransitInterval => t / b,
            LinkDelayModel::Throughput => t * sim.packet_size as f64 / (b * sim.node_memory as f64),
        }
    }
}

/// Checkpoint encoding (DESIGN.md §11): the side `n`, then the flat
/// `n×n` counts, smoothed EWMA cells (raw f64 bits) and carried reports
/// with no count, then alpha.
impl Codec for BandwidthMatrix {
    fn encode(&self, w: &mut Writer) {
        self.n.encode(w);
        for c in &self.counts {
            c.encode(w);
        }
        self.incoming.encode(w);
        for slot in &self.reported {
            slot.encode(w);
        }
        self.alpha.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<BandwidthMatrix, SnapshotError> {
        const CTX: &str = "BandwidthMatrix";
        let n: usize = Codec::decode(r)?;
        let cells = n
            .checked_mul(n)
            .ok_or(SnapshotError::Corrupt { context: CTX })?;
        let counts = r.items(cells, Codec::decode)?;
        let incoming: LinkMatrix = Codec::decode(r)?;
        if incoming.side() != n {
            return Err(SnapshotError::Corrupt { context: CTX });
        }
        let reported = r.items(cells, Codec::decode)?;
        Ok(BandwidthMatrix {
            n,
            counts,
            incoming,
            reported,
            alpha: Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The measuring landmark every test reads its row of.
    const ME: LandmarkId = LandmarkId(0);

    fn lm(i: u16) -> LandmarkId {
        LandmarkId(i)
    }

    #[test]
    fn ewma_follows_eq4() {
        let mut t = BandwidthMatrix::new(3, 0.5);
        t.record_arrival_from(ME, lm(1));
        t.record_arrival_from(ME, lm(1));
        t.end_of_unit_all();
        assert!((t.incoming(ME, lm(1)) - 1.0).abs() < 1e-12); // 0.5*2 + 0.5*0
        t.record_arrival_from(ME, lm(1));
        t.end_of_unit_all();
        assert!((t.incoming(ME, lm(1)) - 1.0).abs() < 1e-12); // 0.5*1 + 0.5*1
        t.end_of_unit_all();
        assert!((t.incoming(ME, lm(1)) - 0.5).abs() < 1e-12); // decays
        assert_eq!(t.incoming(ME, lm(2)), 0.0);
    }

    #[test]
    fn reports_override_symmetry_and_staleness_is_rejected() {
        let mut t = BandwidthMatrix::new(2, 0.5);
        t.record_arrival_from(ME, lm(1));
        t.record_arrival_from(ME, lm(1));
        t.end_of_unit_all();
        // No report: symmetric fallback uses incoming(1) = 1.0.
        assert!((t.outgoing(ME, lm(1)) - 1.0).abs() < 1e-12);
        assert!(t.apply_report(ME, lm(1), 3.0, 5));
        assert!((t.outgoing(ME, lm(1)) - 3.0).abs() < 1e-12);
        // Stale (same or older unit) reports are discarded.
        assert!(!t.apply_report(ME, lm(1), 9.0, 5));
        assert!(!t.apply_report(ME, lm(1), 9.0, 4));
        assert!((t.outgoing(ME, lm(1)) - 3.0).abs() < 1e-12);
        assert!(t.apply_report(ME, lm(1), 2.0, 6));
        assert!((t.outgoing(ME, lm(1)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn link_delay_models() {
        let mut t = BandwidthMatrix::new(2, 1.0);
        t.record_arrival_from(ME, lm(1));
        t.record_arrival_from(ME, lm(1));
        t.end_of_unit_all(); // B = 2
        let sim = SimConfig::default(); // T = 3 days, S = 1 kB, M = 2000 kB
        let mut flow = FlowConfig::default();
        let d = t.link_delay(ME, lm(1), &flow, &sim);
        assert!((d - 259_200.0 / 2.0).abs() < 1e-9);
        flow.delay_model = LinkDelayModel::Throughput;
        let d2 = t.link_delay(ME, lm(1), &flow, &sim);
        assert!((d2 - 259_200.0 * 1_024.0 / (2.0 * 2_048_000.0)).abs() < 1e-9);
        // Dead link is infinite under both models.
        assert!(t.link_delay(ME, lm(0), &flow, &sim).is_infinite());
    }

    #[test]
    fn asymmetric_links_need_reports() {
        // One-way road: traffic flows 1 -> me only. The symmetric fallback
        // wrongly claims me -> 1 capacity; a report fixes it.
        let mut t = BandwidthMatrix::new(2, 1.0);
        for _ in 0..5 {
            t.record_arrival_from(ME, lm(1));
        }
        t.end_of_unit_all();
        assert!((t.outgoing(ME, lm(1)) - 5.0).abs() < 1e-12); // wrong (symmetry)
        t.apply_report(ME, lm(1), 0.0, 1); // the truth from the other side
        assert_eq!(t.outgoing(ME, lm(1)), 0.0);
    }
}
