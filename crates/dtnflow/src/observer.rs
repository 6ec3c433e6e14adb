//! Routing-table coverage and stability snapshots (paper Fig. 8).
//!
//! At each observation point `i`, a landmark's *coverage* is the fraction
//! of destinations with a usable route, and its *stability* is
//! `1 − changed/size`, where `changed` counts destinations whose next hop
//! differs from the previous observation point. The figure plots the
//! averages over all landmarks.

use dtnflow_core::ids::LandmarkId;
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

/// One observation point's averages over all landmarks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservationRow {
    pub index: usize,
    pub avg_coverage: f64,
    pub avg_stability: f64,
}

/// Incremental coverage/stability computation across observation points.
#[derive(Debug, Clone, Default)]
pub struct TableObserver {
    prev_next_hops: Vec<Vec<Option<LandmarkId>>>,
    rows: Vec<ObservationRow>,
}

impl TableObserver {
    pub fn new() -> Self {
        TableObserver::default()
    }

    /// Record an observation point given each landmark's coverage and
    /// next-hop column.
    pub fn observe(&mut self, index: usize, per_landmark: Vec<(f64, Vec<Option<LandmarkId>>)>) {
        let n = per_landmark.len().max(1) as f64;
        let avg_coverage = per_landmark.iter().map(|(c, _)| c).sum::<f64>() / n;
        let avg_stability = if self.prev_next_hops.is_empty() {
            // First observation: no previous column; the paper starts the
            // stability series at 1 (nothing has changed yet).
            1.0
        } else {
            let mut total = 0.0;
            for ((_, hops), prev) in per_landmark.iter().zip(&self.prev_next_hops) {
                let size = hops.iter().filter(|h| h.is_some()).count();
                if size == 0 {
                    total += 1.0;
                    continue;
                }
                let changed = hops
                    .iter()
                    .zip(prev)
                    .filter(|(now, before)| now.is_some() && now != before)
                    .count();
                total += 1.0 - changed as f64 / size as f64;
            }
            total / n
        };
        self.prev_next_hops = per_landmark.into_iter().map(|(_, h)| h).collect();
        self.rows.push(ObservationRow {
            index,
            avg_coverage,
            avg_stability,
        });
    }

    /// All observation rows so far.
    pub fn rows(&self) -> &[ObservationRow] {
        &self.rows
    }
}

impl Codec for ObservationRow {
    fn encode(&self, w: &mut Writer) {
        self.index.encode(w);
        self.avg_coverage.encode(w);
        self.avg_stability.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(ObservationRow {
            index: Codec::decode(r)?,
            avg_coverage: Codec::decode(r)?,
            avg_stability: Codec::decode(r)?,
        })
    }
}

/// Checkpoint encoding (DESIGN.md §11): the previous next-hop columns
/// (stability baseline) and the accumulated rows.
impl Codec for TableObserver {
    fn encode(&self, w: &mut Writer) {
        self.prev_next_hops.encode(w);
        self.rows.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<TableObserver, SnapshotError> {
        Ok(TableObserver {
            prev_next_hops: Codec::decode(r)?,
            rows: Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lm(i: u16) -> Option<LandmarkId> {
        Some(LandmarkId(i))
    }

    #[test]
    fn coverage_averages_over_landmarks() {
        let mut o = TableObserver::new();
        o.observe(0, vec![(1.0, vec![lm(1)]), (0.5, vec![None])]);
        assert!((o.rows()[0].avg_coverage - 0.75).abs() < 1e-12);
        assert_eq!(o.rows()[0].avg_stability, 1.0);
    }

    #[test]
    fn stability_counts_next_hop_changes() {
        let mut o = TableObserver::new();
        o.observe(0, vec![(1.0, vec![lm(1), lm(2)])]);
        // One of two next hops changed.
        o.observe(1, vec![(1.0, vec![lm(1), lm(3)])]);
        assert!((o.rows()[1].avg_stability - 0.5).abs() < 1e-12);
        // Nothing changed.
        o.observe(2, vec![(1.0, vec![lm(1), lm(3)])]);
        assert!((o.rows()[2].avg_stability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn newly_routable_dest_counts_as_change() {
        let mut o = TableObserver::new();
        o.observe(0, vec![(0.5, vec![lm(1), None])]);
        o.observe(1, vec![(1.0, vec![lm(1), lm(2)])]);
        // dest 1 went None -> Some: a change over a table of size 2.
        assert!((o.rows()[1].avg_stability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_table_is_fully_stable() {
        let mut o = TableObserver::new();
        o.observe(0, vec![(0.0, vec![None, None])]);
        o.observe(1, vec![(0.0, vec![None, None])]);
        assert_eq!(o.rows()[1].avg_stability, 1.0);
    }
}
