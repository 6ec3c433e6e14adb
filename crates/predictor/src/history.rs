//! The per-node landmark visiting history table (paper Table II), with the
//! stay-time statistics needed by dead-end detection (§IV-E.1).

use dtnflow_core::ids::LandmarkId;
use dtnflow_core::time::{SimDuration, SimTime};
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

/// One row of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryEntry {
    pub landmark: LandmarkId,
    pub start: SimTime,
    pub end: SimTime,
}

/// A node's landmark visiting history with per-landmark stay statistics.
#[derive(Debug, Clone, Default)]
pub struct VisitHistory {
    entries: Vec<HistoryEntry>,
    /// Per landmark: (total stay seconds, completed stays).
    stay_sums: Vec<(u64, u32)>,
}

impl VisitHistory {
    /// Create an empty history for a network of `num_landmarks` landmarks.
    pub fn new(num_landmarks: usize) -> Self {
        VisitHistory {
            entries: Vec::new(),
            stay_sums: vec![(0, 0); num_landmarks],
        }
    }

    /// Record a completed stay. Stays must be appended in time order.
    pub fn record(&mut self, landmark: LandmarkId, start: SimTime, end: SimTime) {
        assert!(end > start, "stay must have positive duration");
        if let Some(last) = self.entries.last() {
            assert!(start >= last.end, "stays must be appended in time order");
        }
        self.entries.push(HistoryEntry {
            landmark,
            start,
            end,
        });
        let (sum, n) = &mut self.stay_sums[landmark.index()];
        *sum += end.since(start).secs();
        *n += 1;
    }

    /// Total completed stays recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no stay has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Average stay time at one landmark, if ever visited.
    pub fn avg_stay_at(&self, landmark: LandmarkId) -> Option<SimDuration> {
        let (sum, n) = self.stay_sums[landmark.index()];
        (n > 0).then(|| SimDuration::from_secs(sum / n as u64))
    }

    /// Average stay time across all landmarks, if any stay recorded.
    pub fn avg_stay_overall(&self) -> Option<SimDuration> {
        let (sum, n) = self
            .stay_sums
            .iter()
            .fold((0u64, 0u64), |(s, c), &(sum, n)| (s + sum, c + n as u64));
        (n > 0).then(|| SimDuration::from_secs(sum / n))
    }

    /// The `top` most frequently visited landmarks, descending by visit
    /// count (used by the §IV-E.4 routing-to-mobile-nodes extension).
    pub fn frequent_landmarks(&self, top: usize) -> Vec<LandmarkId> {
        let mut out = Vec::new();
        self.frequent_landmarks_into(top, &mut out);
        out
    }

    /// [`VisitHistory::frequent_landmarks`] into a caller-owned buffer
    /// (cleared first), allocation-free: `top` is tiny (the §IV-E.4
    /// registration count, 2 in the router), so a selection scan per rank
    /// beats building and sorting a count vector. Ties rank the lower
    /// landmark id first, as the sorted form did.
    pub fn frequent_landmarks_into(&self, top: usize, out: &mut Vec<LandmarkId>) {
        out.clear();
        for _ in 0..top {
            let mut best: Option<(u32, usize)> = None;
            for (l, &(_, n)) in self.stay_sums.iter().enumerate() {
                if n == 0 || out.iter().any(|&picked| picked.index() == l) {
                    continue;
                }
                // Ascending scan: a strict `>` keeps the lowest id on ties.
                if best.is_none_or(|(bn, _)| n > bn) {
                    best = Some((n, l));
                }
            }
            match best {
                Some((_, l)) => out.push(LandmarkId::from(l)),
                None => break,
            }
        }
    }

    /// Dead-end test (§IV-E.1): has a stay of `elapsed` at `landmark`
    /// exceeded `gamma` times the node's average — either its overall
    /// average stay (regular-route dead end) or its average at this
    /// landmark (abrupt dead end)? Only fires once at least `min_stays`
    /// stays are recorded, to limit false positives.
    pub fn is_dead_end(
        &self,
        landmark: LandmarkId,
        elapsed: SimDuration,
        gamma: f64,
        min_stays: usize,
    ) -> bool {
        assert!(gamma >= 1.0, "gamma must be at least 1");
        if self.len() < min_stays {
            return false;
        }
        let overall = self.avg_stay_overall();
        let here = self.avg_stay_at(landmark);
        let exceeded = |avg: Option<SimDuration>| {
            avg.is_some_and(|a| a.secs() > 0 && elapsed.secs() as f64 > gamma * a.secs() as f64)
        };
        exceeded(overall) || exceeded(here)
    }
}

impl Codec for HistoryEntry {
    fn encode(&self, w: &mut Writer) {
        self.landmark.encode(w);
        self.start.encode(w);
        self.end.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(HistoryEntry {
            landmark: Codec::decode(r)?,
            start: Codec::decode(r)?,
            end: Codec::decode(r)?,
        })
    }
}

/// Checkpoint encoding (DESIGN.md §11): rows then stay sums, both
/// serialized verbatim (the rows are *not* replayed through
/// [`VisitHistory::record`] on decode, so its ordering asserts never
/// fire on a valid snapshot). Decode rejects a row naming a landmark
/// with no stay-sum slot.
impl Codec for VisitHistory {
    fn encode(&self, w: &mut Writer) {
        self.entries.encode(w);
        self.stay_sums.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<VisitHistory, SnapshotError> {
        let h = VisitHistory {
            entries: Codec::decode(r)?,
            stay_sums: Codec::decode(r)?,
        };
        if h.entries
            .iter()
            .any(|e| e.landmark.index() >= h.stay_sums.len())
        {
            return Err(SnapshotError::Corrupt {
                context: "VisitHistory",
            });
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lm(i: u16) -> LandmarkId {
        LandmarkId(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime(s)
    }

    #[test]
    fn records_and_averages() {
        let mut h = VisitHistory::new(3);
        h.record(lm(0), t(0), t(100));
        h.record(lm(1), t(200), t(500));
        h.record(lm(0), t(600), t(900));
        assert_eq!(h.len(), 3);
        assert_eq!(h.avg_stay_at(lm(0)), Some(SimDuration(200)));
        assert_eq!(h.avg_stay_at(lm(1)), Some(SimDuration(300)));
        assert_eq!(h.avg_stay_at(lm(2)), None);
        assert_eq!(h.avg_stay_overall(), Some(SimDuration(233)));
    }

    #[test]
    fn frequent_landmarks_rank_by_count() {
        let mut h = VisitHistory::new(4);
        for i in 0..3 {
            h.record(lm(2), t(i * 100), t(i * 100 + 10));
        }
        h.record(lm(0), t(1_000), t(1_010));
        h.record(lm(0), t(2_000), t(2_010));
        h.record(lm(3), t(3_000), t(3_010));
        assert_eq!(h.frequent_landmarks(2), vec![lm(2), lm(0)]);
        assert_eq!(h.frequent_landmarks(10), vec![lm(2), lm(0), lm(3)]);
    }

    #[test]
    fn dead_end_requires_history() {
        let mut h = VisitHistory::new(2);
        h.record(lm(0), t(0), t(100));
        // Not enough stays recorded yet.
        assert!(!h.is_dead_end(lm(0), SimDuration(10_000), 2.0, 5));
        for i in 1..6 {
            h.record(lm(0), t(i * 1_000), t(i * 1_000 + 100));
        }
        // Average stay is 100 s; 300 s exceeds gamma=2 times that.
        assert!(h.is_dead_end(lm(0), SimDuration(300), 2.0, 5));
        assert!(!h.is_dead_end(lm(0), SimDuration(150), 2.0, 5));
    }

    #[test]
    fn dead_end_abrupt_at_unusual_landmark() {
        let mut h = VisitHistory::new(3);
        // Five short stays at l0, one long historical stay at l2.
        for i in 0..5 {
            h.record(lm(0), t(i * 1_000), t(i * 1_000 + 100));
        }
        h.record(lm(2), t(10_000), t(20_000));
        // At l1 (never visited): only the overall average applies.
        // Overall avg = (500 + 10_000) / 6 = 1750.
        assert!(h.is_dead_end(lm(1), SimDuration(4_000), 2.0, 5));
        assert!(!h.is_dead_end(lm(1), SimDuration(3_000), 2.0, 5));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn rejects_out_of_order_stays() {
        let mut h = VisitHistory::new(1);
        h.record(lm(0), t(100), t(200));
        h.record(lm(0), t(50), t(90));
    }
}
