//! Per-landmark prediction-accuracy tracking (paper §IV-D.4).
//!
//! The carrier chosen for a packet is the node with the highest *overall*
//! transit probability `p_t = p_a · p_pred`, where `p_a` estimates how
//! often this node's predictions at the current landmark come true. `p_a`
//! starts at a medium value (0.5) and is scaled multiplicatively up on a
//! correct prediction and down on an incorrect one.

use dtnflow_core::ids::LandmarkId;
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

/// Multiplicative per-landmark prediction-accuracy estimates for one node.
#[derive(Debug, Clone)]
pub struct AccuracyTracker {
    acc: Vec<f64>,
    up: f64,
    down: f64,
    floor: f64,
}

impl AccuracyTracker {
    /// Paper-suggested defaults: start 0.5, ×1.1 on success, ×0.8 on
    /// failure, floored at 0.05 so a node can always recover.
    pub fn new(num_landmarks: usize) -> Self {
        Self::with_factors(num_landmarks, 0.5, 1.1, 0.8, 0.05)
    }

    /// Fully parameterized constructor.
    pub fn with_factors(num_landmarks: usize, init: f64, up: f64, down: f64, floor: f64) -> Self {
        assert!((0.0..=1.0).contains(&init), "init must be a probability");
        assert!(up >= 1.0, "up factor must be >= 1");
        assert!((0.0..=1.0).contains(&down), "down factor must be <= 1");
        assert!((0.0..=1.0).contains(&floor) && floor <= init);
        AccuracyTracker {
            acc: vec![init; num_landmarks],
            up,
            down,
            floor,
        }
    }

    /// Current accuracy estimate at a landmark, in `[floor, 1]`.
    #[inline]
    pub fn get(&self, lm: LandmarkId) -> f64 {
        self.acc[lm.index()]
    }

    /// Record the outcome of a prediction made at `lm`.
    pub fn record(&mut self, lm: LandmarkId, correct: bool) {
        let a = &mut self.acc[lm.index()];
        if correct {
            *a = (*a * self.up).min(1.0);
        } else {
            *a = (*a * self.down).max(self.floor);
        }
    }

    /// The overall transit probability `p_a(lm) * p_pred` used for carrier
    /// ranking.
    #[inline]
    pub fn overall(&self, lm: LandmarkId, predicted_prob: f64) -> f64 {
        self.get(lm) * predicted_prob
    }
}

/// Checkpoint encoding (DESIGN.md §11): estimates and factors as raw
/// f64 bits. Decode constructs the struct directly rather than going
/// through [`AccuracyTracker::with_factors`], so mid-run states (where
/// an estimate may sit above `init`) restore without tripping the
/// constructor's parameter asserts.
impl Codec for AccuracyTracker {
    fn encode(&self, w: &mut Writer) {
        self.acc.encode(w);
        self.up.encode(w);
        self.down.encode(w);
        self.floor.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<AccuracyTracker, SnapshotError> {
        Ok(AccuracyTracker {
            acc: Codec::decode(r)?,
            up: Codec::decode(r)?,
            down: Codec::decode(r)?,
            floor: Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lm(i: u16) -> LandmarkId {
        LandmarkId(i)
    }

    #[test]
    fn starts_at_init_and_moves_multiplicatively() {
        let mut t = AccuracyTracker::new(2);
        assert_eq!(t.get(lm(0)), 0.5);
        t.record(lm(0), true);
        assert!((t.get(lm(0)) - 0.55).abs() < 1e-12);
        t.record(lm(0), false);
        assert!((t.get(lm(0)) - 0.44).abs() < 1e-12);
        // The other landmark is untouched.
        assert_eq!(t.get(lm(1)), 0.5);
    }

    #[test]
    fn caps_at_one_and_floors() {
        let mut t = AccuracyTracker::new(1);
        for _ in 0..100 {
            t.record(lm(0), true);
        }
        assert_eq!(t.get(lm(0)), 1.0);
        for _ in 0..100 {
            t.record(lm(0), false);
        }
        assert!((t.get(lm(0)) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn overall_combines_accuracy_and_prediction() {
        let mut t = AccuracyTracker::new(1);
        t.record(lm(0), true); // 0.55
        let o = t.overall(lm(0), 0.8);
        assert!((o - 0.44).abs() < 1e-12);
    }

    #[test]
    fn stable_nodes_outrank_erratic_ones() {
        // Two nodes with the same predicted probability: the one whose
        // predictions keep coming true wins the carrier ranking.
        let mut stable = AccuracyTracker::new(1);
        let mut erratic = AccuracyTracker::new(1);
        for i in 0..10 {
            stable.record(lm(0), true);
            erratic.record(lm(0), i % 2 == 0);
        }
        assert!(stable.overall(lm(0), 0.6) > erratic.overall(lm(0), 0.6));
    }

    #[test]
    #[should_panic(expected = "up factor")]
    fn rejects_bad_factors() {
        AccuracyTracker::with_factors(1, 0.5, 0.9, 0.8, 0.1);
    }
}
