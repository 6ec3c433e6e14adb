//! A back-off variant of the order-k predictor.
//!
//! §IV-B.2 explains why large k fails on real traces: missing records
//! make long contexts rare, so a high-order predictor often has *no*
//! statistics for the current context. The classic remedy (from n-gram
//! language modelling) is back-off: keep predictors of every order
//! `1..=k` and answer from the highest order whose context has been seen.
//! This preserves order-k's precision on strong patterns without paying
//! its coverage penalty — the ablation bench quantifies the effect.

use crate::markov::{MarkovPredictor, MAX_ORDER};
use dtnflow_core::ids::LandmarkId;

/// An order-k Markov predictor that backs off to lower orders when the
/// high-order context is unseen.
#[derive(Debug, Clone)]
pub struct FallbackPredictor {
    /// Index i holds the order-(i+1) predictor.
    levels: Vec<MarkovPredictor>,
}

impl FallbackPredictor {
    /// Create a back-off predictor with maximum order `k`.
    pub fn new(k: usize) -> Self {
        assert!(
            (1..=MAX_ORDER).contains(&k),
            "order must be 1..={MAX_ORDER}"
        );
        FallbackPredictor {
            levels: (1..=k).map(MarkovPredictor::new).collect(),
        }
    }

    /// Feed the next visited landmark into every level.
    pub fn observe(&mut self, lm: LandmarkId) {
        for p in &mut self.levels {
            p.observe(lm);
        }
    }

    /// Number of (deduplicated) observations.
    pub fn observations(&self) -> usize {
        self.levels[0].observations()
    }

    /// The landmark the node is currently at.
    pub fn current(&self) -> Option<LandmarkId> {
        self.levels[0].current()
    }

    /// Predict from the highest order whose context is known; returns the
    /// prediction together with the order that produced it.
    pub fn predict_with_order(&self) -> Option<(LandmarkId, f64, usize)> {
        for p in self.levels.iter().rev() {
            if let Some((lm, prob)) = p.predict() {
                return Some((lm, prob, p.order()));
            }
        }
        None
    }

    /// The most likely next landmark with its probability.
    pub fn predict(&self) -> Option<(LandmarkId, f64)> {
        self.predict_with_order().map(|(lm, p, _)| (lm, p))
    }

    /// Probability of the next transit going to `next`, from the highest
    /// order with a known context.
    pub fn probability(&self, next: LandmarkId) -> f64 {
        for p in self.levels.iter().rev() {
            if p.predict().is_some() {
                return p.probability(next);
            }
        }
        0.0
    }

    /// The successor distribution from the highest informative order.
    pub fn distribution(&self) -> Vec<(LandmarkId, f64)> {
        for p in self.levels.iter().rev() {
            let d = p.distribution();
            if !d.is_empty() {
                return d;
            }
        }
        Vec::new()
    }
}

/// Offline evaluation of the back-off predictor on a trace (the analogue
/// of [`crate::eval::evaluate_order_k`]).
pub fn evaluate_fallback(trace: &dtnflow_mobility::Trace, k: usize) -> crate::eval::EvalResult {
    use dtnflow_core::ids::NodeId;
    let mut per_node = Vec::with_capacity(trace.num_nodes());
    let mut attempts_total = 0u64;
    let mut correct_total = 0u64;
    for n in 0..trace.num_nodes() {
        let mut p = FallbackPredictor::new(k);
        let mut attempts = 0u64;
        let mut correct = 0u64;
        let mut last = None;
        for lm in trace.node_landmark_seq(NodeId::from(n)) {
            if last == Some(lm) {
                continue;
            }
            last = Some(lm);
            if p.observations() >= 1 {
                attempts += 1;
                if p.predict().map(|(l, _)| l) == Some(lm) {
                    correct += 1;
                }
            }
            p.observe(lm);
        }
        attempts_total += attempts;
        correct_total += correct;
        per_node.push((attempts > 0).then(|| correct as f64 / attempts as f64));
    }
    crate::eval::EvalResult {
        k,
        per_node,
        attempts: attempts_total,
        correct: correct_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lm(i: u16) -> LandmarkId {
        LandmarkId(i)
    }

    fn feed(p: &mut FallbackPredictor, seq: &[u16]) {
        for &s in seq {
            p.observe(lm(s));
        }
    }

    #[test]
    fn uses_high_order_when_context_known() {
        let mut p = FallbackPredictor::new(2);
        // After (1,2) -> 3; after (4,2) -> 5 — order-1 cannot separate.
        feed(&mut p, &[1, 2, 3, 4, 2, 5, 1, 2, 3, 4, 2]);
        let (next, prob, order) = p.predict_with_order().unwrap();
        assert_eq!(order, 2);
        assert_eq!(next, lm(5));
        assert!((prob - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backs_off_to_order_one_on_unseen_context() {
        let mut p = FallbackPredictor::new(3);
        feed(&mut p, &[1, 2, 1, 2, 1, 2, 7]);
        // Context (2,7)/(1,2,7) never seen, but order-1 knows nothing
        // about 7 either; context (7) unseen => no prediction at all.
        assert!(p.predict().is_none());
        // Back at 1, high orders know (2,1)->2; so does order 1.
        p.observe(lm(1));
        let (next, _, order) = p.predict_with_order().unwrap();
        assert_eq!(next, lm(2));
        assert!(order >= 1);
    }

    #[test]
    fn order_one_equivalence_when_k_is_one() {
        let mut a = FallbackPredictor::new(1);
        let mut b = MarkovPredictor::new(1);
        let seq = [3u16, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        for &s in &seq {
            a.observe(lm(s));
            b.observe(lm(s));
        }
        assert_eq!(a.predict(), b.predict());
        for l in 0..10u16 {
            assert_eq!(a.probability(lm(l)), b.probability(lm(l)));
        }
    }

    #[test]
    fn fallback_never_below_best_single_order_on_campus() {
        use dtnflow_mobility::synth::campus::default_campus_trace;
        let t = default_campus_trace(33);
        let k1 = crate::eval::evaluate_order_k(&t, 1)
            .mean_node_accuracy()
            .unwrap();
        let k2 = crate::eval::evaluate_order_k(&t, 2)
            .mean_node_accuracy()
            .unwrap();
        let fb = evaluate_fallback(&t, 2).mean_node_accuracy().unwrap();
        // Back-off should roughly dominate the weaker of the two orders
        // and be competitive with the better one.
        assert!(fb >= k2 - 0.02, "fallback {fb} vs k2 {k2}");
        assert!(fb >= k1 - 0.05, "fallback {fb} vs k1 {k1}");
    }

    #[test]
    fn distribution_comes_from_informative_level() {
        let mut p = FallbackPredictor::new(2);
        feed(&mut p, &[1, 2, 3, 1, 2]);
        let d = p.distribution();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, lm(3));
    }

    #[test]
    #[should_panic(expected = "order must be")]
    fn rejects_zero_order() {
        FallbackPredictor::new(0);
    }
}
