//! Offline predictor evaluation on traces (paper §IV-B.2/3, Fig. 6).
//!
//! Replays each node's landmark sequence through an online order-k
//! predictor: at every step where the node has a complete k-context, the
//! predictor guesses the next landmark *before* observing it. A step whose
//! context was never seen (a "missed k-hop pattern") counts as a failed
//! prediction — this is exactly the effect that makes large k perform
//! worse on traces with missing records.

use crate::markov::MarkovPredictor;
use dtnflow_core::ids::NodeId;
use dtnflow_core::metrics::FiveNum;
use dtnflow_mobility::Trace;

/// Per-node evaluation outcome.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Predictor order evaluated.
    pub k: usize,
    /// Per node: `Some(correct / attempts)`, or `None` when the node never
    /// had a complete context (too few visits).
    pub per_node: Vec<Option<f64>>,
    /// Total prediction attempts across nodes.
    pub attempts: u64,
    /// Total correct predictions across nodes.
    pub correct: u64,
}

impl EvalResult {
    /// Mean of per-node accuracy rates (the paper's "average accuracy rate
    /// of all nodes"). `None` when no node produced predictions.
    pub fn mean_node_accuracy(&self) -> Option<f64> {
        let vals: Vec<f64> = self.per_node.iter().flatten().copied().collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

/// Evaluate an order-k predictor on every node of a trace.
pub fn evaluate_order_k(trace: &Trace, k: usize) -> EvalResult {
    let mut per_node = Vec::with_capacity(trace.num_nodes());
    let mut attempts_total = 0u64;
    let mut correct_total = 0u64;

    for n in 0..trace.num_nodes() {
        let mut predictor = MarkovPredictor::new(k);
        let mut attempts = 0u64;
        let mut correct = 0u64;
        let mut seq = trace
            .node_landmark_seq(NodeId::from(n))
            .into_iter()
            .peekable();
        // Collapse consecutive duplicates the same way the predictor does.
        let mut deduped = Vec::new();
        while let Some(lm) = seq.next() {
            if deduped.last() != Some(&lm) {
                deduped.push(lm);
            }
            let _ = seq.peek();
        }
        for lm in deduped {
            if predictor.context().is_some() {
                attempts += 1;
                if predictor.predict().map(|(p, _)| p) == Some(lm) {
                    correct += 1;
                }
            }
            predictor.observe(lm);
        }
        attempts_total += attempts;
        correct_total += correct;
        per_node.push((attempts > 0).then(|| correct as f64 / attempts as f64));
    }

    EvalResult {
        k,
        per_node,
        attempts: attempts_total,
        correct: correct_total,
    }
}

/// The five-number summary of per-node accuracies (Fig. 6b).
pub fn accuracy_five_num(result: &EvalResult) -> Option<FiveNum> {
    let vals: Vec<f64> = result.per_node.iter().flatten().copied().collect();
    FiveNum::of(&vals)
}

/// The §IV-B.2 k-selection procedure: evaluate each candidate order on the
/// collected history and keep the most accurate (ties to the smaller k,
/// which is cheaper). Panics on an empty candidate list.
pub fn best_k(trace: &Trace, candidates: &[usize]) -> usize {
    assert!(!candidates.is_empty(), "need at least one candidate order");
    let mut best = candidates[0];
    let mut best_acc = f64::NEG_INFINITY;
    for &k in candidates {
        let acc = evaluate_order_k(trace, k)
            .mean_node_accuracy()
            .unwrap_or(0.0);
        if acc > best_acc + 1e-12 {
            best_acc = acc;
            best = k;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_core::geometry::Point;
    use dtnflow_core::ids::LandmarkId;
    use dtnflow_core::time::SimTime;
    use dtnflow_mobility::synth::campus::default_campus_trace;
    use dtnflow_mobility::Visit;

    /// A perfectly periodic node: order-1 prediction should converge to
    /// 100% after the first cycle.
    fn periodic_trace(cycles: usize) -> Trace {
        let mut visits = Vec::new();
        let pattern = [0u16, 1, 2];
        let mut t = 0u64;
        for _ in 0..cycles {
            for &l in &pattern {
                visits.push(Visit::new(
                    NodeId(0),
                    LandmarkId(l),
                    SimTime(t),
                    SimTime(t + 100),
                ));
                t += 200;
            }
        }
        let positions = (0..3).map(|i| Point::new(i as f64, 0.0)).collect();
        Trace::new("periodic", 1, 3, positions, visits).unwrap()
    }

    #[test]
    fn periodic_node_is_highly_predictable() {
        let t = periodic_trace(10);
        let r = evaluate_order_k(&t, 1);
        let acc = r.per_node[0].unwrap();
        // 29 attempts; only the first traversal of the 3-landmark cycle
        // (3 unseen contexts) fails: 26/29 correct.
        assert!((acc - 26.0 / 29.0).abs() < 1e-9, "accuracy {acc}");
        assert_eq!(r.attempts, 29);
        assert_eq!(r.correct, 26);
    }

    #[test]
    fn too_short_history_gives_none() {
        let positions = vec![Point::new(0.0, 0.0)];
        let visits = vec![Visit::new(
            NodeId(0),
            LandmarkId(0),
            SimTime(0),
            SimTime(10),
        )];
        let t = Trace::new("short", 1, 1, positions, visits).unwrap();
        let r = evaluate_order_k(&t, 2);
        assert_eq!(r.per_node[0], None);
        assert!(r.mean_node_accuracy().is_none());
    }

    #[test]
    fn order1_beats_order3_on_lossy_campus_trace() {
        // The paper's Fig. 6(a) finding: with missing records, k=1 wins.
        let t = default_campus_trace(21);
        let a1 = evaluate_order_k(&t, 1).mean_node_accuracy().unwrap();
        let a3 = evaluate_order_k(&t, 3).mean_node_accuracy().unwrap();
        assert!(a1 > a3, "k=1 acc {a1} should beat k=3 acc {a3}");
        assert_eq!(best_k(&t, &[1, 2, 3]), 1);
    }

    #[test]
    fn campus_accuracy_in_plausible_band() {
        // DART's order-1 average accuracy is ~0.77; ours should land in a
        // broadly comparable band (0.4..0.95) rather than at either
        // degenerate extreme.
        let t = default_campus_trace(22);
        let acc = evaluate_order_k(&t, 1).mean_node_accuracy().unwrap();
        assert!((0.4..0.95).contains(&acc), "accuracy {acc}");
    }

    #[test]
    fn five_num_is_ordered() {
        let t = default_campus_trace(23);
        let f = accuracy_five_num(&evaluate_order_k(&t, 1)).unwrap();
        assert!(f.min <= f.q1 && f.q1 <= f.q3 && f.q3 <= f.max);
        assert!(f.min >= 0.0 && f.max <= 1.0);
    }

    #[test]
    fn best_k_ties_break_small() {
        // On a deterministic cycle every k achieves ~the same accuracy
        // asymptotically; small differences exist, but best_k must return
        // a candidate from the list.
        let t = periodic_trace(20);
        let k = best_k(&t, &[1, 2]);
        assert!(k == 1 || k == 2);
    }
}
