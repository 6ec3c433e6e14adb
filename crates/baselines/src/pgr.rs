//! PGR (geographical routing for DTN encounter networks) adapted to
//! landmark destinations (paper §II-C, §V-A.1).
//!
//! "PGR uses observed node mobility routes, i.e., a sequence of locations,
//! to check whether the destination landmark is on a node's route." We
//! predict a node's future route by following its most likely order-1
//! Markov transitions for `HORIZON` hops from its current landmark; the
//! utility of a node for a destination is higher the earlier the
//! destination appears on that predicted route. Predicting a whole
//! multi-hop route compounds the single-step error, which is why the paper
//! finds PGR's accuracy — and success rate — lowest (§V-A.2).

use crate::common::UtilityModel;
use dtnflow_core::ids::{LandmarkId, NodeId};
use dtnflow_core::time::{SimDuration, SimTime};
use dtnflow_predictor::MarkovPredictor;

/// How many hops ahead a route is predicted.
pub const HORIZON: usize = 5;

/// The PGR utility model.
pub struct Pgr {
    predictors: Vec<MarkovPredictor>,
    current: Vec<Option<LandmarkId>>,
    /// Cached predicted route per node, invalidated on movement.
    route_cache: Vec<Option<Vec<LandmarkId>>>,
}

impl Pgr {
    pub fn new(num_nodes: usize, _num_landmarks: usize) -> Self {
        Pgr {
            predictors: (0..num_nodes).map(|_| MarkovPredictor::new(1)).collect(),
            current: vec![None; num_nodes],
            route_cache: vec![None; num_nodes],
        }
    }

    /// The node's predicted route: up to `HORIZON` most-likely next
    /// landmarks starting from its current one. Computed once per move
    /// and borrowed from the cache after that.
    pub fn predicted_route(&mut self, node: NodeId) -> &[LandmarkId] {
        let i = node.index();
        if self.route_cache[i].is_none() {
            let mut route = Vec::with_capacity(HORIZON);
            let predictor = &self.predictors[i];
            if let Some(mut at) = self.current[i] {
                for _ in 0..HORIZON {
                    match predictor.predict_from(&[at]) {
                        Some((next, _)) => {
                            route.push(next);
                            at = next;
                        }
                        None => break,
                    }
                }
            }
            self.route_cache[i] = Some(route);
        }
        self.route_cache[i].as_deref().unwrap_or_default()
    }
}

impl UtilityModel for Pgr {
    fn name(&self) -> &'static str {
        "PGR"
    }

    fn on_visit(&mut self, node: NodeId, lm: LandmarkId, _now: SimTime) {
        self.predictors[node.index()].observe(lm);
        self.current[node.index()] = Some(lm);
        self.route_cache[node.index()] = None;
    }

    fn score(&mut self, node: NodeId, dst: LandmarkId, _: SimDuration, _: SimTime) -> f64 {
        match self.predicted_route(node).iter().position(|&l| l == dst) {
            Some(i) => 1.0 / (i + 1) as f64,
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_core::time::DAY;

    fn lm(i: u16) -> LandmarkId {
        LandmarkId(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime(s)
    }

    fn feed_cycle(m: &mut Pgr, node: NodeId, cycle: &[u16], reps: usize) {
        let mut clock = 0;
        for _ in 0..reps {
            for &l in cycle {
                m.on_visit(node, lm(l), t(clock));
                clock += 100;
            }
        }
    }

    #[test]
    fn route_follows_learned_cycle() {
        let mut m = Pgr::new(1, 4);
        feed_cycle(&mut m, NodeId(0), &[0, 1, 2], 5);
        // Currently at l2 (cycle ends 0,1,2): next 0, then 1, 2, ...
        let route = m.predicted_route(NodeId(0));
        assert_eq!(route.len(), HORIZON);
        assert_eq!(route[0], lm(0));
        assert_eq!(route[1], lm(1));
        assert_eq!(route[2], lm(2));
    }

    #[test]
    fn earlier_on_route_scores_higher() {
        let mut m = Pgr::new(1, 4);
        feed_cycle(&mut m, NodeId(0), &[0, 1, 2], 5);
        let s0 = m.score(NodeId(0), lm(0), DAY, t(0));
        let s1 = m.score(NodeId(0), lm(1), DAY, t(0));
        let s3 = m.score(NodeId(0), lm(3), DAY, t(0));
        assert!(s0 > s1, "{s0} vs {s1}");
        assert_eq!(s3, 0.0);
    }

    #[test]
    fn unknown_node_scores_zero() {
        let mut m = Pgr::new(1, 2);
        assert_eq!(m.score(NodeId(0), lm(1), DAY, t(0)), 0.0);
        assert!(m.predicted_route(NodeId(0)).is_empty());
    }

    #[test]
    fn cache_invalidated_on_movement() {
        let mut m = Pgr::new(1, 4);
        feed_cycle(&mut m, NodeId(0), &[0, 1, 2], 5);
        let before = m.predicted_route(NodeId(0)).to_vec();
        m.on_visit(NodeId(0), lm(0), t(99_999));
        let after = m.predicted_route(NodeId(0));
        assert_ne!(before, after);
        assert_eq!(after[0], lm(1));
    }
}
