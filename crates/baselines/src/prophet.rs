//! PROPHET adapted to landmark destinations (paper §II-A, §V-A.1).
//!
//! "It simply employs the visiting records with landmarks to calculate the
//! future meeting probability to guide the packet forwarding." The
//! delivery predictability `P(n, L)` rises on every visit of node `n` to
//! landmark `L` and ages exponentially between visits, exactly like the
//! original PROPHET node-to-node predictability.

use crate::common::UtilityModel;
use dtnflow_core::ids::{LandmarkId, NodeId};
use dtnflow_core::time::{SimDuration, SimTime};

/// The PROPHET utility model.
pub struct Prophet {
    num_landmarks: usize,
    /// `(P, last update)` per (node, landmark).
    p: Vec<(f64, SimTime)>,
    /// Predictability boost per visit (the canonical `P_init` = 0.75).
    p_init: f64,
    /// Aging factor per aging unit (canonical γ = 0.98).
    gamma: f64,
    /// Length of one aging unit.
    aging_unit: SimDuration,
}

impl Prophet {
    pub fn new(num_nodes: usize, num_landmarks: usize) -> Self {
        Prophet {
            num_landmarks,
            p: vec![(0.0, SimTime::ZERO); num_nodes * num_landmarks],
            p_init: 0.75,
            gamma: 0.98,
            aging_unit: SimDuration::from_hours(1.0),
        }
    }

    fn slot(&self, node: NodeId, lm: LandmarkId) -> usize {
        node.index() * self.num_landmarks + lm.index()
    }

    /// Age `P` to `now` and return it.
    fn aged(&mut self, node: NodeId, lm: LandmarkId, now: SimTime) -> f64 {
        let slot = self.slot(node, lm);
        let (p, last) = self.p[slot];
        if p == 0.0 {
            return 0.0;
        }
        let units = now.since(last).secs() as f64 / self.aging_unit.secs() as f64;
        let aged = p * self.gamma.powf(units);
        self.p[slot] = (aged, now);
        aged
    }
}

impl UtilityModel for Prophet {
    fn name(&self) -> &'static str {
        "PROPHET"
    }

    fn on_visit(&mut self, node: NodeId, lm: LandmarkId, now: SimTime) {
        let aged = self.aged(node, lm, now);
        let slot = self.slot(node, lm);
        self.p[slot] = (aged + (1.0 - aged) * self.p_init, now);
    }

    fn score(&mut self, node: NodeId, dst: LandmarkId, _: SimDuration, now: SimTime) -> f64 {
        self.aged(node, dst, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_core::time::{DAY, HOUR};

    fn lm(i: u16) -> LandmarkId {
        LandmarkId(i)
    }

    #[test]
    fn visits_raise_predictability() {
        let mut m = Prophet::new(2, 2);
        let t0 = SimTime(0);
        m.on_visit(NodeId(0), lm(1), t0);
        let s = m.score(NodeId(0), lm(1), DAY, t0);
        assert!((s - 0.75).abs() < 1e-12);
        m.on_visit(NodeId(0), lm(1), t0);
        let s2 = m.score(NodeId(0), lm(1), DAY, t0);
        assert!((s2 - (0.75 + 0.25 * 0.75)).abs() < 1e-12);
        assert!(s2 < 1.0);
    }

    #[test]
    fn predictability_ages() {
        let mut m = Prophet::new(1, 1);
        m.on_visit(NodeId(0), lm(0), SimTime(0));
        let later = SimTime(0) + HOUR.mul(100);
        let s = m.score(NodeId(0), lm(0), DAY, later);
        assert!((s - 0.75 * 0.98f64.powi(100)).abs() < 1e-9);
    }

    #[test]
    fn frequent_visitor_outranks_rare_one() {
        let mut m = Prophet::new(2, 1);
        let mut t = SimTime(0);
        for _ in 0..5 {
            m.on_visit(NodeId(0), lm(0), t);
            t += HOUR;
        }
        m.on_visit(NodeId(1), lm(0), SimTime(0));
        let s0 = m.score(NodeId(0), lm(0), DAY, t);
        let s1 = m.score(NodeId(1), lm(0), DAY, t);
        assert!(s0 > s1, "s0 {s0} s1 {s1}");
    }

    #[test]
    fn repeated_scores_at_one_instant_leave_the_table_bit_identical() {
        // The group verdict asks once where a per-packet loop asks many
        // times at the same `now`; that is invisible only if a repeated
        // score ages by `γ^0 = 1` and writes back the same bits.
        let mut m = Prophet::new(3, 3);
        let mut t = SimTime(0);
        for (i, (n, l)) in [(0, 1), (1, 1), (0, 2), (2, 0), (0, 1), (1, 2)]
            .into_iter()
            .enumerate()
        {
            t += HOUR.mul(i as u64 + 1);
            m.on_visit(NodeId(n), lm(l), t);
        }
        let now = t + HOUR.mul(7);
        let bits = |m: &Prophet| {
            m.p.iter()
                .map(|&(p, last)| (p.to_bits(), last))
                .collect::<Vec<_>>()
        };
        let score_all = |m: &mut Prophet| {
            let mut out = Vec::new();
            for n in 0..3 {
                for l in 0..3 {
                    out.push(m.score(NodeId(n), lm(l), DAY, now).to_bits());
                }
            }
            out
        };
        let first = score_all(&mut m);
        let table = bits(&m);
        for _ in 0..3 {
            assert_eq!(score_all(&mut m), first);
            assert_eq!(bits(&m), table);
        }
    }

    #[test]
    fn unseen_pair_scores_zero() {
        let mut m = Prophet::new(1, 2);
        assert_eq!(m.score(NodeId(0), lm(1), DAY, SimTime(999)), 0.0);
    }
}
