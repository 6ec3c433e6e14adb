//! PER (Predict and Relay) adapted to landmark destinations (paper §II-C,
//! §V-A.1).
//!
//! "In PER, a node's past mobility and sojourn among different landmarks
//! are summarized to … predict a node's probability to visit a landmark
//! before a certain deadline." We model each node as a time-homogeneous
//! semi-Markov process: an order-1 transition matrix over landmarks plus
//! the node's mean time per hop (sojourn + travel). The utility of a node
//! for a packet is the first-passage probability of reaching the packet's
//! destination landmark within its remaining TTL.
//!
//! Because this probability changes every time the node moves, PER
//! re-ranks carriers constantly — which is exactly why the paper measures
//! it with the highest forwarding cost (§V-A.2).

use crate::common::UtilityModel;
use dtnflow_core::dense::DenseMap;
use dtnflow_core::ids::{LandmarkId, NodeId};
use dtnflow_core::time::{SimDuration, SimTime};

/// Cap on the number of DP steps (hops) expanded per query.
pub const MAX_STEPS: usize = 24;

/// Per-node semi-Markov mobility summary.
struct NodeModel {
    /// Transit counts `from -> (to -> count)`.
    transitions: DenseMap<u16, DenseMap<u16, u32>>,
    /// `transitions` in the compact form the DP walks; rebuilt from the
    /// counts on the first query after a count changed.
    table: TransitionTable,
    table_stale: bool,
    current: Option<LandmarkId>,
    last_arrival: Option<SimTime>,
    /// Sum and count of observed hop times (arrival to next arrival).
    hop_time_sum: u64,
    hop_count: u64,
    /// Memoized first-passage curves: dst -> cumulative hit probability
    /// after `s+1` hops. Cleared whenever the node moves.
    cache: DenseMap<u16, Vec<f64>>,
    /// Reusable DP distributions (never observable: cleared before use).
    scratch_dist: Vec<f64>,
    scratch_next: Vec<f64>,
}

/// A node's transition counts as one compact table. Local indexes number
/// the landmarks that appear in any transition in ascending id order, so
/// a scan over local indexes meets landmarks in id order. Row `i` holds
/// the `(to, count)` entries of the `i`-th landmark in ascending `to`
/// order, with the row total precomputed.
#[derive(Default)]
struct TransitionTable {
    /// Local index per landmark id; `NONE` when the id is in no transition.
    local: Vec<u32>,
    /// Per local `from`: its `entries` range and the row total.
    rows: Vec<(u32, u32, f64)>,
    /// `(local to, count)`, row after row.
    entries: Vec<(u32, f64)>,
}

impl TransitionTable {
    const NONE: u32 = u32::MAX;

    fn rebuild(&mut self, transitions: &DenseMap<u16, DenseMap<u16, u32>>) {
        // Mark every landmark of a transition, then number the marks.
        self.local.clear();
        for (from, outs) in transitions.iter() {
            for id in std::iter::once(from).chain(outs.keys()) {
                let i = id as usize;
                if self.local.len() <= i {
                    self.local.resize(i + 1, Self::NONE);
                }
                self.local[i] = 0;
            }
        }
        let marked = self.local.iter_mut().filter(|s| **s != Self::NONE);
        for (n, slot) in marked.enumerate() {
            *slot = n as u32;
        }
        self.rows.clear();
        self.entries.clear();
        for (id, &slot) in self.local.iter().enumerate() {
            if slot == Self::NONE {
                continue;
            }
            let start = self.entries.len() as u32;
            let mut total = 0u32;
            if let Some(outs) = transitions.get(id as u16) {
                total = outs.values().sum();
                for (to, &cnt) in outs.iter() {
                    self.entries.push((self.local[to as usize], cnt as f64));
                }
            }
            self.rows
                .push((start, self.entries.len() as u32, total as f64));
        }
    }

    fn local_of(&self, lm: LandmarkId) -> Option<usize> {
        match self.local.get(lm.index()) {
            Some(&i) if i != Self::NONE => Some(i as usize),
            _ => None,
        }
    }
}

impl NodeModel {
    fn new() -> Self {
        NodeModel {
            transitions: DenseMap::new(),
            table: TransitionTable::default(),
            table_stale: false,
            current: None,
            last_arrival: None,
            hop_time_sum: 0,
            hop_count: 0,
            cache: DenseMap::new(),
            scratch_dist: Vec::new(),
            scratch_next: Vec::new(),
        }
    }

    fn mean_hop_secs(&self) -> f64 {
        if self.hop_count == 0 {
            return f64::INFINITY;
        }
        self.hop_time_sum as f64 / self.hop_count as f64
    }

    /// First-passage cumulative probabilities: entry `s` is the
    /// probability of having visited `dst` within `s+1` hops from the
    /// current landmark.
    fn first_passage(&mut self, dst: LandmarkId) -> &[f64] {
        if !self.cache.contains_key(dst.0) {
            let curve = self.compute_first_passage(dst);
            self.cache.insert(dst.0, curve);
        }
        &self.cache[dst.0]
    }

    fn compute_first_passage(&mut self, dst: LandmarkId) -> Vec<f64> {
        if self.table_stale {
            self.table.rebuild(&self.transitions);
            self.table_stale = false;
        }
        let table = &self.table;
        // A walk that starts outside every transition stalls at once, and
        // one that can never enter `dst` never absorbs: both curves stay 0.
        let start = self.current.and_then(|at| table.local_of(at));
        let (Some(start), Some(target)) = (start, table.local_of(dst)) else {
            return vec![0.0; MAX_STEPS];
        };
        // Flat distribution over local indexes, dst absorbing. Mass is
        // accumulated in floating point, so iteration order is observable
        // in the scores: ascending local indexes are ascending ids, the
        // order of the ordered maps this replaces (entries present in
        // those maps always carried positive mass, so skipping zero slots
        // preserves the sparsity).
        let side = table.rows.len();
        let mut dist = std::mem::take(&mut self.scratch_dist);
        let mut next = std::mem::take(&mut self.scratch_next);
        dist.clear();
        dist.resize(side, 0.0);
        next.clear();
        next.resize(side, 0.0);
        dist[start] = 1.0;
        let mut absorbed = 0.0;
        let mut curve = Vec::with_capacity(MAX_STEPS);
        for _ in 0..MAX_STEPS {
            next.fill(0.0);
            for (from, mass) in dist.iter().copied().enumerate() {
                if mass == 0.0 {
                    continue;
                }
                let (lo, hi, total) = table.rows[from];
                if total == 0.0 {
                    continue; // unknown outs: the walk stalls here
                }
                for &(to, cnt) in &table.entries[lo as usize..hi as usize] {
                    let m = mass * cnt / total;
                    if to as usize == target {
                        absorbed += m;
                    } else {
                        next[to as usize] += m;
                    }
                }
            }
            std::mem::swap(&mut dist, &mut next);
            curve.push(absorbed);
        }
        self.scratch_dist = dist;
        self.scratch_next = next;
        curve
    }
}

/// The PER utility model.
pub struct Per {
    nodes: Vec<NodeModel>,
}

impl Per {
    pub fn new(num_nodes: usize, _num_landmarks: usize) -> Self {
        Per {
            nodes: (0..num_nodes).map(|_| NodeModel::new()).collect(),
        }
    }

    /// Probability that `node` visits `dst` within `deadline` (diagnostic
    /// accessor; the router goes through [`UtilityModel::score`]).
    pub fn hit_probability(&mut self, node: NodeId, dst: LandmarkId, deadline: SimDuration) -> f64 {
        let m = &mut self.nodes[node.index()];
        let mean_hop = m.mean_hop_secs();
        if !mean_hop.is_finite() || mean_hop <= 0.0 {
            return 0.0;
        }
        let steps = (deadline.secs() as f64 / mean_hop).floor() as usize;
        if steps == 0 {
            return 0.0;
        }
        let curve = m.first_passage(dst);
        curve[steps.min(MAX_STEPS) - 1]
    }
}

impl UtilityModel for Per {
    fn name(&self) -> &'static str {
        "PER"
    }

    fn deadline_aware(&self) -> bool {
        true
    }

    fn on_visit(&mut self, node: NodeId, lm: LandmarkId, now: SimTime) {
        let m = &mut self.nodes[node.index()];
        if let (Some(prev), Some(since)) = (m.current, m.last_arrival) {
            if prev != lm {
                *m.transitions.get_or_default(prev.0).get_or_default(lm.0) += 1;
                m.table_stale = true;
                m.hop_time_sum += now.since(since).secs();
                m.hop_count += 1;
            }
        }
        if m.current != Some(lm) {
            m.cache.clear();
        }
        m.current = Some(lm);
        m.last_arrival = Some(now);
    }

    fn score(
        &mut self,
        node: NodeId,
        dst: LandmarkId,
        remaining: SimDuration,
        _now: SimTime,
    ) -> f64 {
        self.hit_probability(node, dst, remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_core::time::{DAY, HOUR};

    fn lm(i: u16) -> LandmarkId {
        LandmarkId(i)
    }

    fn feed_cycle(m: &mut Per, node: NodeId, cycle: &[u16], reps: usize, hop_secs: u64) {
        let mut t = 0;
        for _ in 0..reps {
            for &l in cycle {
                m.on_visit(node, lm(l), SimTime(t));
                t += hop_secs;
            }
        }
    }

    #[test]
    fn deterministic_cycle_hits_with_certainty_given_time() {
        let mut m = Per::new(1, 3);
        feed_cycle(&mut m, NodeId(0), &[0, 1, 2], 6, 3_600);
        // Currently at l2; within a day (24 hops of 1 h) it surely
        // revisits l0 and l1.
        assert!(m.hit_probability(NodeId(0), lm(0), DAY) > 0.99);
        assert!(m.hit_probability(NodeId(0), lm(1), DAY) > 0.99);
    }

    #[test]
    fn tight_deadline_lowers_probability() {
        let mut m = Per::new(1, 3);
        feed_cycle(&mut m, NodeId(0), &[0, 1, 2], 6, 3_600);
        // At l2, the next hop is l0, the one after l1: with only one
        // hop's worth of time, l1 is unreachable.
        let one_hop = HOUR.mul_f64(1.5);
        assert!(m.hit_probability(NodeId(0), lm(0), one_hop) > 0.99);
        assert!(m.hit_probability(NodeId(0), lm(1), one_hop) < 0.01);
    }

    #[test]
    fn probability_changes_when_node_moves() {
        let mut m = Per::new(1, 3);
        feed_cycle(&mut m, NodeId(0), &[0, 1, 2], 6, 3_600);
        let deadline = HOUR.mul_f64(1.5);
        let before = m.hit_probability(NodeId(0), lm(0), deadline);
        // Move to l0 on the usual cadence: now l1 is next, l0 behind.
        m.on_visit(NodeId(0), lm(0), SimTime(18 * 3_600));
        let after_l0 = m.hit_probability(NodeId(0), lm(1), deadline);
        let after_l0_back = m.hit_probability(NodeId(0), lm(0), deadline);
        assert!(before > 0.99);
        assert!(after_l0 > 0.99);
        assert!(after_l0_back < 0.5, "l0 is now behind: {after_l0_back}");
    }

    #[test]
    fn unknown_node_scores_zero() {
        let mut m = Per::new(1, 2);
        assert_eq!(m.hit_probability(NodeId(0), lm(1), DAY), 0.0);
        // One visit gives a current landmark but no hop statistics.
        m.on_visit(NodeId(0), lm(0), SimTime(0));
        assert_eq!(m.hit_probability(NodeId(0), lm(1), DAY), 0.0);
    }

    /// Today's reference: the first-passage DP straight over the nested
    /// count maps, every slot up to `lm_bound` scanned each step.
    fn reference_curve(
        transitions: &DenseMap<u16, DenseMap<u16, u32>>,
        lm_bound: usize,
        current: Option<LandmarkId>,
        dst: LandmarkId,
    ) -> Vec<f64> {
        let Some(at) = current else {
            return vec![0.0; MAX_STEPS];
        };
        let side = lm_bound.max(at.0 as usize + 1);
        let mut dist = vec![0.0; side];
        let mut next = vec![0.0; side];
        dist[at.0 as usize] = 1.0;
        let mut absorbed = 0.0;
        let mut curve = Vec::with_capacity(MAX_STEPS);
        for _ in 0..MAX_STEPS {
            for slot in next.iter_mut() {
                *slot = 0.0;
            }
            for (from, mass) in dist.iter().copied().enumerate() {
                if mass == 0.0 {
                    continue;
                }
                let Some(outs) = transitions.get(from as u16) else {
                    continue;
                };
                let total: u32 = outs.values().sum();
                if total == 0 {
                    continue;
                }
                for (to, &cnt) in outs.iter() {
                    let m = mass * cnt as f64 / total as f64;
                    if to == dst.0 {
                        absorbed += m;
                    } else {
                        next[to as usize] += m;
                    }
                }
            }
            std::mem::swap(&mut dist, &mut next);
            curve.push(absorbed);
        }
        curve
    }

    /// Feed `walk` to one node and, after every visit, compare the
    /// compact-table curve for every destination with the reference,
    /// bit for bit. The reference keeps its own counts and bound.
    fn assert_curves_match(walk: &[u16], landmarks: u16) {
        let mut m = Per::new(1, landmarks as usize);
        let mut counts: DenseMap<u16, DenseMap<u16, u32>> = DenseMap::new();
        let mut lm_bound = 0usize;
        let mut current: Option<LandmarkId> = None;
        for (i, &l) in walk.iter().enumerate() {
            m.on_visit(NodeId(0), lm(l), SimTime(i as u64 * 600));
            lm_bound = lm_bound.max(l as usize + 1);
            if let Some(prev) = current.filter(|&p| p != lm(l)) {
                *counts.get_or_default(prev.0).get_or_default(l) += 1;
            }
            current = Some(lm(l));
            for dst in 0..landmarks {
                let got = m.nodes[0].compute_first_passage(lm(dst));
                let want = reference_curve(&counts, lm_bound, current, lm(dst));
                let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "walk {walk:?} step {i} dst {dst}");
            }
        }
    }

    #[test]
    fn compact_table_follows_new_transitions_and_a_growing_bound() {
        // First visit at a high id (the bound grows, no transition yet);
        // then repeats (no transition), then transitions that add rows
        // and entries mid-walk, each invalidating the table.
        assert_curves_match(&[7, 7, 2, 2, 7, 0, 7, 2, 5, 0, 2, 7, 9], 10);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn compact_table_curves_equal_the_dense_map_dp(
            walk in proptest::collection::vec(0u16..12, 1..60),
        ) {
            assert_curves_match(&walk, 12);
        }
    }

    #[test]
    fn branching_walks_split_probability() {
        let mut m = Per::new(1, 3);
        // From l0 the node goes to l1 and l2 equally often; one hop of
        // time gives ~0.5 for either.
        let seq = [0u16, 1, 0, 2, 0, 1, 0, 2];
        let mut t = 0;
        for &l in &seq {
            m.on_visit(NodeId(0), lm(l), SimTime(t));
            t += 3_600;
        }
        // Currently at l2 -> returns to l0 w.p. 1; from l0 splits.
        let p1 = m.hit_probability(NodeId(0), lm(1), HOUR.mul(2));
        assert!((p1 - 0.5).abs() < 0.1, "p1 {p1}");
    }
}
