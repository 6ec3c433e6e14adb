//! The order-k Markov transit predictor (paper Eq. 1–3).
//!
//! A node's transit history is a landmark sequence `L = l(1) l(2) … l(n)`
//! (consecutive duplicates collapsed — a repeat is a continued stay, not a
//! transit). The order-k predictor estimates
//!
//! ```text
//! P(next = c | history) = N(s ⊕ c) / N(s)          (Eq. 1–3)
//! ```
//!
//! where `s` is the most recent k-landmark context, `N(x)` counts
//! occurrences of the subsequence `x` in the history, and `⊕` is
//! concatenation. The prediction is the `c` maximizing this probability.

use dtnflow_core::ids::LandmarkId;
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};
use std::collections::BTreeMap;

/// Maximum supported order: contexts are packed into a `u64` key with 16
/// bits per landmark.
pub const MAX_ORDER: usize = 4;

/// Per-context statistics: total occurrences and per-successor counts.
#[derive(Debug, Clone, Default)]
struct CtxStats {
    total: u32,
    next: BTreeMap<u16, u32>,
}

/// Flat `n×n` transition counts for the order-1 fast path: row = context
/// landmark, column = successor, both addressed by id. Grows on demand
/// when a larger landmark id is observed.
#[derive(Debug, Clone, Default)]
struct FlatCounts {
    n: usize,
    /// Transition counts, cell `ctx * n + next`.
    counts: Vec<u32>,
    /// Row sums (`N(s)` of Eq. 2), one per context landmark.
    totals: Vec<u32>,
}

impl FlatCounts {
    fn with_landmarks(n: usize) -> Self {
        FlatCounts {
            n,
            counts: vec![0; n * n],
            totals: vec![0; n],
        }
    }

    fn grow(&mut self, n: usize) {
        if n <= self.n {
            return;
        }
        let mut counts = vec![0u32; n * n];
        for ctx in 0..self.n {
            let (old, new) = (ctx * self.n, ctx * n);
            counts[new..new + self.n].copy_from_slice(&self.counts[old..old + self.n]);
        }
        self.counts = counts;
        self.totals.resize(n, 0);
        self.n = n;
    }

    fn bump(&mut self, ctx: LandmarkId, next: LandmarkId) {
        let need = ctx.index().max(next.index()) + 1;
        if need > self.n {
            self.grow(need);
        }
        self.totals[ctx.index()] += 1;
        self.counts[ctx.index() * self.n + next.index()] += 1;
    }

    fn total(&self, ctx: LandmarkId) -> u32 {
        if ctx.index() >= self.n {
            return 0;
        }
        self.totals[ctx.index()]
    }

    fn count(&self, ctx: LandmarkId, next: LandmarkId) -> u32 {
        if ctx.index() >= self.n || next.index() >= self.n {
            return 0;
        }
        self.counts[ctx.index() * self.n + next.index()]
    }

    /// The successor-count row for `ctx`, empty when unseen.
    fn row(&self, ctx: LandmarkId) -> &[u32] {
        if ctx.index() >= self.n {
            return &[];
        }
        &self.counts[ctx.index() * self.n..(ctx.index() + 1) * self.n]
    }
}

/// Context-count storage: a flat count matrix when `k == 1` (by far the
/// hottest configuration — `probability` sits inside the router's carrier
/// selection loop), the packed-context tree for higher orders.
#[derive(Debug, Clone)]
enum Counts {
    Flat(FlatCounts),
    Map(BTreeMap<u64, CtxStats>),
}

/// An online order-k Markov predictor over landmark visits.
#[derive(Debug, Clone)]
pub struct MarkovPredictor {
    k: usize,
    /// The last up-to-k observed landmarks, oldest first.
    recent: Vec<LandmarkId>,
    counts: Counts,
    observations: usize,
}

/// Pack a context of up to [`MAX_ORDER`] landmarks into a map key.
/// Landmark ids are offset by one so an empty slot (0) is distinguishable.
fn pack(ctx: &[LandmarkId]) -> u64 {
    debug_assert!(ctx.len() <= MAX_ORDER);
    let mut key = 0u64;
    for lm in ctx {
        key = (key << 16) | (lm.0 as u64 + 1);
    }
    key
}

impl MarkovPredictor {
    /// Create an order-k predictor. `k` must be in `1..=MAX_ORDER`.
    pub fn new(k: usize) -> Self {
        Self::with_landmarks(k, 0)
    }

    /// Create an order-k predictor in a network of `num_landmarks`
    /// landmarks. For `k == 1` this pre-sizes the flat count matrix so
    /// no grow/re-layout ever happens during a run; ids at or beyond
    /// `num_landmarks` still work (the matrix grows on demand).
    pub fn with_landmarks(k: usize, num_landmarks: usize) -> Self {
        assert!(
            (1..=MAX_ORDER).contains(&k),
            "order must be in 1..={MAX_ORDER}"
        );
        let counts = if k == 1 {
            Counts::Flat(FlatCounts::with_landmarks(num_landmarks))
        } else {
            Counts::Map(BTreeMap::new())
        };
        MarkovPredictor {
            k,
            recent: Vec::with_capacity(k),
            counts,
            observations: 0,
        }
    }

    /// The predictor's order.
    pub fn order(&self) -> usize {
        self.k
    }

    /// Number of landmark observations fed so far (after dedup).
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Feed the next visited landmark. A repeat of the current landmark is
    /// ignored (it is a continued stay, not a transit).
    pub fn observe(&mut self, lm: LandmarkId) {
        if self.recent.last() == Some(&lm) {
            return;
        }
        if self.recent.len() == self.k {
            match &mut self.counts {
                Counts::Flat(flat) => flat.bump(self.recent[0], lm),
                Counts::Map(map) => {
                    let stats = map.entry(pack(&self.recent)).or_default();
                    stats.total += 1;
                    *stats.next.entry(lm.0).or_insert(0) += 1;
                }
            }
        }
        self.recent.push(lm);
        if self.recent.len() > self.k {
            self.recent.remove(0);
        }
        self.observations += 1;
    }

    /// The current context (last k landmarks, oldest first), if complete.
    pub fn context(&self) -> Option<&[LandmarkId]> {
        (self.recent.len() == self.k).then_some(self.recent.as_slice())
    }

    /// The landmark the node is currently at (the most recent observation).
    pub fn current(&self) -> Option<LandmarkId> {
        self.recent.last().copied()
    }

    /// Probability that the next transit goes to `next`, given the current
    /// context (Eq. 1). Zero when the context is incomplete or unseen.
    pub fn probability(&self, next: LandmarkId) -> f64 {
        let Some(ctx) = self.context() else {
            return 0.0;
        };
        self.probability_from(ctx, next)
    }

    /// `P(next | ctx)` for an explicit context.
    pub fn probability_from(&self, ctx: &[LandmarkId], next: LandmarkId) -> f64 {
        assert_eq!(ctx.len(), self.k, "context must have length k");
        match &self.counts {
            Counts::Flat(flat) => {
                let total = flat.total(ctx[0]);
                if total == 0 {
                    return 0.0;
                }
                flat.count(ctx[0], next) as f64 / total as f64
            }
            Counts::Map(map) => match map.get(&pack(ctx)) {
                Some(stats) if stats.total > 0 => {
                    *stats.next.get(&next.0).unwrap_or(&0) as f64 / stats.total as f64
                }
                _ => 0.0,
            },
        }
    }

    /// The most likely next landmark with its probability, from the
    /// current context. `None` if the context is incomplete or was never
    /// seen before (the "missed k-hop pattern" case of §IV-B.2).
    pub fn predict(&self) -> Option<(LandmarkId, f64)> {
        self.context().and_then(|ctx| self.predict_from(ctx))
    }

    /// The most likely successor of an explicit context. Ties break toward
    /// the lowest landmark id for determinism.
    pub fn predict_from(&self, ctx: &[LandmarkId]) -> Option<(LandmarkId, f64)> {
        assert_eq!(ctx.len(), self.k, "context must have length k");
        match &self.counts {
            Counts::Flat(flat) => {
                let total = flat.total(ctx[0]);
                if total == 0 {
                    return None;
                }
                // Ascending-id scan with a strict `>` keeps the first
                // (lowest-id) maximum: the same tie-break the ordered-map
                // `max_by` implemented.
                let mut best = (0usize, 0u32);
                for (j, &c) in flat.row(ctx[0]).iter().enumerate() {
                    if c > best.1 {
                        best = (j, c);
                    }
                }
                (best.1 > 0).then(|| (LandmarkId::from(best.0), best.1 as f64 / total as f64))
            }
            Counts::Map(map) => {
                let stats = map.get(&pack(ctx))?;
                if stats.total == 0 {
                    return None;
                }
                let (&lm, &cnt) = stats
                    .next
                    .iter()
                    .max_by(|(la, ca), (lb, cb)| ca.cmp(cb).then(lb.cmp(la)))?;
                Some((LandmarkId(lm), cnt as f64 / stats.total as f64))
            }
        }
    }

    /// The full successor distribution of the current context, descending
    /// by probability. Empty when nothing is known.
    pub fn distribution(&self) -> Vec<(LandmarkId, f64)> {
        let mut out = Vec::new();
        self.distribution_into(&mut out);
        out
    }

    /// [`MarkovPredictor::distribution`] into a caller-owned buffer, so
    /// per-contact callers (the router's packet assignment) can reuse one
    /// allocation. The buffer is cleared first.
    pub fn distribution_into(&self, out: &mut Vec<(LandmarkId, f64)>) {
        out.clear();
        let Some(ctx) = self.context() else {
            return;
        };
        match &self.counts {
            Counts::Flat(flat) => {
                let total = flat.total(ctx[0]);
                if total == 0 {
                    return;
                }
                for (j, &c) in flat.row(ctx[0]).iter().enumerate() {
                    if c > 0 {
                        out.push((LandmarkId::from(j), c as f64 / total as f64));
                    }
                }
            }
            Counts::Map(map) => {
                let Some(stats) = map.get(&pack(ctx)) else {
                    return;
                };
                out.extend(
                    stats
                        .next
                        .iter()
                        .map(|(&lm, &c)| (LandmarkId(lm), c as f64 / stats.total as f64)),
                );
            }
        }
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    }
}

impl Codec for CtxStats {
    fn encode(&self, w: &mut Writer) {
        self.total.encode(w);
        self.next.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(CtxStats {
            total: Codec::decode(r)?,
            next: Codec::decode(r)?,
        })
    }
}

/// A 0 tag, the side length, then the flat counts and totals with no
/// count; or a 1 tag and the order ≥ 2 context map.
impl Codec for Counts {
    fn encode(&self, w: &mut Writer) {
        match self {
            Counts::Flat(flat) => {
                w.put_u8(0);
                flat.n.encode(w);
                for c in flat.counts.iter().chain(&flat.totals) {
                    c.encode(w);
                }
            }
            Counts::Map(map) => {
                w.put_u8(1);
                map.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        const CTX: &str = "MarkovPredictor.counts";
        match r.u8(CTX)? {
            0 => {
                let n: usize = Codec::decode(r)?;
                let cells = n
                    .checked_mul(n)
                    .ok_or(SnapshotError::Corrupt { context: CTX })?;
                Ok(Counts::Flat(FlatCounts {
                    n,
                    counts: r.items(cells, u32::decode)?,
                    totals: r.items(n, u32::decode)?,
                }))
            }
            1 => Codec::decode(r).map(Counts::Map),
            tag => Err(SnapshotError::InvalidTag {
                context: CTX,
                tag: tag.into(),
            }),
        }
    }
}

/// Checkpoint encoding (DESIGN.md §11): order, recent context, the
/// count store and the observation counter.
impl Codec for MarkovPredictor {
    fn encode(&self, w: &mut Writer) {
        self.k.encode(w);
        self.recent.encode(w);
        self.counts.encode(w);
        self.observations.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<MarkovPredictor, SnapshotError> {
        let p = MarkovPredictor {
            k: Codec::decode(r)?,
            recent: Codec::decode(r)?,
            counts: Codec::decode(r)?,
            observations: Codec::decode(r)?,
        };
        if !(1..=MAX_ORDER).contains(&p.k) || p.recent.len() > p.k {
            return Err(SnapshotError::Corrupt {
                context: "MarkovPredictor",
            });
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lm(i: u16) -> LandmarkId {
        LandmarkId(i)
    }

    fn feed(p: &mut MarkovPredictor, seq: &[u16]) {
        for &s in seq {
            p.observe(lm(s));
        }
    }

    /// The paper's worked example (§IV-B.1): history
    /// l1 l2 l3 l2 l1 l2 with an order-1 predictor, currently at l2:
    /// P(l1)=2/5? The paper computes over 5 two-landmark windows:
    /// l1l2, l2l3, l3l2, l2l1, l1l2 -> from l2: l3 once, l1 once of 2.
    #[test]
    fn order1_matches_paper_example_structure() {
        let mut p = MarkovPredictor::new(1);
        feed(&mut p, &[1, 2, 3, 2, 1, 2]);
        // Contexts seen from l2: successors l3 (once) and l1 (once).
        assert!((p.probability_from(&[lm(2)], lm(3)) - 0.5).abs() < 1e-12);
        assert!((p.probability_from(&[lm(2)], lm(1)) - 0.5).abs() < 1e-12);
        assert_eq!(p.probability_from(&[lm(2)], lm(4)), 0.0);
        // From l1 the only successor ever seen is l2.
        assert!((p.probability_from(&[lm(1)], lm(2)) - 1.0).abs() < 1e-12);
        // Tie at l2 breaks to the lowest id.
        assert_eq!(p.predict().unwrap().0, lm(1));
    }

    #[test]
    fn duplicates_are_collapsed() {
        let mut p = MarkovPredictor::new(1);
        feed(&mut p, &[1, 1, 2, 2, 2, 3]);
        assert_eq!(p.observations(), 3);
        assert!((p.probability_from(&[lm(1)], lm(2)) - 1.0).abs() < 1e-12);
        assert!((p.probability_from(&[lm(2)], lm(3)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn order2_uses_two_landmark_context() {
        let mut p = MarkovPredictor::new(2);
        // After (1,2) the node goes to 3; after (4,2) it goes to 5.
        feed(&mut p, &[1, 2, 3, 4, 2, 5, 1, 2, 3, 4, 2, 5, 1, 2]);
        assert_eq!(p.predict_from(&[lm(1), lm(2)]).unwrap().0, lm(3));
        assert_eq!(p.predict_from(&[lm(4), lm(2)]).unwrap().0, lm(5));
        // An order-1 predictor cannot separate the two contexts.
        let mut q = MarkovPredictor::new(1);
        feed(&mut q, &[1, 2, 3, 4, 2, 5, 1, 2, 3, 4, 2, 5, 1, 2]);
        let (_, prob) = q.predict_from(&[lm(2)]).unwrap();
        assert!(prob < 0.6);
    }

    #[test]
    fn unseen_context_yields_none() {
        let mut p = MarkovPredictor::new(1);
        feed(&mut p, &[1, 2]);
        assert!(p.predict_from(&[lm(9)]).is_none());
        // Current context is l2, which has no successor yet.
        assert!(p.predict().is_none());
    }

    #[test]
    fn incomplete_context_yields_none() {
        let p = MarkovPredictor::new(2);
        assert!(p.predict().is_none());
        assert_eq!(p.probability(lm(1)), 0.0);
        let mut p = MarkovPredictor::new(2);
        p.observe(lm(1));
        assert!(p.context().is_none());
        assert_eq!(p.current(), Some(lm(1)));
    }

    #[test]
    fn distribution_sums_to_one_and_sorts() {
        let mut p = MarkovPredictor::new(1);
        feed(&mut p, &[2, 1, 2, 1, 2, 3, 2, 1, 2]);
        // From l2: successors 1 (x3), 3 (x1).
        let d = p.distribution();
        assert_eq!(d[0].0, lm(1));
        let total: f64 = d.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((d[0].1 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn distribution_breaks_ties_by_landmark_id() {
        // Equal-probability successors order by id: the sort is total
        // (f64::total_cmp) and deterministic, never panicking on edge
        // float values the way `partial_cmp(..).unwrap()` would on NaN.
        let mut p = MarkovPredictor::new(1);
        feed(&mut p, &[1, 7, 1, 3, 1, 5, 1]);
        let d = p.distribution();
        assert_eq!(
            d.iter().map(|&(lm, _)| lm.0).collect::<Vec<_>>(),
            vec![3, 5, 7]
        );
        assert!(d.iter().all(|&(_, pr)| (pr - 1.0 / 3.0).abs() < 1e-12));
    }

    #[test]
    fn probabilities_update_online() {
        let mut p = MarkovPredictor::new(1);
        feed(&mut p, &[1, 2, 1, 2]);
        assert!((p.probability_from(&[lm(1)], lm(2)) - 1.0).abs() < 1e-12);
        feed(&mut p, &[3]); // now 2 -> 3 observed once
        assert!((p.probability_from(&[lm(2)], lm(1)) - 0.5).abs() < 1e-12);
        assert!((p.probability_from(&[lm(2)], lm(3)) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "order must be")]
    fn rejects_order_zero() {
        MarkovPredictor::new(0);
    }

    #[test]
    #[should_panic(expected = "order must be")]
    fn rejects_order_beyond_max() {
        MarkovPredictor::new(MAX_ORDER + 1);
    }

    #[test]
    fn pack_distinguishes_contexts() {
        assert_ne!(pack(&[lm(0)]), pack(&[lm(1)]));
        assert_ne!(pack(&[lm(0), lm(1)]), pack(&[lm(1), lm(0)]));
        assert_ne!(pack(&[lm(0)]), pack(&[lm(0), lm(0)]));
    }
}
