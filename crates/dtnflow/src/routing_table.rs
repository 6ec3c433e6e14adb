//! The per-landmark distance-vector routing table (paper §IV-C.2,
//! Tables IV/V, Fig. 7).
//!
//! Each landmark stores the most recent distance vector received from each
//! neighbour (stamped with the sender's time-unit sequence; older vectors
//! are discarded) and computes, for every destination, the next-hop
//! neighbour minimizing `link_delay(me→n) + D_n(dest)`. A *backup* next
//! hop — the second-best distinct neighbour — supports the §IV-E.3 load
//! balancing extension (Table V) and is maintained by the same
//! computation at no extra communication cost.

use dtnflow_core::dense::DenseMap;
use dtnflow_core::ids::LandmarkId;
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

/// One routing-table row (Table V layout: destination, next hop, overall
/// delay, backup next hop, backup delay).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteEntry {
    pub next: Option<LandmarkId>,
    pub delay: f64,
    pub backup: Option<LandmarkId>,
    pub backup_delay: f64,
}

impl RouteEntry {
    const UNREACHABLE: RouteEntry = RouteEntry {
        next: None,
        delay: f64::INFINITY,
        backup: None,
        backup_delay: f64::INFINITY,
    };
}

/// A distance vector as received from a neighbour.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredVector {
    /// The sender's time-unit sequence when the vector was snapshot.
    pub seq: u64,
    /// Expected delay from the sender to each destination, seconds
    /// (`INFINITY` = sender cannot reach it).
    pub delays: Vec<f64>,
}

/// One landmark's routing table.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    me: LandmarkId,
    num: usize,
    vectors: DenseMap<LandmarkId, StoredVector>,
    entries: Vec<RouteEntry>,
    /// Bumped whenever the stored vectors change (accepted receive,
    /// claim injection, distrust, stale decay) — lets observers tell
    /// "table content changed" apart from "recompute over same inputs".
    revision: u64,
    /// Bumped on every [`RoutingTable::recompute`] — the entries (what
    /// [`RoutingTable::entry`] serves) can only change when this does,
    /// so it is the validity stamp for the router's next-hop route
    /// cache (DESIGN.md §14). Distinct from `revision`: stored vectors
    /// can change without a recompute, and a recompute can rerun over
    /// changed link delays without any vector change.
    computed: u64,
}

impl RoutingTable {
    /// Empty table for landmark `me` in a network of `num` landmarks.
    pub fn new(me: LandmarkId, num: usize) -> Self {
        assert!(me.index() < num);
        let mut entries = vec![RouteEntry::UNREACHABLE; num];
        entries[me.index()] = RouteEntry {
            next: None,
            delay: 0.0,
            backup: None,
            backup_delay: 0.0,
        };
        RoutingTable {
            me,
            num,
            vectors: DenseMap::with_index_capacity(num),
            entries,
            revision: 0,
            computed: 0,
        }
    }

    /// The landmark owning this table.
    pub fn me(&self) -> LandmarkId {
        self.me
    }

    /// The network size the table was built for (number of destinations).
    pub fn size(&self) -> usize {
        self.num
    }

    /// How many times the stored vectors have changed (observability).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// How many times the entries have been recomputed — the validity
    /// stamp for memoized next-hop decisions.
    pub fn computed(&self) -> u64 {
        self.computed
    }

    /// Store a vector received from `from` unless an equally-new or newer
    /// one is already stored. Returns whether it was accepted. The caller
    /// must recompute afterwards.
    pub fn receive(&mut self, from: LandmarkId, vector: StoredVector) -> bool {
        assert_eq!(vector.delays.len(), self.num, "vector length mismatch");
        assert!(from != self.me, "cannot receive own vector");
        match self.vectors.get(from) {
            Some(old) if old.seq >= vector.seq => false,
            _ => {
                self.vectors.insert(from, vector);
                self.revision += 1;
                true
            }
        }
    }

    /// Overwrite the stored vector entry for one destination. Two users:
    /// the §IV-E.2 loop-correction exchange installs members' fresh delay
    /// claims out-of-band, and the Table VII experiment injects falsified
    /// claims to create loops.
    pub fn set_claim(&mut self, from: LandmarkId, dest: LandmarkId, delay: f64, seq: u64) {
        let num = self.num;
        let v = self.vectors.get_or_insert_with(from, || StoredVector {
            seq,
            delays: vec![f64::INFINITY; num],
        });
        v.seq = v.seq.max(seq);
        v.delays[dest.index()] = delay;
        self.revision += 1;
    }

    /// Drop the stored entries for `dest` that came from the given
    /// landmarks (§IV-E.2 loop correction: distrust the loop members'
    /// claims about this destination until fresh vectors arrive).
    pub fn distrust(&mut self, dest: LandmarkId, members: &[LandmarkId]) {
        let mut touched = false;
        for m in members {
            if let Some(v) = self.vectors.get_mut(*m) {
                v.delays[dest.index()] = f64::INFINITY;
                touched = true;
            }
        }
        if touched {
            self.revision += 1;
        }
    }

    /// Age out stale neighbour vectors (graceful degradation under
    /// faults): every stored vector whose sequence lags `current_seq` by
    /// more than `max_age` units has each finite, non-zero delay claim
    /// multiplied by `factor`. Called once per time unit, the penalty
    /// compounds per unit of excess staleness, so routes learned before
    /// an outage look progressively worse until a fresh vector
    /// ([`RoutingTable::receive`]) replaces the decayed one wholesale.
    /// Returns how many vectors were decayed; the caller must recompute
    /// when it is non-zero.
    pub fn decay_stale(&mut self, current_seq: u64, max_age: u64, factor: f64) -> usize {
        assert!(factor >= 1.0, "decay factor must be at least 1");
        let mut decayed = 0;
        for v in self.vectors.values_mut() {
            if current_seq.saturating_sub(v.seq) <= max_age {
                continue;
            }
            let mut touched = false;
            for d in v.delays.iter_mut() {
                if d.is_finite() && *d > 0.0 {
                    *d *= factor;
                    touched = true;
                }
            }
            if touched {
                decayed += 1;
            }
        }
        if decayed > 0 {
            self.revision += 1;
        }
        decayed
    }

    /// Recompute every entry from the stored vectors, given the current
    /// per-neighbour link delays (`INFINITY` = not a neighbour). Neighbours
    /// without a stored vector still provide their direct link (a vector
    /// in which only they are reachable, at delay 0).
    pub fn recompute(&mut self, link_delay: &dyn Fn(LandmarkId) -> f64) {
        // Neighbour-outer, destination-inner: the link delay is evaluated
        // once per neighbour (n calls, not n²) and each neighbour's stored
        // vector is scanned contiguously. Per destination the candidate
        // neighbours still arrive in ascending id order — the same update
        // sequence as the destination-outer form — so best/backup choices
        // and tie-breaks are unchanged.
        let me = self.me.index();
        for (dest, e) in self.entries.iter_mut().enumerate() {
            if dest != me {
                *e = RouteEntry::UNREACHABLE;
            }
        }
        for n in 0..self.num {
            if n == me {
                continue;
            }
            let nlm = LandmarkId::from(n);
            let ld = link_delay(nlm);
            if !ld.is_finite() {
                continue;
            }
            let stored = self.vectors.get(nlm);
            for dest in 0..self.num {
                if dest == me {
                    continue;
                }
                let via = match stored {
                    Some(v) => v.delays[dest],
                    // No vector yet: only the neighbour itself is known.
                    None if n == dest => 0.0,
                    None => f64::INFINITY,
                };
                let total = ld + via;
                if !total.is_finite() {
                    continue;
                }
                let best = &mut self.entries[dest];
                if total < best.delay {
                    best.backup = best.next;
                    best.backup_delay = best.delay;
                    best.next = Some(nlm);
                    best.delay = total;
                } else if total < best.backup_delay && best.next != Some(nlm) {
                    best.backup = Some(nlm);
                    best.backup_delay = total;
                }
            }
        }
        self.computed += 1;
    }

    /// The routing entry for a destination.
    pub fn entry(&self, dest: LandmarkId) -> &RouteEntry {
        &self.entries[dest.index()]
    }

    /// Expected delay to a destination (0 for self, `INFINITY` when
    /// unreachable).
    pub fn delay_to(&self, dest: LandmarkId) -> f64 {
        self.entries[dest.index()].delay
    }

    /// The next-hop landmark toward a destination.
    pub fn next_hop(&self, dest: LandmarkId) -> Option<LandmarkId> {
        self.entries[dest.index()].next
    }

    /// This landmark's own distance vector: expected delay to every
    /// destination (self = 0).
    pub fn snapshot(&self) -> Vec<f64> {
        self.entries.iter().map(|e| e.delay).collect()
    }

    /// Fraction of other landmarks with a usable route — the Fig. 8
    /// coverage metric.
    pub fn coverage(&self) -> f64 {
        if self.num <= 1 {
            return 1.0;
        }
        let covered = self
            .entries
            .iter()
            .enumerate()
            .filter(|&(d, e)| d != self.me.index() && e.delay.is_finite())
            .count();
        covered as f64 / (self.num - 1) as f64
    }

    /// The next-hop column, for the Fig. 8 stability metric.
    pub fn next_hops(&self) -> Vec<Option<LandmarkId>> {
        self.entries.iter().map(|e| e.next).collect()
    }

    /// Rows with a usable route, for display (Table X): destination,
    /// next hop, delay in seconds.
    pub fn rows(&self) -> Vec<(LandmarkId, LandmarkId, f64)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(d, e)| {
                let next = e.next?;
                (d != self.me.index()).then_some((LandmarkId::from(d), next, e.delay))
            })
            .collect()
    }

    /// Number of finite-delay entries (maintenance-cost accounting).
    pub fn table_size(&self) -> usize {
        self.entries.iter().filter(|e| e.delay.is_finite()).count()
    }
}

impl Codec for RouteEntry {
    fn encode(&self, w: &mut Writer) {
        self.next.encode(w);
        self.delay.encode(w);
        self.backup.encode(w);
        self.backup_delay.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(RouteEntry {
            next: Codec::decode(r)?,
            delay: Codec::decode(r)?,
            backup: Codec::decode(r)?,
            backup_delay: Codec::decode(r)?,
        })
    }
}

impl Codec for StoredVector {
    fn encode(&self, w: &mut Writer) {
        self.seq.encode(w);
        self.delays.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(StoredVector {
            seq: Codec::decode(r)?,
            delays: Codec::decode(r)?,
        })
    }
}

/// Checkpoint encoding (DESIGN.md §11): stored vectors, computed
/// entries AND the revision counter are all serialized verbatim —
/// entries are *not* recomputed on restore (recompute needs the live
/// link-delay closure, and the revision counter feeds the Fig. 8
/// observer, so both must survive exactly). Decode rejects vectors and
/// entry lists whose length is not the table's landmark count.
impl Codec for RoutingTable {
    fn encode(&self, w: &mut Writer) {
        self.me.encode(w);
        self.num.encode(w);
        self.vectors.encode(w);
        self.entries.encode(w);
        self.revision.encode(w);
        self.computed.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<RoutingTable, SnapshotError> {
        let rt = RoutingTable {
            me: Codec::decode(r)?,
            num: Codec::decode(r)?,
            vectors: Codec::decode(r)?,
            entries: Codec::decode(r)?,
            revision: Codec::decode(r)?,
            computed: Codec::decode(r)?,
        };
        if rt.me.index() >= rt.num
            || rt.entries.len() != rt.num
            || rt.vectors.values().any(|v| v.delays.len() != rt.num)
        {
            return Err(SnapshotError::Corrupt {
                context: "RoutingTable",
            });
        }
        Ok(rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lm(i: u16) -> LandmarkId {
        LandmarkId(i)
    }

    fn vector(num: usize, pairs: &[(u16, f64)], seq: u64) -> StoredVector {
        let mut delays = vec![f64::INFINITY; num];
        for &(d, v) in pairs {
            delays[d as usize] = v;
        }
        StoredVector { seq, delays }
    }

    /// The paper's Fig. 7 worked example, recast to our recompute
    /// semantics. Landmark `me` has neighbours 1 (link 8), 7 (link 6) and
    /// 6 (link 7); after receiving l6's vector the final entries must be
    /// (1,1,8), (3,6,17), (4,6,18), (7,7,6), (9,7,34).
    #[test]
    fn fig7_worked_example() {
        let num = 10;
        let me = lm(0);
        let mut rt = RoutingTable::new(me, num);
        let link = |l: LandmarkId| -> f64 {
            match l.0 {
                1 => 8.0,
                7 => 6.0,
                6 => 7.0,
                _ => f64::INFINITY,
            }
        };
        // Initial state: vectors from 1 and 7 giving the original entries
        // (1,1,8), (4,7,20), (7,7,6), (9,7,34).
        assert!(rt.receive(lm(1), vector(num, &[(1, 0.0)], 1)));
        assert!(rt.receive(lm(7), vector(num, &[(7, 0.0), (4, 14.0), (9, 28.0)], 1)));
        rt.recompute(&link);
        assert_eq!(
            rt.entry(lm(1)),
            &RouteEntry {
                next: Some(lm(1)),
                delay: 8.0,
                backup: None,
                backup_delay: f64::INFINITY
            }
        );
        assert_eq!(rt.next_hop(lm(4)), Some(lm(7)));
        assert!((rt.delay_to(lm(4)) - 20.0).abs() < 1e-12);
        assert!((rt.delay_to(lm(7)) - 6.0).abs() < 1e-12);
        assert!((rt.delay_to(lm(9)) - 34.0).abs() < 1e-12);
        assert!(rt.delay_to(lm(3)).is_infinite());

        // l6's vector arrives: (3,10), (9,30), (4,11), (6,0).
        assert!(rt.receive(
            lm(6),
            vector(num, &[(6, 0.0), (3, 10.0), (9, 30.0), (4, 11.0)], 1)
        ));
        rt.recompute(&link);
        // New destination l3 inserted via l6.
        assert_eq!(rt.next_hop(lm(3)), Some(lm(6)));
        assert!((rt.delay_to(lm(3)) - 17.0).abs() < 1e-12);
        // l9 via l6 would be 37 > 34: unchanged.
        assert_eq!(rt.next_hop(lm(9)), Some(lm(7)));
        assert!((rt.delay_to(lm(9)) - 34.0).abs() < 1e-12);
        // l4 via l6 is 18 < 20: updated.
        assert_eq!(rt.next_hop(lm(4)), Some(lm(6)));
        assert!((rt.delay_to(lm(4)) - 18.0).abs() < 1e-12);
        // l1 and l7 unchanged.
        assert!((rt.delay_to(lm(1)) - 8.0).abs() < 1e-12);
        assert_eq!(rt.next_hop(lm(7)), Some(lm(7)));
    }

    #[test]
    fn backup_next_hop_is_second_best_distinct() {
        let num = 4;
        let mut rt = RoutingTable::new(lm(0), num);
        let link = |l: LandmarkId| -> f64 {
            match l.0 {
                1 => 1.0,
                2 => 2.0,
                _ => f64::INFINITY,
            }
        };
        rt.receive(lm(1), vector(num, &[(1, 0.0), (3, 5.0)], 1));
        rt.receive(lm(2), vector(num, &[(2, 0.0), (3, 5.0)], 1));
        rt.recompute(&link);
        let e = rt.entry(lm(3));
        assert_eq!(e.next, Some(lm(1)));
        assert!((e.delay - 6.0).abs() < 1e-12);
        assert_eq!(e.backup, Some(lm(2)));
        assert!((e.backup_delay - 7.0).abs() < 1e-12);
    }

    #[test]
    fn stale_vectors_are_rejected() {
        let num = 3;
        let mut rt = RoutingTable::new(lm(0), num);
        assert!(rt.receive(lm(1), vector(num, &[(1, 0.0), (2, 9.0)], 5)));
        assert!(!rt.receive(lm(1), vector(num, &[(1, 0.0), (2, 1.0)], 5)));
        assert!(!rt.receive(lm(1), vector(num, &[(1, 0.0), (2, 1.0)], 4)));
        assert!(rt.receive(lm(1), vector(num, &[(1, 0.0), (2, 1.0)], 6)));
    }

    #[test]
    fn neighbor_without_vector_is_directly_reachable() {
        let num = 3;
        let mut rt = RoutingTable::new(lm(0), num);
        let link = |l: LandmarkId| if l.0 == 1 { 4.0 } else { f64::INFINITY };
        rt.recompute(&link);
        assert_eq!(rt.next_hop(lm(1)), Some(lm(1)));
        assert!((rt.delay_to(lm(1)) - 4.0).abs() < 1e-12);
        assert!(rt.delay_to(lm(2)).is_infinite());
        assert!((rt.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn link_delay_changes_propagate_on_recompute() {
        let num = 3;
        let mut rt = RoutingTable::new(lm(0), num);
        rt.receive(lm(1), vector(num, &[(1, 0.0), (2, 10.0)], 1));
        rt.receive(lm(2), vector(num, &[(2, 0.0)], 1));
        rt.recompute(&|l| match l.0 {
            1 => 1.0,
            2 => 20.0,
            _ => f64::INFINITY,
        });
        assert_eq!(rt.next_hop(lm(2)), Some(lm(1))); // 11 < 20
        rt.recompute(&|l| match l.0 {
            1 => 1.0,
            2 => 5.0,
            _ => f64::INFINITY,
        });
        assert_eq!(rt.next_hop(lm(2)), Some(lm(2))); // 5 < 11
    }

    #[test]
    fn distrust_breaks_a_claimed_route() {
        let num = 3;
        let mut rt = RoutingTable::new(lm(0), num);
        rt.receive(lm(1), vector(num, &[(1, 0.0), (2, 3.0)], 1));
        let link = |l: LandmarkId| if l.0 == 1 { 1.0 } else { f64::INFINITY };
        rt.recompute(&link);
        assert!((rt.delay_to(lm(2)) - 4.0).abs() < 1e-12);
        rt.distrust(lm(2), &[lm(1)]);
        rt.recompute(&link);
        assert!(rt.delay_to(lm(2)).is_infinite());
        // l1 itself is still reachable.
        assert!((rt.delay_to(lm(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_claim_injects_bogus_claims() {
        let num = 3;
        let mut rt = RoutingTable::new(lm(0), num);
        rt.set_claim(lm(1), lm(2), 0.5, 7);
        let link = |l: LandmarkId| if l.0 == 1 { 1.0 } else { f64::INFINITY };
        rt.recompute(&link);
        assert_eq!(rt.next_hop(lm(2)), Some(lm(1)));
        assert!((rt.delay_to(lm(2)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_and_rows_reflect_entries() {
        let num = 3;
        let mut rt = RoutingTable::new(lm(0), num);
        rt.receive(lm(1), vector(num, &[(1, 0.0), (2, 2.0)], 1));
        rt.recompute(&|l| if l.0 == 1 { 1.0 } else { f64::INFINITY });
        let snap = rt.snapshot();
        assert_eq!(snap[0], 0.0);
        assert!((snap[1] - 1.0).abs() < 1e-12);
        assert!((snap[2] - 3.0).abs() < 1e-12);
        let rows = rt.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rt.table_size(), 3);
    }

    #[test]
    fn decay_stale_penalizes_old_vectors_until_refreshed() {
        let num = 3;
        let mut rt = RoutingTable::new(lm(0), num);
        let link = |l: LandmarkId| if l.0 == 1 { 1.0 } else { f64::INFINITY };
        rt.receive(lm(1), vector(num, &[(1, 0.0), (2, 10.0)], 0));
        rt.recompute(&link);
        assert!((rt.delay_to(lm(2)) - 11.0).abs() < 1e-12);

        // Within max_age: untouched.
        assert_eq!(rt.decay_stale(2, 2, 2.0), 0);
        rt.recompute(&link);
        assert!((rt.delay_to(lm(2)) - 11.0).abs() < 1e-12);

        // Past max_age: the claim doubles per call; the neighbour's own
        // 0-delay entry and infinite entries are untouched.
        assert_eq!(rt.decay_stale(3, 2, 2.0), 1);
        rt.recompute(&link);
        assert!((rt.delay_to(lm(2)) - 21.0).abs() < 1e-12);
        assert_eq!(rt.decay_stale(4, 2, 2.0), 1);
        rt.recompute(&link);
        assert!((rt.delay_to(lm(2)) - 41.0).abs() < 1e-12);
        assert!((rt.delay_to(lm(1)) - 1.0).abs() < 1e-12);

        // A fresh vector replaces the decayed claims wholesale.
        assert!(rt.receive(lm(1), vector(num, &[(1, 0.0), (2, 10.0)], 4)));
        rt.recompute(&link);
        assert!((rt.delay_to(lm(2)) - 11.0).abs() < 1e-12);
        assert_eq!(rt.decay_stale(5, 2, 2.0), 0);
    }

    #[test]
    #[should_panic(expected = "own vector")]
    fn rejects_vector_from_self() {
        let mut rt = RoutingTable::new(lm(0), 2);
        rt.receive(lm(0), vector(2, &[(0, 0.0)], 1));
    }
}
