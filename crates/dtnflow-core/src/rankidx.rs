//! Incrementally maintained carrier rank index.
//!
//! DTN-FLOW's carrier selection (§IV-D.3) hands a packet to the
//! connected node with the highest `accuracy × transit-probability`
//! toward the packet's target landmark. The straightforward
//! implementation rescans every connected node per packet; this index
//! keeps, per `(group, target)` — in the router, per (landmark,
//! destination landmark) — the candidate members already sorted by
//! descending score, so selection walks a pre-ranked list and stops at
//! the first eligible member.
//!
//! The index is maintained by its owner on membership events (a node
//! arriving at or leaving a landmark): [`RankIndex::insert`] files one
//! `(score, member)` entry per target, [`RankIndex::remove`] deletes
//! it by recomputing the identical key. Scores must therefore be
//! bit-reproducible between insert and remove — in the router they
//! are, because a node's predictor distribution and accuracy are
//! frozen while it sits at a landmark.
//!
//! Determinism: entries are ordered by `(score desc, member asc)`
//! under `f64::total_cmp`, a total order on bit patterns, so the walk
//! order is a pure function of the stored set — and ties go to the
//! lowest member id, matching the scan the index replaces.

use crate::dense::DenseMap;
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};
use std::cmp::Ordering;

/// One ranked candidate: `member` scores `score` toward the target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankEntry {
    /// The ranking key (higher is better).
    pub score: f64,
    /// The candidate's dense id.
    pub member: u32,
}

impl RankEntry {
    /// The sort order of the per-target lists: descending score
    /// (`total_cmp`, so reproducible on any bit pattern), ties to the
    /// lowest member id.
    #[inline]
    pub fn rank_cmp(&self, other: &RankEntry) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then(self.member.cmp(&other.member))
    }
}

/// A per-`(group, target)` rank index. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct RankIndex {
    /// One map per group, keyed by target id; each value is a
    /// non-empty list sorted by [`RankEntry::rank_cmp`].
    groups: Vec<DenseMap<u16, Vec<RankEntry>>>,
}

impl RankIndex {
    /// An index over `groups` groups (in the router: one per landmark).
    pub fn new(groups: usize) -> Self {
        let mut g = Vec::with_capacity(groups);
        g.resize_with(groups, DenseMap::new);
        RankIndex { groups: g }
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Total number of `(group, target, member)` entries.
    pub fn len(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// True when no entry is filed.
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(DenseMap::is_empty)
    }

    /// File `member` with `score` toward `target` in `group`.
    pub fn insert(&mut self, group: usize, target: u16, score: f64, member: u32) {
        let entry = RankEntry { score, member };
        let list = self.groups[group].get_or_insert_with(target, Vec::new);
        let pos = match list.binary_search_by(|e| e.rank_cmp(&entry)) {
            Ok(pos) | Err(pos) => pos,
        };
        list.insert(pos, entry);
    }

    /// Remove the entry previously filed with exactly this
    /// `(score, member)` key; returns whether it was present.
    pub fn remove(&mut self, group: usize, target: u16, score: f64, member: u32) -> bool {
        let entry = RankEntry { score, member };
        let Some(list) = self.groups[group].get_mut(target) else {
            return false;
        };
        let Ok(pos) = list.binary_search_by(|e| e.rank_cmp(&entry)) else {
            return false;
        };
        list.remove(pos);
        if list.is_empty() {
            // Keep absent-vs-empty unobservable (canonical codec).
            self.groups[group].remove(target);
        }
        true
    }

    /// Whether any entry is filed in `group`, toward any target. O(1):
    /// `remove` drops an emptied list, so a group's map is empty exactly
    /// when it holds no entry.
    pub fn has_any(&self, group: usize) -> bool {
        self.groups.get(group).is_some_and(|g| !g.is_empty())
    }

    /// The candidates toward `target` in `group`, best first; empty
    /// when none are filed.
    pub fn ranked(&self, group: usize, target: u16) -> &[RankEntry] {
        self.groups
            .get(group)
            .and_then(|g| g.get(target))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

impl Codec for RankEntry {
    fn encode(&self, w: &mut Writer) {
        self.score.encode(w);
        self.member.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(RankEntry {
            score: Codec::decode(r)?,
            member: Codec::decode(r)?,
        })
    }
}

/// Checkpoint encoding (DESIGN.md §11): the groups as a sequence, each
/// one a sequence of `(target, ranked list)` pairs in ascending target
/// order. Targets travel as `u16`, not as the `u64` index a
/// [`DenseMap`] writes. Canonical: lists are never empty (`remove`
/// drops an emptied target), and decode rejects unsorted targets,
/// unsorted entries and empty lists, so decoding then re-encoding is
/// byte-stable.
impl Codec for RankIndex {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(self.groups.len(), &self.groups, |w, g| {
            w.put_seq(g.len(), g.iter(), |w, (target, list)| {
                target.encode(w);
                list.encode(w);
            });
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        const CTX: &str = "RankIndex";
        let groups = r.seq(CTX, |r| {
            let lists: Vec<(u16, Vec<RankEntry>)> = Codec::decode(r)?;
            let mut group = DenseMap::new();
            let mut prev_target = None;
            for (target, list) in lists {
                let sorted = list
                    .windows(2)
                    .all(|p| p[0].rank_cmp(&p[1]) == Ordering::Less);
                if list.is_empty() || !sorted || prev_target.is_some_and(|p| target <= p) {
                    return Err(SnapshotError::Corrupt { context: CTX });
                }
                prev_target = Some(target);
                group.insert(target, list);
            }
            Ok(group)
        })?;
        Ok(RankIndex { groups })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn ranks_by_score_desc_then_member_asc() {
        let mut idx = RankIndex::new(2);
        idx.insert(0, 3, 0.5, 10);
        idx.insert(0, 3, 0.9, 20);
        idx.insert(0, 3, 0.5, 5);
        idx.insert(1, 3, 1.0, 99); // other group, invisible to group 0
        let got: Vec<(f64, u32)> = idx
            .ranked(0, 3)
            .iter()
            .map(|e| (e.score, e.member))
            .collect();
        assert_eq!(got, vec![(0.9, 20), (0.5, 5), (0.5, 10)]);
        assert!(idx.ranked(0, 4).is_empty());
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn remove_needs_the_exact_key() {
        let mut idx = RankIndex::new(1);
        idx.insert(0, 1, 0.25, 7);
        assert!(!idx.remove(0, 1, 0.26, 7));
        assert!(!idx.remove(0, 1, 0.25, 8));
        assert!(!idx.remove(0, 2, 0.25, 7));
        assert!(idx.remove(0, 1, 0.25, 7));
        assert!(!idx.remove(0, 1, 0.25, 7));
        assert!(idx.is_empty());
    }

    #[test]
    fn matches_full_rescan_under_random_churn() {
        // Mirror of the router's usage: members join a group with a
        // frozen score vector, leave by recomputing the same scores.
        let mut seed = 0xAB5E_0001u64;
        let mut idx = RankIndex::new(4);
        // member -> (group, Vec<(target, score)>)
        type Live = Vec<(u32, usize, Vec<(u16, f64)>)>;
        let mut live: Live = Vec::new();
        for step in 0..2_000u32 {
            if !lcg(&mut seed).is_multiple_of(3) || live.is_empty() {
                let member = step;
                let group = (lcg(&mut seed) % 4) as usize;
                let mut scores = Vec::new();
                for target in 0..6u16 {
                    if lcg(&mut seed).is_multiple_of(2) {
                        let score = (lcg(&mut seed) % 1_000) as f64 / 1_000.0;
                        scores.push((target, score));
                        idx.insert(group, target, score, member);
                    }
                }
                live.push((member, group, scores));
            } else {
                let pick = lcg(&mut seed) as usize % live.len();
                let (member, group, scores) = live.swap_remove(pick);
                for (target, score) in scores {
                    assert!(idx.remove(group, target, score, member));
                }
            }
            // Spot-check one (group, target) against a rescan.
            let group = (lcg(&mut seed) % 4) as usize;
            let target = (lcg(&mut seed) % 6) as u16;
            let mut expect: Vec<RankEntry> = live
                .iter()
                .filter(|(_, g, _)| *g == group)
                .flat_map(|(m, _, s)| {
                    s.iter()
                        .filter(|(t, _)| *t == target)
                        .map(|&(_, score)| RankEntry { score, member: *m })
                })
                .collect();
            expect.sort_by(RankEntry::rank_cmp);
            assert_eq!(idx.ranked(group, target), expect.as_slice());
        }
    }

    #[test]
    fn codec_roundtrips_byte_stably() {
        let mut idx = RankIndex::new(3);
        idx.insert(0, 2, 0.75, 4);
        idx.insert(0, 2, 0.75, 1);
        idx.insert(2, 0, 0.125, 9);
        idx.insert(0, 5, 1.0, 4);
        idx.insert(0, 5, 0.0, 11);
        idx.remove(0, 5, 0.0, 11);
        let mut w = Writer::new();
        idx.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = RankIndex::decode(&mut r).expect("decode");
        assert_eq!(back.groups(), 3);
        assert_eq!(back.ranked(0, 2), idx.ranked(0, 2));
        assert_eq!(back.ranked(2, 0), idx.ranked(2, 0));
        let mut w2 = Writer::new();
        back.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn codec_rejects_unsorted_and_empty_lists() {
        // Unsorted entries within a target list.
        let mut w = Writer::new();
        w.put_usize(1); // groups
        w.put_usize(1); // targets
        w.put_u16(0);
        w.put_usize(2);
        w.put_f64(0.1);
        w.put_u32(1);
        w.put_f64(0.9); // higher score after lower: out of order
        w.put_u32(2);
        let bytes = w.into_bytes();
        assert!(RankIndex::decode(&mut Reader::new(&bytes)).is_err());

        // An empty target list is non-canonical.
        let mut w = Writer::new();
        w.put_usize(1);
        w.put_usize(1);
        w.put_u16(0);
        w.put_usize(0);
        let bytes = w.into_bytes();
        assert!(RankIndex::decode(&mut Reader::new(&bytes)).is_err());
    }
}
