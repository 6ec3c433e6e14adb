//! Property equivalence: [`RankIndex`] vs the full rescan it replaced,
//! under arbitrary connect/disconnect/fold interleavings (DESIGN.md
//! §14). Mirrors the router's contract: a member joins a group filing
//! one frozen `(score, member)` key per target, leaves by recomputing
//! the same keys (scores are frozen during a stay), and a "fold"
//! re-files the member with fresh scores (remove-then-reinsert, the
//! arrive-side maintenance). After every step each ranked list must be
//! exactly the scan result: score descending, member ascending, and
//! `has_any` must say whether the scan finds any entry in the group.

use dtnflow_core::{RankEntry, RankIndex};
use proptest::prelude::*;
use std::collections::BTreeMap;

const GROUPS: usize = 3;
const TARGETS: u16 = 5;

#[derive(Debug, Clone)]
enum Op {
    /// A member connects at `group` with a score vector drawn from
    /// `seed` (one entry per target with a nonzero draw).
    Connect { group: usize, seed: u64 },
    /// A live member disconnects (picked by index modulo live count).
    Disconnect { pick: usize },
    /// A live member's prediction folds: remove + reinsert under a new
    /// score vector, as `rank_update(remove)`/`rank_update(insert)`
    /// around a predictor observation would.
    Fold { pick: usize, seed: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..GROUPS, any::<u64>()).prop_map(|(group, seed)| Op::Connect { group, seed }),
        1 => any::<usize>().prop_map(|pick| Op::Disconnect { pick }),
        1 => (any::<usize>(), any::<u64>()).prop_map(|(pick, seed)| Op::Fold { pick, seed }),
    ]
}

/// Deterministic score vector from a seed: scores on a 1/64 grid so
/// ties between members actually happen and exercise the member-asc
/// tie-break.
fn scores_from(seed: u64) -> Vec<(u16, f64)> {
    let mut s = seed | 1;
    let mut out = Vec::new();
    for target in 0..TARGETS {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let q = (s >> 33) % 64;
        if q != 0 {
            out.push((target, q as f64 / 64.0));
        }
    }
    out
}

/// Model state: member id -> (group, per-target scores).
type LiveMap = BTreeMap<u32, (usize, Vec<(u16, f64)>)>;

/// The scan the index replaced: collect every live member's score for
/// `(group, target)` and sort (score desc, member asc).
fn rescan(live: &LiveMap, group: usize, target: u16) -> Vec<RankEntry> {
    let mut out: Vec<RankEntry> = live
        .iter()
        .filter(|(_, (g, _))| *g == group)
        .flat_map(|(&member, (_, scores))| {
            scores
                .iter()
                .filter(|(t, _)| *t == target)
                .map(move |&(_, score)| RankEntry { score, member })
        })
        .collect();
    out.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.member.cmp(&b.member))
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn rank_index_matches_full_rescan(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        let mut idx = RankIndex::new(GROUPS);
        let mut live: LiveMap = BTreeMap::new();
        let mut next_member = 0u32;
        for op in ops {
            match op {
                Op::Connect { group, seed } => {
                    let member = next_member;
                    next_member += 1;
                    let scores = scores_from(seed);
                    for &(target, score) in &scores {
                        idx.insert(group, target, score, member);
                    }
                    live.insert(member, (group, scores));
                }
                Op::Disconnect { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let &member = live.keys().nth(pick % live.len()).unwrap();
                    let (group, scores) = live.remove(&member).unwrap();
                    for (target, score) in scores {
                        prop_assert!(idx.remove(group, target, score, member));
                    }
                }
                Op::Fold { pick, seed } => {
                    if live.is_empty() {
                        continue;
                    }
                    let &member = live.keys().nth(pick % live.len()).unwrap();
                    let (group, old) = live.get(&member).cloned().unwrap();
                    for (target, score) in old {
                        prop_assert!(idx.remove(group, target, score, member));
                    }
                    let fresh = scores_from(seed);
                    for &(target, score) in &fresh {
                        idx.insert(group, target, score, member);
                    }
                    live.insert(member, (group, fresh));
                }
            }
            for group in 0..GROUPS {
                let mut any = false;
                for target in 0..TARGETS {
                    let scan = rescan(&live, group, target);
                    any |= !scan.is_empty();
                    prop_assert_eq!(
                        idx.ranked(group, target),
                        &scan[..],
                        "group {} target {}", group, target
                    );
                }
                prop_assert_eq!(idx.has_any(group), any, "group {}", group);
            }
        }
        let total: usize = live.values().map(|(_, s)| s.len()).sum();
        prop_assert_eq!(idx.len(), total);
    }
}
