//! Equivalence properties: the dense hot-path containers must be
//! observationally identical to the ordered-tree containers they
//! replaced. For any sequence of operations, `DenseMap` behaves like
//! `BTreeMap`, `DenseSet` like `BTreeSet`, and `LinkMatrix` like a
//! `BTreeMap<(u16, u16), f64>` — same lookups, same lengths, and the
//! same ascending iteration order (which is what keeps float
//! accumulations and CSV goldens byte-stable across the swap). A
//! `DenseSet` also writes the checkpoint bytes of its members as a
//! plain ascending sequence, whatever its internal layout.

use dtnflow_core::dense::{DenseMap, DenseSet, LinkMatrix};
use dtnflow_snapshot::{Codec, Reader, Writer};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One step of a map workload, generated over a small key space so that
/// inserts, overwrites, removes, and misses all occur frequently.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(u16, u64),
    Remove(u16),
    Get(u16),
    Clear,
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (0u16..64, any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
            3 => (0u16..64).prop_map(MapOp::Remove),
            3 => (0u16..64).prop_map(MapOp::Get),
            1 => Just(MapOp::Clear),
        ],
        0..120,
    )
}

/// One step of a set workload. The sets the simulator keeps are
/// queues: they receive ids above their maximum and lose their minimum
/// most often, so ops name the two ends and the range between them as
/// well as fixed keys. Range-relative ops carry a raw draw that is
/// resolved against the set's current `[min, max]` when the op runs.
#[derive(Debug, Clone, Copy)]
enum SetOp {
    /// Insert a key above the maximum.
    Append(u32),
    /// Insert, remove or look up a fixed key from a small space.
    Insert(u32),
    Remove(u32),
    Contains(u32),
    /// Insert or remove a key inside `[min, max]`.
    InsertInside(u32),
    RemoveInside(u32),
    /// Insert a key below the minimum (into the dead prefix, if any).
    InsertBelow(u32),
    RemoveMin,
    RemoveMax,
    /// Remove a key below the minimum or above the maximum (misses).
    MissBelow(u32),
    MissAbove(u32),
    /// Keep only the members not divisible by the value.
    Retain(u32),
    Clear,
}

fn set_ops() -> impl Strategy<Value = Vec<SetOp>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (0u32..4).prop_map(SetOp::Append),
            2 => (0u32..96).prop_map(SetOp::Insert),
            2 => (0u32..96).prop_map(SetOp::Remove),
            1 => (0u32..96).prop_map(SetOp::Contains),
            2 => any::<u32>().prop_map(SetOp::InsertInside),
            3 => any::<u32>().prop_map(SetOp::RemoveInside),
            1 => any::<u32>().prop_map(SetOp::InsertBelow),
            5 => Just(SetOp::RemoveMin),
            2 => Just(SetOp::RemoveMax),
            1 => any::<u32>().prop_map(SetOp::MissBelow),
            1 => any::<u32>().prop_map(SetOp::MissAbove),
            1 => (2u32..5).prop_map(SetOp::Retain),
            1 => Just(SetOp::Clear),
        ],
        0..160,
    )
}

proptest! {
    #[test]
    fn dense_map_equals_btree_map(ops in map_ops()) {
        let mut dense: DenseMap<u16, u64> = DenseMap::new();
        let mut tree: std::collections::BTreeMap<u16, u64> = std::collections::BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(dense.insert(k, v), tree.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(dense.remove(k), tree.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(dense.get(k), tree.get(&k));
                    prop_assert_eq!(dense.contains_key(k), tree.contains_key(&k));
                }
                MapOp::Clear => {
                    dense.clear();
                    tree.clear();
                }
            }
            prop_assert_eq!(dense.len(), tree.len());
            prop_assert_eq!(dense.is_empty(), tree.is_empty());
        }
        // Iteration order and contents match exactly (ascending keys).
        let dense_items: Vec<(u16, u64)> = dense.iter().map(|(k, &v)| (k, v)).collect();
        let tree_items: Vec<(u16, u64)> = tree.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(dense_items, tree_items);
        let dense_keys: Vec<u16> = dense.keys().collect();
        let tree_keys: Vec<u16> = tree.keys().copied().collect();
        prop_assert_eq!(dense_keys, tree_keys);
        let dense_vals: Vec<u64> = dense.values().copied().collect();
        let tree_vals: Vec<u64> = tree.values().copied().collect();
        prop_assert_eq!(dense_vals, tree_vals);
    }

    #[test]
    fn dense_set_equals_btree_set(ops in set_ops()) {
        let mut dense: DenseSet<u32> = DenseSet::new();
        let mut tree: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            let (min, max) = (tree.first().copied(), tree.last().copied());
            // Keys resolved against the current range: `inside` lies in
            // `[min, max]`, `below` under `min` whenever there is room.
            // An empty set takes a key from the fixed-key space.
            let inside = |x: u32| min.zip(max).map_or(x % 96, |(lo, hi)| lo + x % (hi - lo + 1));
            let below = |x: u32| min.map_or(x % 96, |lo| x % lo.max(1));
            let above = |x: u32| max.map_or(x % 96, |hi| hi + 1 + x % 8);
            let k = match op {
                SetOp::Append(gap) => above(gap),
                SetOp::Insert(k) | SetOp::Remove(k) | SetOp::Contains(k) => k,
                SetOp::InsertInside(x) | SetOp::RemoveInside(x) => inside(x),
                SetOp::InsertBelow(x) | SetOp::MissBelow(x) => below(x),
                SetOp::MissAbove(x) => above(x),
                SetOp::RemoveMin => min.unwrap_or(0),
                SetOp::RemoveMax => max.unwrap_or(0),
                SetOp::Retain(m) => m,
                SetOp::Clear => 0,
            };
            match op {
                SetOp::Append(_)
                | SetOp::Insert(_)
                | SetOp::InsertInside(_)
                | SetOp::InsertBelow(_) => {
                    prop_assert_eq!(dense.insert(k), tree.insert(k), "insert {}", k);
                }
                SetOp::Remove(_)
                | SetOp::RemoveInside(_)
                | SetOp::RemoveMin
                | SetOp::RemoveMax
                | SetOp::MissBelow(_)
                | SetOp::MissAbove(_) => {
                    prop_assert_eq!(dense.remove(k), tree.remove(&k), "remove {}", k);
                }
                SetOp::Contains(_) => {}
                SetOp::Retain(m) => {
                    dense.retain(|x| x % m != 0);
                    tree.retain(|&x| x % m != 0);
                }
                SetOp::Clear => {
                    dense.clear();
                    tree.clear();
                }
            }
            let items: Vec<u32> = tree.iter().copied().collect();
            prop_assert_eq!(dense.iter().collect::<Vec<u32>>(), items.clone());
            prop_assert_eq!(dense.as_slice(), items.as_slice());
            prop_assert_eq!(dense.len(), tree.len());
            prop_assert_eq!(dense.is_empty(), tree.is_empty());
            // The op's key and every key up to just past the maximum,
            // including the ones front removals left in the dead prefix.
            let top = tree.last().map_or(0, |&hi| hi + 2);
            for probe in (0..=top).chain([k]) {
                prop_assert_eq!(dense.contains(probe), tree.contains(&probe), "contains {}", probe);
            }
            // The wire form is the members as a u64 count and ascending
            // u64s, and it survives decode → encode.
            let mut want = Writer::new();
            want.put_u64(tree.len() as u64);
            for &m in &tree {
                want.put_u64(u64::from(m));
            }
            let mut got = Writer::new();
            dense.encode(&mut got);
            prop_assert_eq!(got.as_bytes(), want.as_bytes());
            let mut r = Reader::new(got.as_bytes());
            let back = DenseSet::<u32>::decode(&mut r);
            prop_assert!(back.is_ok() && r.remaining() == 0);
            let back = back.unwrap();
            let mut again = Writer::new();
            back.encode(&mut again);
            prop_assert_eq!(again.as_bytes(), want.as_bytes());
            prop_assert!(back == dense);
        }
    }

    #[test]
    fn link_matrix_equals_btree_pair_map(ops in proptest::collection::vec(
        (0u16..24, 0u16..24, -1e6f64..1e6), 0..120,
    )) {
        let mut dense = LinkMatrix::new();
        let mut tree: std::collections::BTreeMap<(u16, u16), f64> =
            std::collections::BTreeMap::new();
        for (from, to, value) in ops {
            dense.set(from, to, value);
            tree.insert((from, to), value);
            prop_assert_eq!(dense.get(from, to), Some(value));
        }
        // Every set cell reads back; every unset cell reads absent.
        for from in 0..24u16 {
            for to in 0..24u16 {
                prop_assert_eq!(dense.get(from, to), tree.get(&(from, to)).copied());
            }
        }
        // Ascending (from, to) iteration, skipping absent cells, matches
        // the ordered pair-map exactly.
        let dense_items: Vec<(u16, u16, f64)> = dense.iter().collect();
        let tree_items: Vec<(u16, u16, f64)> =
            tree.iter().map(|(&(f, t), &v)| (f, t, v)).collect();
        prop_assert_eq!(dense_items, tree_items);
    }
}
