//! Dense-index containers for the hot paths.
//!
//! The simulator's keys are small dense integers ([`LandmarkId`] is a
//! `u16` index, [`NodeId`]/[`PacketId`] are `u32` indexes), so ordered
//! maps over them do not need a tree: a `Vec` slot per id gives O(1)
//! access and — because slots are laid out in id order — iteration that
//! is deterministic *by construction*, with no per-node heap allocation
//! and no pointer chasing. These containers exist to replace the
//! `BTreeMap`/`BTreeSet` hot-path storage while preserving its one
//! observable property: iteration in ascending key order.
//!
//! * [`DenseMap<K, V>`] — `Vec<Option<V>>` indexed by `K::index()`.
//! * [`DenseSet<K>`] — a sorted `Vec<K>` with a dead prefix, so that
//!   appends and removals at either end cost O(1); interior membership
//!   by binary search, iteration in id order, contiguous in memory.
//! * [`LinkMatrix`] — a flat `n×n` `Vec<f64>` keyed `from * n + to`,
//!   for per-directed-link tables (EWMA bandwidth, Eq. 4).

use crate::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};
use std::marker::PhantomData;

/// A key that is (or wraps) a small dense integer index.
pub trait DenseKey: Copy + Ord {
    /// Largest index the key type can represent (checkpoint decoding
    /// rejects anything bigger before calling [`DenseKey::from_index`]).
    const MAX_INDEX: usize;
    /// The key's dense index.
    fn index(self) -> usize;
    /// Rebuild the key from its index (inverse of [`DenseKey::index`]).
    fn from_index(i: usize) -> Self;
}

impl DenseKey for LandmarkId {
    const MAX_INDEX: usize = u16::MAX as usize;
    #[inline]
    fn index(self) -> usize {
        LandmarkId::index(self)
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        LandmarkId::from(i)
    }
}

impl DenseKey for NodeId {
    const MAX_INDEX: usize = u32::MAX as usize;
    #[inline]
    fn index(self) -> usize {
        NodeId::index(self)
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        NodeId::from(i)
    }
}

impl DenseKey for PacketId {
    const MAX_INDEX: usize = u32::MAX as usize;
    #[inline]
    fn index(self) -> usize {
        PacketId::index(self)
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        PacketId::from(i)
    }
}

impl DenseKey for u16 {
    const MAX_INDEX: usize = u16::MAX as usize;
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        LandmarkId::from(i).0
    }
}

impl DenseKey for u32 {
    const MAX_INDEX: usize = u32::MAX as usize;
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        NodeId::from(i).0
    }
}

impl DenseKey for usize {
    const MAX_INDEX: usize = usize::MAX;
    #[inline]
    fn index(self) -> usize {
        self
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        i
    }
}

/// A map from a dense-integer key to `V`, backed by one slot per id.
///
/// Replaces `BTreeMap<K, V>` on hot paths: `get`/`insert`/`remove` are
/// O(1) slot accesses, and iteration walks the slots in ascending id
/// order — the same observable order a `BTreeMap` gives. Removing keeps
/// the slot allocated, so churny maps stop allocating once warm.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMap<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        DenseMap {
            slots: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }
}

impl<K: DenseKey, V> DenseMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map with slots pre-allocated for ids `0..n`.
    pub fn with_index_capacity(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        DenseMap {
            slots,
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `v` at `k`, returning the previous value if any.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        let i = k.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value at `k`, if present.
    #[inline]
    pub fn get(&self, k: K) -> Option<&V> {
        self.slots.get(k.index()).and_then(Option::as_ref)
    }

    /// Mutable access to the value at `k`, if present.
    #[inline]
    pub fn get_mut(&mut self, k: K) -> Option<&mut V> {
        self.slots.get_mut(k.index()).and_then(Option::as_mut)
    }

    /// Whether `k` has a value.
    #[inline]
    pub fn contains_key(&self, k: K) -> bool {
        self.get(k).is_some()
    }

    /// Remove and return the value at `k`. The slot stays allocated.
    pub fn remove(&mut self, k: K) -> Option<V> {
        let old = self.slots.get_mut(k.index()).and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The value at `k`, inserting `make()` first when absent.
    pub fn get_or_insert_with(&mut self, k: K, make: impl FnOnce() -> V) -> &mut V {
        let i = k.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let slot = &mut self.slots[i];
        if slot.is_none() {
            *slot = Some(make());
            self.len += 1;
        }
        // The slot was just filled when it was empty; this borrow can
        // only be of a present value.
        match slot.as_mut() {
            Some(v) => v,
            // detlint: allow(P1, reason = "the arm above just filled this exact slot; the None branch is unreachable by construction")
            None => unreachable!("slot filled above"),
        }
    }

    /// Remove every entry. Slot storage is kept for reuse.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (K::from_index(i), v)))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }
}

/// Read one `u64` dense index as a key: `Corrupt` unless it is below
/// `dim` and within `K`'s range.
fn decode_key<K: DenseKey>(
    r: &mut Reader<'_>,
    dim: usize,
    context: &'static str,
) -> Result<K, SnapshotError> {
    let i = r.usize(context)?;
    if i >= dim || i > K::MAX_INDEX {
        return Err(SnapshotError::Corrupt { context });
    }
    Ok(K::from_index(i))
}

/// Checkpoint encoding (DESIGN.md §11): the present entries as a
/// sequence of `(u64 index, value)` pairs in ascending key order.
/// Canonical — slot capacity (trailing empty slots) is not observable
/// and is not preserved.
impl<K: DenseKey, V: Codec> Codec for DenseMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        let present = self.slots.iter().enumerate();
        let present = present.filter_map(|(i, s)| Some((i, s.as_ref()?)));
        w.put_seq(self.len, present, |w, (i, v)| {
            w.put_usize(i);
            v.encode(w);
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Self::decode_below(r, usize::MAX)
    }
}

impl<K: DenseKey, V: Codec> DenseMap<K, V> {
    /// [`Codec::decode`] for a map whose keys must lie below `dim`, a
    /// dimension the restoring caller knows. Keys are checked before any
    /// slot is allocated, so a corrupt key cannot size the slot vector;
    /// out-of-order keys are rejected so decoding then re-encoding is
    /// byte-stable.
    pub fn decode_below(r: &mut Reader<'_>, dim: usize) -> Result<Self, SnapshotError> {
        const CTX: &str = "DenseMap";
        let entries = r.seq(CTX, |r| Ok((decode_key::<K>(r, dim, CTX)?, V::decode(r)?)))?;
        if entries.windows(2).any(|p| p[1].0 <= p[0].0) {
            return Err(SnapshotError::Corrupt { context: CTX });
        }
        let len = entries.len();
        let mut slots = Vec::new();
        slots.resize_with(entries.last().map_or(0, |(k, _)| k.index() + 1), || None);
        for (k, v) in entries {
            slots[k.index()] = Some(v);
        }
        Ok(DenseMap {
            slots,
            len,
            _key: PhantomData,
        })
    }
}

impl<K: DenseKey, V: Default> DenseMap<K, V> {
    /// The value at `k`, inserting `V::default()` first when absent.
    pub fn get_or_default(&mut self, k: K) -> &mut V {
        self.get_or_insert_with(k, V::default)
    }
}

impl<K: DenseKey, V> std::ops::Index<K> for DenseMap<K, V> {
    type Output = V;

    /// Panics when `k` has no entry, like `BTreeMap`'s `Index`.
    fn index(&self, k: K) -> &V {
        match self.get(k) {
            Some(v) => v,
            // detlint: allow(P1, reason = "Index is documented to panic on absent keys, matching BTreeMap's Index contract")
            None => panic!("no entry for key index {}", k.index()),
        }
    }
}

/// A set of dense-integer keys as a sorted `Vec` whose two ends cost
/// O(1).
///
/// Replaces `BTreeSet<K>` on hot paths. The members are `buf[head..]`
/// in ascending order; `buf[..head]` is a dead prefix that removals at
/// the front leave behind. The sets here are packet queues: ids are
/// minted in generation order, so stores and buckets mostly receive
/// ids above their last member, and forwarding in minimum-remaining-TTL
/// order drains them mostly from the front. Neither end searches:
///
/// * `insert` above the last member is a `push`, and below the first
///   member it reuses the dead prefix when there is one;
/// * `remove` of the first member advances `head`, of the last member
///   is a `pop`, and of a key outside `[first, last]` misses at once.
///
/// Only interior keys binary-search the live slice, and an interior
/// insert or remove shifts the shorter side of its slot: the front side
/// moves into or out of the dead prefix. The prefix is dropped once it
/// reaches the live length, so the buffer holds at most twice the
/// members plus `Vec` slack. Iteration is a contiguous ascending scan,
/// the same observable order a `BTreeSet` gives. `clear` keeps the
/// allocation, so reused buckets stop allocating.
#[derive(Debug, Clone)]
pub struct DenseSet<K> {
    buf: Vec<K>,
    /// Start of the members; never above their count.
    head: usize,
}

impl<K> Default for DenseSet<K> {
    fn default() -> Self {
        DenseSet {
            buf: Vec::new(),
            head: 0,
        }
    }
}

/// Sets are equal when their members are; the dead prefix is not
/// observable.
impl<K: PartialEq> PartialEq for DenseSet<K> {
    fn eq(&self, other: &Self) -> bool {
        self.buf[self.head..] == other.buf[other.head..]
    }
}

impl<K: Eq> Eq for DenseSet<K> {}

impl<K: DenseKey> DenseSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Add `k`; returns whether it was newly inserted.
    pub fn insert(&mut self, k: K) -> bool {
        let live = self.as_slice();
        let pos = match (live.first(), live.last()) {
            (_, None) => 0,
            (_, Some(&last)) if k > last => live.len(),
            (Some(&first), _) if k < first => 0,
            _ => match live.binary_search(&k) {
                Ok(_) => return false,
                Err(pos) => pos,
            },
        };
        let (len, head) = (live.len(), self.head);
        if pos == len {
            self.buf.push(k);
        } else if head > 0 && pos < len - pos {
            // The front side is shorter: move it down into the dead prefix.
            self.buf.copy_within(head..head + pos, head - 1);
            self.buf[head - 1 + pos] = k;
            self.head -= 1;
        } else {
            self.buf.insert(head + pos, k);
        }
        true
    }

    /// Remove `k`; returns whether it was present.
    pub fn remove(&mut self, k: K) -> bool {
        let live = self.as_slice();
        let (Some(&first), Some(&last)) = (live.first(), live.last()) else {
            return false;
        };
        if k == first {
            self.head += 1;
        } else if k == last {
            self.buf.pop();
        } else if k < first || k > last {
            return false;
        } else {
            let Ok(pos) = live.binary_search(&k) else {
                return false;
            };
            let (len, head) = (live.len(), self.head);
            if pos < len - 1 - pos {
                // The front side is shorter: move it up over the slot.
                self.buf.copy_within(head..head + pos, head + 1);
                self.head += 1;
            } else {
                self.buf.remove(head + pos);
            }
        }
        if self.head >= self.len() {
            // The dead prefix reached the live length: drop it.
            self.buf.drain(..self.head);
            self.head = 0;
        }
        true
    }

    /// Whether `k` is a member.
    pub fn contains(&self, k: K) -> bool {
        self.as_slice().binary_search(&k).is_ok()
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.as_slice().iter().copied()
    }

    /// Keep only members satisfying `keep`, preserving order. Linear: the
    /// dead prefix is dropped, then one pass filters the members —
    /// cheaper than collecting victims and removing them one by one,
    /// which re-shifts per removal.
    pub fn retain(&mut self, mut keep: impl FnMut(K) -> bool) {
        self.buf.drain(..self.head);
        self.head = 0;
        self.buf.retain(|&k| keep(k));
    }

    /// The members as an ascending slice.
    pub fn as_slice(&self) -> &[K] {
        &self.buf[self.head..]
    }

    /// Remove all members, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

/// Checkpoint encoding: the members as a sequence of ascending `u64`
/// indexes (the dead prefix is not written). Decode rejects unsorted or
/// duplicate members so re-encoding is byte-stable.
impl<K: DenseKey> Codec for DenseSet<K> {
    fn encode(&self, w: &mut Writer) {
        let live = &self.buf[self.head..];
        w.put_seq(live.len(), live, |w, k| w.put_usize(k.index()));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        const CTX: &str = "DenseSet";
        let buf: Vec<K> = r.seq(CTX, |r| decode_key(r, usize::MAX, CTX))?;
        if buf.windows(2).any(|p| p[1] <= p[0]) {
            return Err(SnapshotError::Corrupt { context: CTX });
        }
        Ok(DenseSet { buf, head: 0 })
    }
}

/// A flat `n×n` table of `f64` values over directed landmark links,
/// stored row-major as `from * n + to`.
///
/// Cells are `NaN` until written, so "absent" needs no `Option`
/// discriminant and present-cell iteration (ascending `(from, to)`,
/// matching `BTreeMap<(u16, u16), _>` order) needs no tree. The matrix
/// grows on demand when a larger id appears.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkMatrix {
    n: usize,
    cells: Vec<f64>,
}

impl LinkMatrix {
    /// An empty matrix; it grows as links are set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A matrix covering ids `0..n`, all cells absent.
    pub fn with_landmarks(n: usize) -> Self {
        LinkMatrix {
            n,
            cells: vec![f64::NAN; n * n],
        }
    }

    /// A matrix covering ids `0..n` with every cell present at `value`
    /// (for tables where every link has a meaningful zero, like the
    /// EWMA bandwidth fold).
    pub fn filled(n: usize, value: f64) -> Self {
        LinkMatrix {
            n,
            cells: vec![value; n * n],
        }
    }

    /// The current side length (one past the largest covered id).
    pub fn side(&self) -> usize {
        self.n
    }

    /// Grow to cover ids `0..n`, preserving existing cells.
    pub fn grow(&mut self, n: usize) {
        if n <= self.n {
            return;
        }
        let mut cells = vec![f64::NAN; n * n];
        for from in 0..self.n {
            let (old, new) = (from * self.n, from * n);
            cells[new..new + self.n].copy_from_slice(&self.cells[old..old + self.n]);
        }
        self.n = n;
        self.cells = cells;
    }

    /// Write the value of the directed link `from → to`, growing the
    /// matrix when needed.
    pub fn set(&mut self, from: u16, to: u16, value: f64) {
        let need = (from.max(to) as usize) + 1;
        if need > self.n {
            self.grow(need);
        }
        self.cells[from as usize * self.n + to as usize] = value;
    }

    /// Raw read of `from → to` without the absence check; out-of-range
    /// and never-written cells read as `NaN`. For matrices built with
    /// [`LinkMatrix::filled`] every in-range cell is a plain value.
    #[inline]
    pub fn at(&self, from: u16, to: u16) -> f64 {
        let (f, t) = (from as usize, to as usize);
        if f >= self.n || t >= self.n {
            return f64::NAN;
        }
        self.cells[f * self.n + t]
    }

    /// The flat row-major cells (`from * side + to`).
    pub fn as_slice(&self) -> &[f64] {
        &self.cells
    }

    /// Mutable flat row-major cells, for whole-table folds.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.cells
    }

    /// The value of `from → to`, if it was ever written.
    pub fn get(&self, from: u16, to: u16) -> Option<f64> {
        let (f, t) = (from as usize, to as usize);
        if f >= self.n || t >= self.n {
            return None;
        }
        let v = self.cells[f * self.n + t];
        (!v.is_nan()).then_some(v)
    }

    /// Number of present (written) cells.
    pub fn len(&self) -> usize {
        self.cells.iter().filter(|v| !v.is_nan()).count()
    }

    /// True when no cell was ever written.
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(|v| v.is_nan())
    }

    /// Present cells in ascending `(from, to)` order — the iteration
    /// order of the `BTreeMap<(u16, u16), f64>` this type replaces.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u16, f64)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|&(_, v)| !v.is_nan())
            .map(|(i, &v)| {
                let from = LandmarkId::from(i / self.n).0;
                let to = LandmarkId::from(i % self.n).0;
                (from, to, v)
            })
    }
}

/// Checkpoint encoding: the side length, then every cell as raw
/// IEEE-754 bits with no count (`NaN` "absent" markers survive
/// byte-exactly).
impl Codec for LinkMatrix {
    fn encode(&self, w: &mut Writer) {
        self.n.encode(w);
        for v in &self.cells {
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n: usize = Codec::decode(r)?;
        let cells = n.checked_mul(n).ok_or(SnapshotError::Corrupt {
            context: "LinkMatrix",
        })?;
        let cells = r.items(cells, f64::decode)?;
        Ok(LinkMatrix { n, cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_map_basic_ops_and_order() {
        let mut m: DenseMap<LandmarkId, &str> = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(LandmarkId(5), "five"), None);
        assert_eq!(m.insert(LandmarkId(1), "one"), None);
        assert_eq!(m.insert(LandmarkId(5), "FIVE"), Some("five"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(LandmarkId(5)), Some(&"FIVE"));
        assert_eq!(m.get(LandmarkId(0)), None);
        assert_eq!(m.get(LandmarkId(999)), None);
        // Iteration ascends by id regardless of insertion order.
        let keys: Vec<u16> = m.keys().map(|k| k.0).collect();
        assert_eq!(keys, vec![1, 5]);
        assert_eq!(m.remove(LandmarkId(1)), Some("one"));
        assert_eq!(m.remove(LandmarkId(1)), None);
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty() && m.get(LandmarkId(5)).is_none());
    }

    #[test]
    fn dense_map_get_or_default_counts() {
        let mut m: DenseMap<u16, u64> = DenseMap::new();
        *m.get_or_default(3) += 1;
        *m.get_or_default(3) += 1;
        *m.get_or_default(0) += 1;
        assert_eq!(m.get(3), Some(&2));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(0, &1), (3, &2)]);
    }

    #[test]
    fn dense_map_values_mut_in_key_order() {
        let mut m: DenseMap<u32, i32> = DenseMap::with_index_capacity(8);
        m.insert(6, 60);
        m.insert(2, 20);
        for v in m.values_mut() {
            *v += 1;
        }
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![21, 61]);
    }

    #[test]
    fn dense_set_matches_btreeset_semantics() {
        let mut s: DenseSet<PacketId> = DenseSet::new();
        assert!(s.insert(PacketId(7)));
        assert!(s.insert(PacketId(2)));
        assert!(!s.insert(PacketId(7)));
        assert!(s.contains(PacketId(2)));
        assert!(!s.contains(PacketId(3)));
        let got: Vec<u32> = s.iter().map(|p| p.0).collect();
        assert_eq!(got, vec![2, 7]);
        assert!(s.remove(PacketId(2)));
        assert!(!s.remove(PacketId(2)));
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn dense_set_dead_prefix_never_exceeds_live_length() {
        let mut s: DenseSet<u32> = DenseSet::new();
        let (mut lcg, mut next, mut peak_head) = (0x5EED_u64, 0u32, 0usize);
        let check = |s: &DenseSet<u32>, step: usize| {
            assert!(
                s.head <= s.len(),
                "step {step}: dead prefix {} over {} members",
                s.head,
                s.len()
            );
        };
        // Queue-shaped churn: appends, oldest-first drains, some
        // interior and back removals, interior re-inserts and misses.
        for step in 0..20_000 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (lcg >> 33) as u32;
            let any = r % next.max(1);
            match r % 10 {
                0..=3 => {
                    s.insert(next);
                    next += 1;
                }
                4..=6 => {
                    if let Some(&k) = s.as_slice().first() {
                        s.remove(k);
                    }
                }
                7 => {
                    s.remove(any);
                }
                8 => {
                    s.insert(any);
                }
                _ => {
                    if let Some(&k) = s.as_slice().last() {
                        s.remove(k);
                    }
                }
            }
            peak_head = peak_head.max(s.head);
            check(&s, step);
        }
        // Grow the set, then drain it oldest-first down to empty.
        for k in next..next + 1_000 {
            s.insert(k);
        }
        while let Some(&k) = s.as_slice().first() {
            s.remove(k);
            peak_head = peak_head.max(s.head);
            check(&s, 20_000);
        }
        assert!(peak_head > 0, "the dead prefix was never used");
        assert!(s.is_empty() && s.buf.is_empty() && s.head == 0);
    }

    #[test]
    fn link_matrix_layout_is_from_times_n_plus_to() {
        let mut m = LinkMatrix::with_landmarks(3);
        assert!(m.is_empty());
        m.set(1, 2, 0.5);
        m.set(0, 1, 0.25);
        m.set(1, 2, 0.75); // overwrite
        assert_eq!(m.get(1, 2), Some(0.75));
        assert_eq!(m.get(2, 1), None);
        assert_eq!(m.len(), 2);
        // Ascending (from, to): (0,1) before (1,2).
        let got: Vec<(u16, u16, f64)> = m.iter().collect();
        assert_eq!(got, vec![(0, 1, 0.25), (1, 2, 0.75)]);
    }

    #[test]
    fn link_matrix_grows_preserving_cells() {
        let mut m = LinkMatrix::new();
        m.set(0, 1, 1.0);
        assert_eq!(m.side(), 2);
        m.set(4, 0, 2.0); // forces growth to 5×5
        assert_eq!(m.side(), 5);
        assert_eq!(m.get(0, 1), Some(1.0));
        assert_eq!(m.get(4, 0), Some(2.0));
        assert_eq!(m.get(3, 3), None);
        let got: Vec<(u16, u16, f64)> = m.iter().collect();
        assert_eq!(got, vec![(0, 1, 1.0), (4, 0, 2.0)]);
    }

    #[test]
    fn key_roundtrips() {
        assert_eq!(NodeId::from_index(4).index(), 4);
        assert_eq!(LandmarkId::from_index(9).index(), 9);
        assert_eq!(PacketId::from_index(1).index(), 1);
        assert_eq!(<u16 as DenseKey>::from_index(3), 3u16);
        assert_eq!(<u32 as DenseKey>::from_index(5), 5u32);
        assert_eq!(<usize as DenseKey>::from_index(6), 6usize);
    }
}
