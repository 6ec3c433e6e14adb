//! Packet storage for nodes and stations, bounded by a packet count.
//!
//! Nodes have limited memory (`M` in the paper); every packet is the
//! same size (`PACKET_SIZE`), so a node holds `M / S` packets
//! (`SimConfig::packets_per_node`). Landmark stations are "additional
//! infrastructure with high processing and storage capacity" (§I) and
//! are modelled as unbounded. Iteration order is deterministic
//! (ascending packet id) so simulations are reproducible.

use dtnflow_core::dense::DenseSet;
use dtnflow_core::ids::PacketId;

/// A set of packets with an optional capacity in packets.
#[derive(Debug, Clone)]
pub struct PacketStore {
    capacity: Option<usize>,
    packets: DenseSet<PacketId>,
}

impl PacketStore {
    /// A store holding at most `capacity` packets (mobile node memory).
    pub fn bounded(capacity: usize) -> Self {
        PacketStore {
            capacity: Some(capacity),
            packets: DenseSet::new(),
        }
    }

    /// An unbounded store (landmark station).
    pub fn unbounded() -> Self {
        PacketStore {
            capacity: None,
            packets: DenseSet::new(),
        }
    }

    /// A store of `capacity` (`None`: unbounded) holding `packets`, as a
    /// checkpoint restores it. The caller checks the count.
    pub(crate) fn with_members(capacity: Option<usize>, packets: DenseSet<PacketId>) -> Self {
        PacketStore { capacity, packets }
    }

    /// Room left, in packets; `usize::MAX` when unbounded.
    pub fn free_slots(&self) -> usize {
        match self.capacity {
            Some(c) => c.saturating_sub(self.packets.len()),
            None => usize::MAX,
        }
    }

    /// Number of packets stored.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Whether a packet is present.
    pub fn contains(&self, pkt: PacketId) -> bool {
        self.packets.contains(pkt)
    }

    /// Insert a packet. Fails (returns `false`) when the store is full;
    /// inserting a packet twice is a logic error.
    pub fn insert(&mut self, pkt: PacketId) -> bool {
        if self.free_slots() == 0 {
            return false;
        }
        let inserted = self.packets.insert(pkt);
        assert!(inserted, "packet {pkt} inserted twice");
        true
    }

    /// Remove a packet; `false` when absent.
    pub fn remove(&mut self, pkt: PacketId) -> bool {
        self.packets.remove(pkt)
    }

    /// The members, ascending by id (what a checkpoint writes).
    pub(crate) fn members(&self) -> &DenseSet<PacketId> {
        &self.packets
    }

    /// Iterate packets in ascending id order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = PacketId> + '_ {
        self.packets.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PacketId {
        PacketId(i)
    }

    #[test]
    fn bounded_store_enforces_capacity() {
        let mut s = PacketStore::bounded(2);
        assert!(s.insert(p(0)));
        assert!(s.insert(p(1)));
        assert!(!s.insert(p(2)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.free_slots(), 0);
        assert!(s.remove(p(0)));
        assert!(s.insert(p(2)));
    }

    #[test]
    fn unbounded_store_never_fills() {
        let mut s = PacketStore::unbounded();
        for i in 0..10_000 {
            assert!(s.insert(p(i)));
        }
        assert_eq!(s.free_slots(), usize::MAX);
        assert_eq!(s.len(), 10_000);
    }

    #[test]
    fn remove_absent_returns_false() {
        let mut s = PacketStore::bounded(1);
        assert!(!s.remove(p(5)));
        assert_eq!(s.free_slots(), 1);
    }

    #[test]
    fn iteration_is_ascending() {
        let mut s = PacketStore::unbounded();
        for i in [5u32, 1, 9, 3] {
            s.insert(p(i));
        }
        let order: Vec<u32> = s.iter().map(|x| x.0).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut s = PacketStore::unbounded();
        s.insert(p(0));
        s.insert(p(0));
    }

    #[test]
    fn slots_balance() {
        let mut s = PacketStore::bounded(5);
        for i in 0..5 {
            s.insert(p(i));
        }
        assert_eq!(s.free_slots(), 0);
        for i in 0..5 {
            s.remove(p(i));
        }
        assert_eq!(s.free_slots(), 5);
        assert!(s.is_empty());
    }
}
