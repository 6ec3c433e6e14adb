//! Byte-accounted packet storage for nodes and stations.
//!
//! Nodes have limited memory (`M` in the paper); landmark stations are
//! "additional infrastructure with high processing and storage capacity"
//! (§I) and are modelled as unbounded. Iteration order is deterministic
//! (ascending packet id) so simulations are reproducible.

use dtnflow_core::dense::DenseSet;
use dtnflow_core::ids::PacketId;
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

/// A set of packets with byte accounting and an optional capacity.
#[derive(Debug, Clone)]
pub struct PacketStore {
    capacity: Option<u64>,
    used: u64,
    packets: DenseSet<PacketId>,
}

impl PacketStore {
    /// A bounded store (mobile node memory).
    pub fn bounded(capacity: u64) -> Self {
        PacketStore {
            capacity: Some(capacity),
            used: 0,
            packets: DenseSet::new(),
        }
    }

    /// An unbounded store (landmark station).
    pub fn unbounded() -> Self {
        PacketStore {
            capacity: None,
            used: 0,
            packets: DenseSet::new(),
        }
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Free bytes; `u64::MAX` when unbounded.
    pub fn free_bytes(&self) -> u64 {
        match self.capacity {
            Some(c) => c.saturating_sub(self.used),
            None => u64::MAX,
        }
    }

    /// Whether `size` more bytes fit.
    pub fn fits(&self, size: u64) -> bool {
        self.free_bytes() >= size
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

    /// Insert a packet of `size` bytes. Fails (returns `false`) when the
    /// packet would not fit; inserting a packet twice is a logic error.
    pub fn insert(&mut self, pkt: PacketId, size: u64) -> bool {
        if !self.fits(size) {
            return false;
        }
        let inserted = self.packets.insert(pkt);
        assert!(inserted, "packet {pkt} inserted twice");
        self.used += size;
        true
    }

    /// Remove a packet of `size` bytes; `false` when absent.
    pub fn remove(&mut self, pkt: PacketId, size: u64) -> bool {
        if self.packets.remove(pkt) {
            debug_assert!(self.used >= size, "byte accounting underflow");
            self.used -= size;
            true
        } else {
            false
        }
    }

    /// Iterate packets in ascending id order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = PacketId> + '_ {
        self.packets.iter()
    }
}

/// Checkpoint encoding (DESIGN.md §11): capacity, byte count and the
/// member set. Decode rejects a byte count above the capacity.
impl Codec for PacketStore {
    fn encode(&self, w: &mut Writer) {
        self.capacity.encode(w);
        self.used.encode(w);
        self.packets.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<PacketStore, SnapshotError> {
        let store = PacketStore {
            capacity: Codec::decode(r)?,
            used: Codec::decode(r)?,
            packets: Codec::decode(r)?,
        };
        if store.capacity.is_some_and(|c| store.used > c) {
            return Err(SnapshotError::Corrupt {
                context: "PacketStore",
            });
        }
        Ok(store)
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
        let mut s = PacketStore::bounded(2_048);
        assert!(s.insert(p(0), 1_024));
        assert!(s.insert(p(1), 1_024));
        assert!(!s.insert(p(2), 1_024));
        assert_eq!(s.len(), 2);
        assert_eq!(s.free_bytes(), 0);
        assert!(s.remove(p(0), 1_024));
        assert!(s.insert(p(2), 1_024));
    }

    #[test]
    fn unbounded_store_never_fills() {
        let mut s = PacketStore::unbounded();
        for i in 0..10_000 {
            assert!(s.insert(p(i), 1_024));
        }
        assert_eq!(s.free_bytes(), u64::MAX);
        assert_eq!(s.used_bytes(), 10_000 * 1_024);
    }

    #[test]
    fn remove_absent_returns_false() {
        let mut s = PacketStore::bounded(1_024);
        assert!(!s.remove(p(5), 1_024));
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn iteration_is_ascending() {
        let mut s = PacketStore::unbounded();
        for i in [5u32, 1, 9, 3] {
            s.insert(p(i), 10);
        }
        let order: Vec<u32> = s.iter().map(|x| x.0).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut s = PacketStore::unbounded();
        s.insert(p(0), 10);
        s.insert(p(0), 10);
    }

    #[test]
    fn byte_accounting_balances() {
        let mut s = PacketStore::bounded(10_000);
        for i in 0..5 {
            s.insert(p(i), 100);
        }
        for i in 0..5 {
            s.remove(p(i), 100);
        }
        assert_eq!(s.used_bytes(), 0);
        assert!(s.is_empty());
    }
}
