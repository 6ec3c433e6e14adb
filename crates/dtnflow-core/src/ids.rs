//! Strongly-typed identifiers for the three entity kinds in a DTN-FLOW
//! network: mobile nodes, landmarks (static stations), and packets.
//!
//! All three are thin newtypes over integer indices so they can be used to
//! index dense `Vec`-based tables without hashing.

use std::fmt;

/// Identifier of a mobile node (a person, bus, phone, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a landmark: a popular place hosting a static station and
/// representing one subarea of the network (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LandmarkId(pub u16);

/// Identifier of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u32);

impl NodeId {
    /// The node's dense index, for indexing per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LandmarkId {
    /// The landmark's dense index, for indexing per-landmark tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PacketId {
    /// The packet's dense index, for indexing the global packet table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        // detlint: allow(P1, reason = "id construction from trusted dense indexes; overflow means the scenario exceeds the id space, a configuration bug")
        NodeId(u32::try_from(i).expect("node index exceeds u32"))
    }
}

impl From<usize> for LandmarkId {
    fn from(i: usize) -> Self {
        // detlint: allow(P1, reason = "id construction from trusted dense indexes; overflow means the scenario exceeds the id space, a configuration bug")
        LandmarkId(u16::try_from(i).expect("landmark index exceeds u16"))
    }
}

impl From<usize> for PacketId {
    fn from(i: usize) -> Self {
        // detlint: allow(P1, reason = "id construction from trusted dense indexes; overflow means the scenario exceeds the id space, a configuration bug")
        PacketId(u32::try_from(i).expect("packet index exceeds u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LandmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_indices() {
        assert_eq!(NodeId::from(7usize).index(), 7);
        assert_eq!(LandmarkId::from(3usize).index(), 3);
        assert_eq!(PacketId::from(99usize).index(), 99);
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(LandmarkId(2).to_string(), "l2");
        assert_eq!(PacketId(11).to_string(), "p11");
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(NodeId(1) < NodeId(2));
        assert!(LandmarkId(0) < LandmarkId(10));
    }

    #[test]
    #[should_panic(expected = "landmark index exceeds u16")]
    fn landmark_overflow_panics() {
        let _ = LandmarkId::from(70_000usize);
    }
}
