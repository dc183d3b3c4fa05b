//! Node topology: sockets (packages) and cores.
//!
//! The paper's test platform is a Dell M620 blade with two Xeon E5-2680
//! packages of 8 cores each (hyper-threading not used: 16 hardware threads).
//! Cores are numbered socket-major: cores `0..cores_per_socket` belong to
//! socket 0, the next `cores_per_socket` to socket 1, and so on.

use serde::{Deserialize, Serialize};

/// Identifier of a hardware core (socket-major numbering).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoreId(pub u16);

/// Identifier of a processor package (socket).
#[derive(
    Copy, Clone, Default, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct SocketId(pub u8);

impl CoreId {
    /// The core id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl SocketId {
    /// The socket id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl std::fmt::Display for SocketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "socket{}", self.0)
    }
}

/// Static shape of the node: how many sockets, how many cores per socket.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Topology {
    /// Number of processor packages.
    pub sockets: u8,
    /// Cores per package.
    pub cores_per_socket: u16,
}

impl Topology {
    /// Construct a topology. Panics if either dimension is zero.
    pub fn new(sockets: u8, cores_per_socket: u16) -> Self {
        assert!(sockets > 0, "topology needs at least one socket");
        assert!(cores_per_socket > 0, "topology needs at least one core per socket");
        Topology { sockets, cores_per_socket }
    }

    /// The paper's platform: 2 sockets × 8 cores.
    pub fn sandybridge_2x8() -> Self {
        Topology::new(2, 8)
    }

    /// Total number of cores on the node.
    #[inline]
    pub fn total_cores(&self) -> usize {
        self.sockets as usize * self.cores_per_socket as usize
    }

    /// The socket a core belongs to.
    #[inline]
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        debug_assert!(core.index() < self.total_cores(), "core {core} out of range");
        SocketId((core.0 / self.cores_per_socket) as u8)
    }

    /// Iterator over all core ids on the node.
    pub fn all_cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.total_cores() as u16).map(CoreId)
    }

    /// Iterator over all socket ids.
    pub fn all_sockets(&self) -> impl Iterator<Item = SocketId> {
        (0..self.sockets).map(SocketId)
    }

    /// Iterator over the cores of one socket.
    pub fn cores_of(&self, socket: SocketId) -> impl Iterator<Item = CoreId> {
        let lo = socket.0 as u16 * self.cores_per_socket;
        (lo..lo + self.cores_per_socket).map(CoreId)
    }

    /// True if `core` is a valid id for this topology.
    #[inline]
    pub fn contains(&self, core: CoreId) -> bool {
        core.index() < self.total_cores()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sandybridge_shape() {
        let t = Topology::sandybridge_2x8();
        assert_eq!(t.total_cores(), 16);
        assert_eq!(t.sockets, 2);
    }

    #[test]
    fn socket_major_numbering() {
        let t = Topology::sandybridge_2x8();
        assert_eq!(t.socket_of(CoreId(0)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(7)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(8)), SocketId(1));
        assert_eq!(t.socket_of(CoreId(15)), SocketId(1));
    }

    #[test]
    fn cores_of_socket_are_disjoint_and_cover() {
        let t = Topology::new(3, 5);
        let mut seen = vec![false; t.total_cores()];
        for s in t.all_sockets() {
            for c in t.cores_of(s) {
                assert_eq!(t.socket_of(c), s);
                assert!(!seen[c.index()], "core visited twice");
                seen[c.index()] = true;
            }
        }
        assert!(seen.iter().all(|&v| v));
    }

    #[test]
    fn all_cores_count() {
        let t = Topology::new(2, 4);
        assert_eq!(t.all_cores().count(), 8);
        assert!(t.contains(CoreId(7)));
        assert!(!t.contains(CoreId(8)));
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn zero_sockets_panics() {
        Topology::new(0, 4);
    }
}
