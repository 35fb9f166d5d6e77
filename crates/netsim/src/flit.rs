//! Flits: the atomic unit of network transfer.
//!
//! Because the AFC router (and the backpressureless baseline) route
//! flit-by-flit, *every* flit carries full routing metadata — destination,
//! packet id, sequence number — exactly as the paper's wider-flit encoding
//! requires (Section III-A). The per-mechanism control-bit widths (9/13/17
//! bits on top of the 32-bit payload) are accounted for by the energy model,
//! not by this struct.

use crate::geom::NodeId;
use std::fmt;

/// A simulation time point, in cycles.
pub type Cycle = u64;

/// Globally unique packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Index of a virtual network (message class).
///
/// Virtual networks separate request/response traffic classes for
/// protocol-level deadlock avoidance; the paper's configuration uses two
/// control vnets and one data vnet (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualNetwork(pub u8);

impl VirtualNetwork {
    /// Dense index of the virtual network.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VirtualNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vn{}", self.0)
    }
}

/// Index of a virtual channel within a port (and, where relevant, within a
/// virtual network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VcId(pub u8);

impl VcId {
    /// Dense index of the virtual channel.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc{}", self.0)
    }
}

/// Semantic class of a packet, used by closed-loop traffic models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PacketKind {
    /// Coherence/memory request (expected reply).
    #[default]
    Request,
    /// Reply carrying data or acknowledgement.
    Response,
    /// Dirty writeback — the paper's "unexpected packet" case.
    Writeback,
    /// Synthetic open-loop traffic.
    Synthetic,
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitPosition {
    /// First flit of a multi-flit packet.
    Head,
    /// Interior flit.
    Body,
    /// Last flit of a multi-flit packet.
    Tail,
    /// The only flit of a single-flit packet (head and tail at once).
    Single,
}

/// The atomic unit of transfer: one flit.
///
/// Flits are small (32 bytes), `Copy`, and self-contained for routing: any
/// flit can be routed on its own (flit-by-flit routing) and reassembled at
/// the destination via (`packet`, `seq`, `len`). What only the destination
/// reads, once per packet — creation cycle, kind and tag — lives in the
/// network's [`PacketTable`](crate::packet::PacketTable), not in the flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Cycle at which this flit first entered the network (left the NI).
    pub injected_at: Cycle,
    /// Sequence number within the packet (`0..len`).
    pub seq: u16,
    /// Total number of flits in the packet.
    pub len: u16,
    /// Number of router-to-router hops taken so far.
    pub hops: u16,
    /// Number of deflections (non-productive hops) suffered so far.
    pub deflections: u16,
    /// Source node (where a NACK returns the flit).
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Virtual channel currently assigned to the flit, if any.
    ///
    /// Backpressured routers assign this during VC allocation; AFC routers in
    /// backpressureless mode *propagate* it unchanged (Section III-A), and
    /// AFC's lazy VC allocation overwrites it at the downstream buffer write.
    pub vc: Option<VcId>,
    /// Virtual network (message class).
    pub vnet: VirtualNetwork,
    /// Whether a link fault corrupted the payload in flight; the destination
    /// NI refuses a corrupt flit and NACKs it back to its source.
    pub corrupted: bool,
}

impl Flit {
    /// Whether the payload was corrupted in flight.
    #[inline]
    pub fn is_corrupt(&self) -> bool {
        self.corrupted
    }

    /// Corrupts the payload, as a link fault does. Two corruptions cancel,
    /// as flipping the same payload bits twice restores them.
    ///
    /// ```
    /// # use afc_netsim::flit::{Flit, PacketId};
    /// # use afc_netsim::geom::NodeId;
    /// let mut f = Flit::test_flit(PacketId(1), NodeId::new(0), NodeId::new(1));
    /// f.corrupt();
    /// assert!(f.is_corrupt());
    /// f.corrupt();
    /// assert!(!f.is_corrupt());
    /// ```
    pub fn corrupt(&mut self) {
        self.corrupted = !self.corrupted;
    }

    /// Restores a pristine payload (a source retransmitting a flit sends
    /// fresh, uncorrupted data).
    #[inline]
    pub fn repair(&mut self) {
        self.corrupted = false;
    }

    /// Position of this flit within its packet.
    ///
    /// ```
    /// use afc_netsim::flit::{Flit, FlitPosition};
    /// # use afc_netsim::flit::{PacketId, VirtualNetwork};
    /// # use afc_netsim::geom::NodeId;
    /// # let mut f = Flit::test_flit(PacketId(1), NodeId::new(0), NodeId::new(1));
    /// f.seq = 0; f.len = 1;
    /// assert_eq!(f.position(), FlitPosition::Single);
    /// f.len = 4;
    /// assert_eq!(f.position(), FlitPosition::Head);
    /// ```
    pub fn position(&self) -> FlitPosition {
        match (self.seq, self.len) {
            (0, 1) => FlitPosition::Single,
            (0, _) => FlitPosition::Head,
            (s, l) if s + 1 == l => FlitPosition::Tail,
            _ => FlitPosition::Body,
        }
    }

    /// Whether this is the head (or single) flit of its packet.
    pub fn is_head(&self) -> bool {
        self.seq == 0
    }

    /// Whether this is the tail (or single) flit of its packet.
    pub fn is_tail(&self) -> bool {
        self.seq + 1 == self.len
    }

    /// A minimal single-flit for tests: control vnet 0, zero timestamps.
    ///
    /// Exposed (rather than `#[cfg(test)]`) so downstream crates can build
    /// flits in their own unit tests without replicating boilerplate.
    pub fn test_flit(packet: PacketId, src: NodeId, dest: NodeId) -> Flit {
        Flit {
            packet,
            seq: 0,
            len: 1,
            src,
            dest,
            ..Flit::default()
        }
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}/{}] {}->{} {}",
            self.packet, self.seq, self.len, self.src, self.dest, self.vnet
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(seq: u16, len: u16) -> Flit {
        let mut f = Flit::test_flit(PacketId(7), NodeId::new(0), NodeId::new(8));
        f.seq = seq;
        f.len = len;
        f
    }

    #[test]
    fn positions() {
        assert_eq!(flit(0, 1).position(), FlitPosition::Single);
        assert_eq!(flit(0, 5).position(), FlitPosition::Head);
        assert_eq!(flit(2, 5).position(), FlitPosition::Body);
        assert_eq!(flit(4, 5).position(), FlitPosition::Tail);
    }

    #[test]
    fn head_tail_predicates() {
        assert!(flit(0, 1).is_head() && flit(0, 1).is_tail());
        assert!(flit(0, 3).is_head() && !flit(0, 3).is_tail());
        assert!(!flit(2, 3).is_head() && flit(2, 3).is_tail());
    }

    #[test]
    fn flits_are_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<Flit>(), 32);
        assert_eq!(std::mem::size_of::<Option<Flit>>(), 32);
    }

    /// The flag is the XOR checksum it replaced (`checksum ^= 0xBEEF` on
    /// corruption, a recomputed checksum on repair, corrupt while the two
    /// differ), kept here as the reference and driven alongside it.
    #[test]
    fn the_corruption_flag_behaves_as_the_checksum_did() {
        const PRISTINE: u16 = 0x5A17;
        let mut f = flit(0, 1);
        let mut checksum = PRISTINE;
        assert!(!f.is_corrupt());
        f.corrupt();
        checksum ^= 0xBEEF;
        assert!(
            f.is_corrupt() && checksum != PRISTINE,
            "corrupt once: corrupt"
        );
        f.corrupt();
        checksum ^= 0xBEEF;
        assert!(!f.is_corrupt() && checksum == PRISTINE, "twice: clean");
        f.corrupt();
        f.repair();
        assert!(!f.is_corrupt(), "repair: clean");
        f.repair();
        assert!(!f.is_corrupt(), "repairing a clean flit keeps it clean");
        // Any sequence of corruptions and repairs agrees with the checksum.
        let mut rng = crate::rng::SimRng::seed_from(0xBEEF);
        for _ in 0..1_000 {
            match rng.gen_index(3) {
                0 => {
                    f.repair();
                    checksum = PRISTINE;
                }
                _ => {
                    f.corrupt();
                    checksum ^= 0xBEEF;
                }
            }
            assert_eq!(f.is_corrupt(), checksum != PRISTINE);
        }
    }

    #[test]
    fn display_is_informative() {
        let s = format!("{}", flit(1, 4));
        assert!(s.contains("p7"));
        assert!(s.contains("1/4"));
    }
}
