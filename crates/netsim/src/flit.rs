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
/// Flits are small, `Copy`, and self-contained: any flit can be routed on its
/// own (flit-by-flit routing), reassembled at the destination via
/// (`packet`, `seq`, `len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Sequence number within the packet (`0..len`).
    pub seq: u16,
    /// Total number of flits in the packet.
    pub len: u16,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Virtual network (message class).
    pub vnet: VirtualNetwork,
    /// Virtual channel currently assigned to the flit, if any.
    ///
    /// Backpressured routers assign this during VC allocation; AFC routers in
    /// backpressureless mode *propagate* it unchanged (Section III-A), and
    /// AFC's lazy VC allocation overwrites it at the downstream buffer write.
    pub vc: Option<VcId>,
    /// Cycle at which the packet entered the source injection queue.
    pub created_at: Cycle,
    /// Cycle at which this flit first entered the network (left the NI).
    pub injected_at: Cycle,
    /// Number of router-to-router hops taken so far.
    pub hops: u16,
    /// Number of deflections (non-productive hops) suffered so far.
    pub deflections: u16,
    /// Semantic class inherited from the packet descriptor.
    pub kind: PacketKind,
    /// Opaque tag propagated from the packet descriptor (traffic-model use).
    pub tag: u64,
    /// End-to-end payload checksum, stamped at injection and verified at
    /// reassembly. Link-level corruption faults flip bits here; a mismatch
    /// against [`Flit::expected_checksum`] marks the flit as corrupt.
    pub checksum: u16,
}

impl Flit {
    /// The checksum a pristine copy of this flit would carry, derived from
    /// its immutable identity fields (packet, sequence, endpoints, tag).
    #[inline]
    pub fn expected_checksum(&self) -> u16 {
        checksum(self.packet, self.seq, self.src, self.dest, self.tag)
    }

    /// Whether the payload checksum no longer matches — i.e. the flit was
    /// corrupted in flight.
    pub fn is_corrupt(&self) -> bool {
        self.checksum != self.expected_checksum()
    }

    /// Flips checksum bits, simulating payload corruption on a link. The
    /// resulting flit always fails [`Flit::is_corrupt`].
    pub fn corrupt(&mut self) {
        self.checksum ^= 0xBEEF;
    }

    /// Restores the pristine checksum (a source retransmitting a flit sends
    /// fresh, uncorrupted data).
    #[inline]
    pub fn repair(&mut self) {
        self.checksum = self.expected_checksum();
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
            vnet: VirtualNetwork(0),
            vc: None,
            created_at: 0,
            injected_at: 0,
            hops: 0,
            deflections: 0,
            kind: PacketKind::Synthetic,
            tag: 0,
            checksum: checksum(packet, 0, src, dest, 0),
        }
    }
}

/// Computes the end-to-end checksum over a flit's identity fields.
///
/// A folded FNV-1a over the fields a retransmitting source would re-send
/// verbatim; 16 bits is plenty for a simulator (we only ever need "matches /
/// does not match", never collision resistance).
#[inline]
pub fn checksum(packet: PacketId, seq: u16, src: NodeId, dest: NodeId, tag: u64) -> u16 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [
        packet.0,
        seq as u64,
        src.index() as u64,
        dest.index() as u64,
        tag,
    ] {
        h ^= word;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
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
    fn display_is_informative() {
        let s = format!("{}", flit(1, 4));
        assert!(s.contains("p7"));
        assert!(s.contains("1/4"));
    }
}
