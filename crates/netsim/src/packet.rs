//! Packet descriptors: what traffic models inject and receive.

use crate::flit::{Cycle, Flit, PacketId, VirtualNetwork};
use crate::geom::NodeId;

pub use crate::flit::PacketKind;

/// A packet as seen by traffic models and network interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketDescriptor {
    /// Unique id (assigned by the network at enqueue time).
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Virtual network to travel on.
    pub vnet: VirtualNetwork,
    /// Length in flits (>= 1).
    pub len: u16,
    /// Cycle the packet was enqueued for injection.
    pub created_at: Cycle,
    /// Semantic class.
    pub kind: PacketKind,
    /// Opaque traffic-model correlation tag (e.g. transaction id).
    pub tag: u64,
}

impl PacketDescriptor {
    /// Materializes flit `seq` of this packet, stamped with the cycle it
    /// enters the network.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= self.len`.
    #[inline]
    pub fn flit(&self, seq: u16, injected_at: Cycle) -> Flit {
        assert!(
            seq < self.len,
            "flit seq {seq} out of range 0..{}",
            self.len
        );
        Flit {
            packet: self.id,
            seq,
            len: self.len,
            src: self.src,
            dest: self.dest,
            vnet: self.vnet,
            vc: None,
            created_at: self.created_at,
            injected_at,
            hops: 0,
            deflections: 0,
            kind: self.kind,
            tag: self.tag,
            checksum: crate::flit::checksum(self.id, seq, self.src, self.dest, self.tag),
        }
    }
}

/// A packet request handed to the network for injection; the network assigns
/// the id and creation timestamp, producing a [`PacketDescriptor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketInput {
    /// Destination node.
    pub dest: NodeId,
    /// Virtual network.
    pub vnet: VirtualNetwork,
    /// Length in flits (>= 1).
    pub len: u16,
    /// Semantic class.
    pub kind: PacketKind,
    /// Opaque traffic-model tag.
    pub tag: u64,
}

/// A fully reassembled packet together with its delivery timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveredPacket {
    /// The packet.
    pub descriptor: PacketDescriptor,
    /// Cycle the first flit entered the network.
    pub injected_at: Cycle,
    /// Cycle the final flit was delivered.
    pub delivered_at: Cycle,
    /// Total hops summed over the packet's flits.
    pub total_hops: u32,
    /// Total deflections summed over the packet's flits.
    pub total_deflections: u32,
}

impl DeliveredPacket {
    /// Network latency: first flit injection to last flit delivery.
    pub fn network_latency(&self) -> Cycle {
        self.delivered_at.saturating_sub(self.injected_at)
    }

    /// Total latency including source queueing delay.
    pub fn total_latency(&self) -> Cycle {
        self.delivered_at.saturating_sub(self.descriptor.created_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor() -> PacketDescriptor {
        PacketDescriptor {
            id: PacketId(3),
            src: NodeId::new(0),
            dest: NodeId::new(5),
            vnet: VirtualNetwork(2),
            len: 4,
            created_at: 10,
            kind: PacketKind::Response,
            tag: 99,
        }
    }

    #[test]
    fn flit_materialization_carries_metadata() {
        let d = descriptor();
        let f = d.flit(2, 15);
        assert_eq!(f.packet, d.id);
        assert_eq!(f.seq, 2);
        assert_eq!(f.len, 4);
        assert_eq!(f.dest, d.dest);
        assert_eq!(f.created_at, 10);
        assert_eq!(f.injected_at, 15);
        assert_eq!(f.tag, 99);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flit_seq_bounds_checked() {
        descriptor().flit(4, 0);
    }

    #[test]
    fn delivered_latencies() {
        let d = DeliveredPacket {
            descriptor: descriptor(),
            injected_at: 12,
            delivered_at: 30,
            total_hops: 9,
            total_deflections: 1,
        };
        assert_eq!(d.network_latency(), 18);
        assert_eq!(d.total_latency(), 20);
    }
}
