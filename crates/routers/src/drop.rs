//! The **drop-based** backpressureless router (SCARAB style).
//!
//! On contention, all but one of the contending flits are dropped instead of
//! deflected; a NACK returns to the source (modeled by the network engine
//! with distance-proportional latency) and the source retransmits. The paper
//! notes this variant saturates at even lower loads than deflection routing
//! — this implementation exists as the comparison point for that claim.
//!
//! The datapath is the shared bufferless kernel
//! ([`LatchBank`](crate::deflection::LatchBank)) with
//! [`Loser::Drop`](crate::deflection::Loser): dead links are simply not
//! output ports anymore, and in degraded mode a dead, contended,
//! local-overflow or unreachable outcome all take the drop/NACK path — for
//! an unreachable destination the source NI's bounded retransmit converts
//! the repeated drops into a structured `Unreachable`.

use afc_netsim::config::NetworkConfig;
use afc_netsim::flit::Flit;
use afc_netsim::geom::NodeId;
use afc_netsim::router::{Router, RouterBank, RouterFactory};
use afc_netsim::topology::Mesh;

use crate::deflection::{Bufferless, RankPolicy};

/// Flit width in bits (same control overhead class as the deflection
/// variant).
pub const FLIT_WIDTH_BITS: u32 = 45;

/// The drop router.
pub type DropRouter = Bufferless<true>;

/// Factory for [`DropRouter`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropFactory {
    /// Ranking policy for contention resolution.
    pub policy: RankPolicy,
}

impl DropFactory {
    /// Creates the factory with randomized contention resolution.
    pub fn new() -> DropFactory {
        DropFactory::default()
    }
}

impl RouterFactory for DropFactory {
    fn build_with(
        &self,
        node: NodeId,
        mesh: &Mesh,
        config: &NetworkConfig,
        _rings: Box<[Flit]>,
    ) -> Box<dyn Router> {
        Box::new(DropRouter::new(node, mesh, config, self.policy))
    }

    fn build_bank(
        &self,
        mesh: &Mesh,
        config: &NetworkConfig,
        _rings: Vec<Box<[Flit]>>,
    ) -> Box<dyn RouterBank> {
        let bank: Vec<DropRouter> = mesh
            .nodes()
            .map(|node| DropRouter::new(node, mesh, config, self.policy))
            .collect();
        Box::new(bank)
    }

    fn name(&self) -> &'static str {
        "drop"
    }

    fn build_key(&self) -> String {
        format!("{self:?}")
    }

    fn flit_width_bits(&self) -> u32 {
        FLIT_WIDTH_BITS
    }

    fn buffer_flits_per_port(&self, _config: &NetworkConfig) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_netsim::flit::{Flit, PacketId};
    use afc_netsim::geom::{Coord, Direction, PortId};
    use afc_netsim::rng::SimRng;
    use afc_netsim::router::RouterOutputs;

    fn setup() -> (Mesh, NodeId, DropRouter) {
        let config = NetworkConfig::paper_3x3();
        let mesh = config.mesh().unwrap();
        let node = mesh.node_at(Coord::new(1, 1)).unwrap();
        let r = DropRouter::new(node, &mesh, &config, RankPolicy::OldestFirst);
        (mesh, node, r)
    }

    fn flit_to(id: u64, dest: NodeId) -> Flit {
        Flit::test_flit(PacketId(id), NodeId::new(0), dest)
    }

    #[test]
    fn uncontended_flit_proceeds() {
        let (mesh, _node, mut r) = setup();
        let dest = mesh.node_at(Coord::new(1, 0)).unwrap(); // north
        r.receive_flit(PortId::Net(Direction::South), flit_to(1, dest), 0);
        let mut out = RouterOutputs::new();
        let mut rng = SimRng::seed_from(1);
        r.step(0, &mut rng, &mut out);
        assert!(out.flits[PortId::Net(Direction::North)].is_some());
        assert!(out.dropped.is_empty());
    }

    #[test]
    fn contention_drops_loser() {
        let (mesh, _node, mut r) = setup();
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap(); // east only
        let a = flit_to(1, dest); // injected_at 0: oldest, wins under OldestFirst
        let mut b = flit_to(2, dest);
        b.injected_at = 5;
        r.receive_flit(PortId::Net(Direction::West), a, 0);
        r.receive_flit(PortId::Net(Direction::North), b, 0);
        let mut out = RouterOutputs::new();
        let mut rng = SimRng::seed_from(2);
        r.step(0, &mut rng, &mut out);
        let winner = out.flits[PortId::Net(Direction::East)].unwrap();
        assert_eq!(winner.packet, PacketId(1));
        assert_eq!(out.dropped.len(), 1);
        assert_eq!(out.dropped[0].packet, PacketId(2));
        assert_eq!(r.counters().drops, 1);
        // Dropped flits never deflect: no other port used.
        assert_eq!(out.flits_sent(), 1);
    }

    #[test]
    fn local_overflow_is_dropped_not_deflected() {
        let (_mesh, node, mut r) = setup();
        r.receive_flit(PortId::Net(Direction::West), flit_to(1, node), 0);
        r.receive_flit(PortId::Net(Direction::East), flit_to(2, node), 0);
        let mut out = RouterOutputs::new();
        let mut rng = SimRng::seed_from(3);
        r.step(0, &mut rng, &mut out);
        assert_eq!(out.ejected.len(), 1);
        assert_eq!(out.dropped.len(), 1);
        assert_eq!(out.flits_sent(), 0);
    }

    #[test]
    fn load_state_rejects_an_over_long_latch_count() {
        use afc_netsim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
        let (_mesh, _node, mut r) = setup();
        let mut w = SnapshotWriter::new();
        w.put_usize(6); // a centre router latches at most 4 + 1
        let bytes = w.into_bytes();
        assert!(matches!(
            r.load_state(&mut SnapshotReader::new(&bytes)),
            Err(SnapshotError::Malformed {
                what: "drop router latch count"
            })
        ));
    }

    #[test]
    fn factory_metadata() {
        let f = DropFactory::new();
        assert_eq!(f.name(), "drop");
        assert_eq!(f.buffer_flits_per_port(&NetworkConfig::paper_3x3()), 0);
    }
}
