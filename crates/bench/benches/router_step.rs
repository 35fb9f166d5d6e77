//! Micro-benchmarks: cost of one router pipeline step per mechanism,
//! under light and heavy input pressure. Runs on the self-contained
//! harness in [`afc_bench::microbench`] (no external deps).

use afc_bench::microbench;
use afc_core::{AfcConfig, AfcRouter};
use afc_netsim::config::NetworkConfig;
use afc_netsim::flit::{Flit, PacketId, VcId, VirtualNetwork};
use afc_netsim::geom::{Coord, Direction, NodeId, PortId};
use afc_netsim::rng::SimRng;
use afc_netsim::router::{Router, RouterOutputs};
use afc_netsim::topology::Mesh;
use afc_routers::{BackpressuredRouter, DeflectionRouter, RankPolicy};

fn center(mesh: &Mesh) -> NodeId {
    mesh.node_at(Coord::new(1, 1)).unwrap()
}

fn flit(i: u64, dest: NodeId, vc: Option<u8>) -> Flit {
    let mut f = Flit::test_flit(PacketId(i), NodeId::new(0), dest);
    f.vnet = VirtualNetwork(0);
    f.vc = vc.map(VcId);
    f
}

fn main() {
    let cfg = NetworkConfig::paper_3x3();
    let mesh = cfg.mesh().unwrap();
    let node = center(&mesh);
    let east = mesh.node_at(Coord::new(2, 1)).unwrap();
    let mut group = microbench::group("router_step");

    {
        let mut r = BackpressuredRouter::new(node, &mesh, &cfg);
        let mut rng = SimRng::seed_from(1);
        let mut out = RouterOutputs::new();
        let mut now = 0u64;
        let mut i = 0u64;
        group.bench("backpressured_busy", || {
            r.receive_flit(PortId::Net(Direction::West), flit(i, east, Some(0)), now);
            out.clear();
            r.step(now, &mut rng, &mut out);
            // Return the credit for whatever left eastward so the router
            // never stalls (and credits never exceed the buffer depth).
            if let Some(sent) = out.flits[PortId::Net(Direction::East)] {
                r.receive_credit(
                    PortId::Net(Direction::East),
                    afc_netsim::channel::Credit::Vc(sent.vc.expect("allocated")),
                    now,
                );
            }
            now += 1;
            i += 1;
            out.flits_sent()
        });
    }

    {
        let mut r = DeflectionRouter::new(node, &mesh, &cfg, RankPolicy::Random);
        let mut rng = SimRng::seed_from(2);
        let mut out = RouterOutputs::new();
        let mut now = 0u64;
        let mut i = 0u64;
        group.bench("deflection_busy", || {
            for d in [Direction::West, Direction::North] {
                r.receive_flit(PortId::Net(d), flit(i, east, None), now);
                i += 1;
            }
            out.clear();
            r.step(now, &mut rng, &mut out);
            now += 1;
            out.flits_sent()
        });
    }

    {
        let mut r = AfcRouter::new(node, &mesh, &cfg, AfcConfig::paper());
        let mut rng = SimRng::seed_from(3);
        let mut out = RouterOutputs::new();
        let mut now = 0u64;
        let mut i = 0u64;
        group.bench("afc_backpressureless_busy", || {
            r.receive_flit(PortId::Net(Direction::West), flit(i, east, None), now);
            out.clear();
            r.step(now, &mut rng, &mut out);
            now += 1;
            i += 1;
            out.flits_sent()
        });
    }

    {
        let mut r = AfcRouter::new(node, &mesh, &cfg, AfcConfig::paper_always_backpressured());
        let mut rng = SimRng::seed_from(4);
        let mut out = RouterOutputs::new();
        let mut now = 0u64;
        let mut i = 0u64;
        group.bench("afc_backpressured_busy", || {
            r.receive_flit(PortId::Net(Direction::West), flit(i, east, None), now);
            r.receive_credit(
                PortId::Net(Direction::East),
                afc_netsim::channel::Credit::Vnet(VirtualNetwork(0)),
                now,
            );
            out.clear();
            r.step(now, &mut rng, &mut out);
            now += 1;
            i += 1;
            out.flits_sent()
        });
    }
}
