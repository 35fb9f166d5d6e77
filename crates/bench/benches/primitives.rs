//! Micro-benchmarks for the hot primitives: arbitration, the deflection
//! port-assignment engine, and the PRNG. Runs on the self-contained
//! harness in [`afc_bench::microbench`].

use afc_bench::microbench;
use afc_netsim::config::NetworkConfig;
use afc_netsim::counters::ActivityCounters;
use afc_netsim::flit::{Flit, PacketId};
use afc_netsim::geom::{Coord, NodeId};
use afc_netsim::rng::SimRng;
use afc_netsim::router::RouterOutputs;
use afc_routers::arbiter::RoundRobin;
use afc_routers::deflection::{LatchBank, Loser, RankPolicy};

fn main() {
    let mut group = microbench::group("primitives");

    {
        let mut arb = RoundRobin::new(8);
        let mut i = 0u64;
        group.bench("round_robin_grant", || {
            i += 1;
            arb.grant(|r| !(r as u64 + i).is_multiple_of(3))
        });
    }

    {
        let cfg = NetworkConfig::paper_3x3();
        let mesh = cfg.mesh().unwrap();
        let node = mesh.node_at(Coord::new(1, 1)).unwrap();
        let mut bank = LatchBank::new(node, &mesh, RankPolicy::Random, cfg.eject_bandwidth);
        let mut rng = SimRng::seed_from(1);
        let (mut out, mut counters) = (RouterOutputs::new(), ActivityCounters::new());
        group.bench("deflection_assign_4flits", || {
            for i in 0..4 {
                bank.push(Flit::test_flit(PacketId(i), NodeId::new(0), NodeId::new(8)));
            }
            out.clear();
            bank.step_with(
                Loser::Deflect,
                0,
                0,
                None,
                &mut rng,
                &mut out,
                &mut counters,
            )
        });
    }

    {
        let mut rng = SimRng::seed_from(2);
        group.bench("rng_next_u64", || rng.next_u64());
    }

    {
        let mut rng = SimRng::seed_from(3);
        group.bench("rng_gen_bool", || rng.gen_bool(0.3));
    }
}
