//! Macro-benchmark: simulated cycles per second for a whole 3x3 network
//! under moderate open-loop load, per mechanism. Runs on the
//! self-contained harness in [`afc_bench::microbench`].

use afc_bench::mechanisms::all_mechanisms;
use afc_bench::microbench;
use afc_netsim::config::NetworkConfig;
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;

fn main() {
    let mut group = microbench::group("network_cycles");
    for mech in all_mechanisms() {
        let net = Network::new(NetworkConfig::paper_3x3(), mech.factory.as_ref(), 7)
            .expect("valid config");
        let traffic = OpenLoopTraffic::new(
            RateSpec::Uniform(0.15),
            Pattern::UniformRandom,
            PacketMix::paper(),
            7,
        );
        let mut sim = Simulation::new(net, traffic);
        group.bench(mech.label, || {
            sim.step();
            sim.network.now()
        });
    }
}
