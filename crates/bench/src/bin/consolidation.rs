//! Closed-loop heterogeneous consolidation (extension beyond the paper).
//!
//! The paper's Section V-B approximates a consolidated multicore — one
//! application per quadrant — with *open-loop* traffic. This experiment
//! runs the real thing closed-loop on an 8x8 mesh: quadrant 0 runs the
//! apache preset (high load), the other three run water (low load), with
//! full MSHR feedback. Reported per mechanism: each class's transaction
//! throughput, total network energy, and AFC's spatial mode split.

use afc_bench::mechanisms::fig2_mechanisms;
use afc_bench::report::{percent, ratio, Table};
use afc_energy::{EnergyModel, EnergyParams};
use afc_netsim::config::NetworkConfig;
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_netsim::trace::render_mode_map;
use afc_traffic::closedloop::ClosedLoopTraffic;
use afc_traffic::synthetic::quadrant_of;
use afc_traffic::workloads;

fn main() {
    let quick = afc_bench::sweep::HarnessArgs::from_env_or_exit(&["--quick"], &[]).has("--quick");
    let (warmup_cycles, measure_cycles) = if quick {
        (3_000, 10_000)
    } else {
        (8_000, 40_000)
    };
    let cfg = NetworkConfig::paper_8x8();
    let mesh = cfg.mesh().expect("valid mesh");
    let params: Vec<_> = mesh
        .nodes()
        .map(|n| {
            if quadrant_of(n, &mesh) == 0 {
                workloads::apache()
            } else {
                workloads::water()
            }
        })
        .collect();
    let hot_nodes: Vec<usize> = mesh
        .nodes()
        .filter(|n| quadrant_of(*n, &mesh) == 0)
        .map(|n| n.index())
        .collect();

    let model = EnergyModel::new(EnergyParams::micro2010_70nm());
    let mut results = Vec::new();
    for mech in fig2_mechanisms() {
        let network = Network::new(cfg.clone(), mech.factory.as_ref(), 1).expect("valid");
        let traffic = ClosedLoopTraffic::heterogeneous(params.clone(), 1);
        let mut sim = Simulation::new(network, traffic);
        sim.run(warmup_cycles);
        sim.network.reset_metrics();
        sim.traffic.reset_completed_by_node();
        sim.run(measure_cycles);

        let by_node = sim.traffic.completed_by_node();
        let hot: u64 = hot_nodes.iter().map(|n| by_node[*n]).sum();
        let cool: u64 = by_node.iter().sum::<u64>() - hot;
        let energy = model.price_network(&sim.network).total();
        let bp_frac = sim.network.stats().backpressured_fraction();
        if mech.label == "afc" {
            println!("AFC mode map (quadrant 0 = top-left runs apache):");
            println!("{}", render_mode_map(&sim.network));
        }
        results.push((mech.label, hot, cool, energy, bp_frac));
    }

    let afc_energy = results.iter().find(|r| r.0 == "afc").expect("afc ran").3;
    let mut t = Table::new(vec![
        "mechanism",
        "apache txns",
        "water txns",
        "energy vs AFC",
        "bp cycles",
    ]);
    for (label, hot, cool, energy, bp) in &results {
        t.row(vec![
            label.to_string(),
            hot.to_string(),
            cool.to_string(),
            ratio(energy / afc_energy),
            percent(*bp),
        ]);
    }
    println!("Closed-loop consolidation on an 8x8 mesh ({measure_cycles} measured cycles):\n");
    println!("{}", t.render());
    println!(
        "Expected: AFC completes as many apache transactions as the\n\
         backpressured network (its hot quadrant runs backpressured) while\n\
         beating everyone's energy (its idle quadrants run gated)."
    );
}
