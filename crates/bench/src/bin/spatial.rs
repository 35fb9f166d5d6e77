//! Section V-B: open-loop evaluation for spatial variation.
//!
//! An 8x8 mesh mimicking a consolidation workload: quadrant 0 injects at
//! 0.9 flits/node/cycle, the other three at 0.1, destinations staying
//! within the source quadrant. Paper findings to reproduce:
//!
//! * AFC is the best energy configuration (backpressured ~9% worse,
//!   backpressureless ~30% worse);
//! * backpressured and AFC achieve ~33% lower latency than
//!   backpressureless in the hot quadrant;
//! * the hot quadrant's misrouting degrades a neighboring cool quadrant's
//!   latency under backpressureless routing.

use afc_bench::experiments::spatial_experiment;
use afc_bench::mechanisms::fig2_mechanisms;
use afc_bench::report::{percent, ratio, Table};
use afc_energy::{EnergyModel, EnergyParams};
use afc_netsim::config::NetworkConfig;
use afc_netsim::geom::Coord;
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::{quadrant_of, Pattern};

/// Renders a per-router energy heat map (deciles 0-9 of the busiest
/// router's energy) for the quadrant workload under one mechanism.
fn energy_heatmap(mech: &afc_bench::Mechanism, warmup: u64, measure: u64) -> String {
    let cfg = NetworkConfig::paper_8x8();
    let network = Network::new(cfg, mech.factory.as_ref(), 1).expect("valid");
    let mesh = network.mesh().clone();
    let rates: Vec<f64> = mesh
        .nodes()
        .map(|n| if quadrant_of(n, &mesh) == 0 { 0.9 } else { 0.1 })
        .collect();
    let traffic = OpenLoopTraffic::new(
        RateSpec::PerNode(rates),
        Pattern::Quadrant,
        PacketMix::paper(),
        1,
    );
    let mut sim = Simulation::new(network, traffic);
    sim.run(warmup);
    sim.network.reset_metrics();
    sim.run(measure);
    let model = EnergyModel::new(EnergyParams::micro2010_70nm());
    let per_router = model.price_per_router(&sim.network);
    let max = per_router
        .iter()
        .map(|e| e.total())
        .fold(f64::MIN_POSITIVE, f64::max);
    let mut map = String::new();
    for y in 0..mesh.height() {
        for x in 0..mesh.width() {
            let n = mesh.node_at(Coord::new(x, y)).expect("in bounds");
            let decile = (per_router[n.index()].total() / max * 9.0).round() as u32;
            map.push(char::from_digit(decile.min(9), 10).expect("single digit"));
        }
        map.push('\n');
    }
    map
}

fn main() {
    let quick = afc_bench::sweep::HarnessArgs::from_env_or_exit(&["--quick"], &[]).has("--quick");
    let (warmup, measure) = if quick {
        (2_000, 8_000)
    } else {
        (5_000, 30_000)
    };
    let mechs = fig2_mechanisms();
    let results: Vec<_> = mechs
        .iter()
        .map(|m| spatial_experiment(m, 0.9, 0.1, warmup, measure, 1))
        .collect();
    let afc_energy = results
        .iter()
        .find(|r| r.mechanism == "afc")
        .expect("afc present")
        .energy
        .total();

    let mut t = Table::new(vec![
        "mechanism",
        "energy vs AFC",
        "hot-quad latency",
        "cool-quad latency",
        "bp cycles",
    ]);
    for r in &results {
        let cool: Vec<f64> = (1..4).filter_map(|q| r.latency_by_quadrant[q]).collect();
        let cool_mean = cool.iter().sum::<f64>() / cool.len().max(1) as f64;
        t.row(vec![
            r.mechanism.to_string(),
            ratio(r.energy.total() / afc_energy),
            r.latency_by_quadrant[0]
                .map(|l| format!("{l:.0}"))
                .unwrap_or_else(|| "-".into()),
            format!("{cool_mean:.0}"),
            percent(r.backpressured_fraction),
        ]);
    }
    println!(
        "Spatial variation (8x8 mesh; quadrant 0 @ 0.9 flits/node/cycle, others @ 0.1,\n\
         intra-quadrant destinations). Energy normalized to AFC.\n"
    );
    println!("{}", t.render());

    println!("Per-router energy heat maps (deciles of the busiest router; quadrant 0 = top-left):");
    for label in ["backpressured", "afc"] {
        let mech = mechs.iter().find(|m| m.label == label).expect("present");
        println!("\n{label}:");
        print!("{}", energy_heatmap(mech, warmup, measure));
    }
    println!(
        "\nThe backpressured map burns leakage everywhere (nonzero floor in the idle\n\
         quadrants); AFC's idle quadrants are power-gated, concentrating energy in\n\
         the hot quadrant."
    );
}
