//! Sweet-spot crossover analysis (the paper's central motivation,
//! quantified): sweep offered load and find where the backpressureless
//! router's energy-per-flit crosses the backpressured router's.
//!
//! Below the crossover, bufferless routing is the energy-optimal choice; above
//! it, backpressured routing is. AFC's energy curve should hug the lower
//! envelope of the two across the whole sweep.

use afc_bench::experiments::open_loop_grid;
use afc_bench::mechanisms::fig2_mechanisms;
use afc_bench::report::Table;
use afc_energy::{EnergyModel, EnergyParams};
use afc_netsim::config::NetworkConfig;
use afc_traffic::openloop::PacketMix;
use afc_traffic::synthetic::Pattern;

fn main() {
    let quick = afc_bench::sweep::HarnessArgs::from_env_or_exit(&["--quick"], &[]).has("--quick");
    let (warmup, measure) = if quick {
        (1_500, 6_000)
    } else {
        (3_000, 20_000)
    };
    let rates: Vec<f64> = (1..=10).map(|i| i as f64 * 0.05).collect();
    let cfg = NetworkConfig::paper_3x3();
    let mechs = fig2_mechanisms();

    // energy per delivered flit (pJ), per mechanism, per rate — one grid
    // job per (mechanism, rate) point.
    let model = EnergyModel::new(EnergyParams::micro2010_70nm());
    let points = open_loop_grid(
        &mechs,
        &rates,
        &cfg,
        Pattern::UniformRandom,
        PacketMix::paper(),
        warmup,
        measure,
        1,
        |m, _, out| m.price(&model, &out.network).total() / out.stats.flits_delivered.max(1) as f64,
    );
    let curves: Vec<(&str, Vec<f64>)> = mechs
        .iter()
        .zip(points.chunks(rates.len()))
        .map(|(m, pts)| (m.label, pts.to_vec()))
        .collect();

    let mut t = Table::new(
        std::iter::once("rate".to_string())
            .chain(curves.iter().map(|(l, _)| l.to_string()))
            .chain(std::iter::once("winner".to_string()))
            .collect::<Vec<_>>()
            .iter()
            .map(String::as_str)
            .collect(),
    );
    let col = |label: &str| {
        curves
            .iter()
            .position(|(l, _)| *l == label)
            .expect("present")
    };
    let bp = col("backpressured");
    let bless = col("backpressureless");
    let afc = col("afc");
    let mut crossover = None;
    for (i, &rate) in rates.iter().enumerate() {
        let winner = if curves[bless].1[i] < curves[bp].1[i] {
            "backpressureless"
        } else {
            if crossover.is_none() {
                crossover = Some(rate);
            }
            "backpressured"
        };
        let mut cells = vec![format!("{rate:.2}")];
        for (_, pts) in &curves {
            cells.push(format!("{:.1}", pts[i]));
        }
        cells.push(winner.to_string());
        t.row(cells);
    }
    println!("Energy per delivered flit (pJ), uniform random open loop on the 3x3 mesh:\n");
    println!("{}", t.render());
    match crossover {
        Some(r) => {
            println!("Backpressureless loses its energy advantage near {r:.2} flits/node/cycle.")
        }
        None => println!("No crossover within the swept range."),
    }
    // How well does AFC hug the lower envelope?
    let worst_excess = rates
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let envelope = curves[bp].1[i].min(curves[bless].1[i]);
            curves[afc].1[i] / envelope
        })
        .fold(0.0f64, f64::max);
    println!(
        "AFC stays within {:.0}% of the per-rate lower envelope across the sweep.",
        (worst_excess - 1.0) * 100.0
    );
    let timing = afc_bench::sweep::write_timing_report("crossover").expect("writable results dir");
    println!("(timing: {})", timing.display());
}
