//! Sweet-spot crossover analysis (the paper's central motivation,
//! quantified): sweep offered load and find where the backpressureless
//! router's energy-per-flit crosses the backpressured router's.
//!
//! Below the crossover, bufferless routing is the energy-optimal choice; above
//! it, backpressured routing is. AFC's energy curve should hug the lower
//! envelope of the two across the whole sweep.

use afc_bench::mechanisms::fig2_mechanisms;
use afc_bench::report::Table;
use afc_energy::{EnergyModel, EnergyParams};
use afc_netsim::config::NetworkConfig;
use afc_traffic::openloop::{PacketMix, RateSpec};
use afc_traffic::runner::run_open_loop;
use afc_traffic::synthetic::Pattern;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    afc_bench::sweep::parse_threads_arg_or_exit(&args);
    let quick = args.iter().any(|a| a == "--quick");
    let (warmup, measure) = if quick {
        (1_500, 6_000)
    } else {
        (3_000, 20_000)
    };
    let rates: Vec<f64> = (1..=10).map(|i| i as f64 * 0.05).collect();
    let cfg = NetworkConfig::paper_3x3();
    let mechs = fig2_mechanisms();

    // energy per delivered flit (pJ), per mechanism, per rate — one sweep
    // job per (mechanism, rate) point.
    let jobs: Vec<(usize, f64)> = (0..mechs.len())
        .flat_map(|mi| rates.iter().map(move |&r| (mi, r)))
        .collect();
    let points = afc_bench::sweep::run_sweep("crossover", &jobs, |_, &(mi, rate)| {
        let model = EnergyModel::new(EnergyParams::micro2010_70nm());
        let out = run_open_loop(
            mechs[mi].factory.as_ref(),
            &cfg,
            RateSpec::Uniform(rate),
            Pattern::UniformRandom,
            PacketMix::paper(),
            warmup,
            measure,
            1,
        )
        .expect("valid configuration");
        let energy = mechs[mi].price(&model, &out.network).total();
        let flits = out.stats.flits_delivered.max(1) as f64;
        energy / flits
    });
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
