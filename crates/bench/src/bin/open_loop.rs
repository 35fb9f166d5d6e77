//! "Other results" (Section V-A): open-loop uniform-random
//! latency-throughput curves.
//!
//! Expected shape per the paper: (1) all mechanisms achieve similar latency
//! at low loads; (2) AFC and backpressured saturate at near-identical
//! offered loads, while backpressureless saturates earlier.
//!
//! The (mechanism x rate) grid runs as one declarative [`SweepSpec`] on
//! the parallel sweep engine (`--threads N`). Every completed run is
//! recorded in `results/open_loop.manifest` (a sealed snapshot container);
//! rerunning with `--resume` after an interruption executes only the
//! missing runs and produces byte-identical artifacts.

use std::path::Path;

use afc_bench::experiments::open_loop_grid;
use afc_bench::mechanisms::{all_mechanisms, MechanismId};
use afc_bench::report::Table;
use afc_bench::sweep::{self, RunKind, RunSpec, SweepSpec};
use afc_netsim::config::NetworkConfig;
use afc_traffic::openloop::PacketMix;
use afc_traffic::synthetic::Pattern;

fn main() {
    let args = sweep::HarnessArgs::from_env_or_exit(&["--quick", "--resume"], &["--svg"]);
    let quick = args.has("--quick");
    let resume = args.has("--resume");
    // `--svg <path>` additionally writes the latency-throughput curves as
    // an SVG figure.
    let svg_path: Option<String> = args.value_or_exit("--svg");
    let (warmup, measure) = if quick {
        (1_000, 4_000)
    } else {
        (3_000, 15_000)
    };
    let rates: Vec<f64> = if quick {
        vec![0.05, 0.20, 0.35, 0.50, 0.65]
    } else {
        vec![0.02, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90]
    };
    let cfg = NetworkConfig::paper_3x3();
    let mechs = MechanismId::ALL;

    let spec = SweepSpec {
        name: "open-loop".into(),
        net_cfg: cfg.clone(),
        runs: mechs
            .iter()
            .flat_map(|&m| {
                rates.iter().map(move |&rate| RunSpec {
                    mechanism: m,
                    seed: 1,
                    kind: RunKind::OpenLoop {
                        rate,
                        pattern: Pattern::UniformRandom,
                        mix: PacketMix::paper(),
                        warmup_cycles: warmup,
                        measure_cycles: measure,
                    },
                })
            })
            .collect(),
    };
    let manifest = Path::new("results").join("open_loop.manifest");
    let results = spec
        .execute_resumable(&manifest, resume)
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    let csv = Path::new("results").join("open_loop.csv");
    sweep::write_atomic(&csv, results.serialize().as_bytes()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    println!("wrote {}", csv.display());

    println!("Open-loop uniform random traffic, mean packet latency (cycles) by offered load");
    println!("(flits/node/cycle; '-' = saturated: latency diverging / nothing measurable)\n");
    let mut headers = vec!["mechanism".to_string()];
    headers.extend(rates.iter().map(|r| format!("{r:.2}")));
    headers.push("sat. thpt".into());
    let mut t2 = Table::new(headers.iter().map(String::as_str).collect());

    let mut chart = afc_bench::plot::LineChart::new(
        "Open-loop uniform random: mean latency vs offered load",
        "offered load (flits/node/cycle)",
        "mean packet latency (cycles)",
    );
    for (m, points) in mechs.iter().zip(results.outputs.chunks(rates.len())) {
        if svg_path.is_some() {
            chart.series(
                m.label(),
                points
                    .iter()
                    .zip(&rates)
                    .filter(|(p, &offered)| p.throughput >= offered * 0.85)
                    .filter_map(|(p, &offered)| p.mean_latency.map(|l| (offered, l)))
                    .collect(),
            );
        }
        let mut cells = vec![m.label().to_string()];
        for (p, &offered) in points.iter().zip(&rates) {
            // Declare saturation when accepted throughput falls more than
            // 15% below offered load.
            let saturated = p.throughput < offered * 0.85;
            match (p.mean_latency, saturated) {
                (Some(l), false) => cells.push(format!("{l:.0}")),
                (Some(l), true) => cells.push(format!("({l:.0})")),
                (None, _) => cells.push("-".into()),
            }
        }
        let sat = points.iter().map(|p| p.throughput).fold(0.0, f64::max);
        cells.push(format!("{sat:.2}"));
        t2.row(cells);
    }
    println!("{}", t2.render());
    println!("(values in parentheses: offered load exceeds accepted throughput — past saturation)");
    if let Some(path) = &svg_path {
        sweep::write_atomic(Path::new(path), chart.render_svg().as_bytes()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        println!("wrote {path}");
    }

    // Tail-latency view at a light and a heavy (pre-saturation) load.
    // Percentiles need the latency histogram, which the flat sweep output
    // does not carry, so these runs reduce the outcome themselves (planned
    // like the grid above: one simulation per network, not per mechanism).
    println!("\nLatency percentiles (cycles) at representative loads:\n");
    let mut t3 = Table::new(vec![
        "mechanism",
        "p50@0.10",
        "p95@0.10",
        "p99@0.10",
        "p50@0.45",
        "p95@0.45",
        "p99@0.45",
    ]);
    let all = all_mechanisms();
    let percentile_cells = open_loop_grid(
        &all,
        &[0.10, 0.45],
        &cfg,
        Pattern::UniformRandom,
        PacketMix::paper(),
        warmup,
        measure,
        1,
        |_, _, out| {
            let hist = &out.stats.network_latency_hist;
            [0.50, 0.95, 0.99].map(|p| {
                hist.percentile(p)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into())
            })
        },
    );
    for (mi, m) in all.iter().enumerate() {
        let mut cells = vec![m.label.to_string()];
        for chunk in percentile_cells[mi * 2..mi * 2 + 2].iter() {
            cells.extend(chunk.iter().cloned());
        }
        t3.row(cells);
    }
    println!("{}", t3.render());
    let timing = sweep::write_timing_report("open_loop").expect("writable results dir");
    println!("(timing: {})", timing.display());
}
