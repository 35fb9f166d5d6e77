//! Figure 2: performance and energy robustness, low and high load.
//!
//! Regenerates all four panels of Figure 2:
//!   (a) performance, low-load benchmarks  — `--low  --perf`
//!   (b) network energy, low-load          — `--low  --energy` (+ ideal bypass)
//!   (c) performance, high-load            — `--high --perf`
//!   (d) network energy, high-load         — `--high --energy`
//!
//! With no flags, prints all four panels. Values are normalized to the
//! backpressured baseline, exactly as in the paper (performance: higher is
//! better; energy: lower is better). `--quick` runs a shorter measurement.

use afc_bench::experiments::{geomean, ReplicatedMatrix};
use afc_bench::mechanisms::{all_mechanisms, Mechanism};
use afc_bench::plot::GroupedBars;
use afc_bench::report::{ratio, BarChart, Table};
use afc_netsim::config::NetworkConfig;
use afc_traffic::workloads;

#[derive(Clone)]
struct OutputFlags {
    csv: bool,
    chart: bool,
    /// Directory to write one SVG per panel into, if any.
    svg_dir: Option<String>,
}

/// Prints one panel and returns its CSV rendering (collected into the
/// deterministic `results/fig2.csv` artifact).
fn panel(
    title: &str,
    rows: &ReplicatedMatrix,
    workload_names: &[&str],
    mechanisms: &[&str],
    energy: bool,
    flags: &OutputFlags,
) -> String {
    let mut table = Table::new(
        std::iter::once("mechanism")
            .chain(workload_names.iter().copied())
            .chain(std::iter::once("geomean"))
            .collect(),
    );
    let mut chart = BarChart::new(title, 40);
    let mut chart_data: Vec<(&str, Vec<(String, f64)>)> =
        workload_names.iter().map(|w| (*w, Vec::new())).collect();
    for m in mechanisms {
        let mut cells = vec![m.to_string()];
        let mut values = Vec::new();
        for (i, w) in workload_names.iter().enumerate() {
            let v = if energy {
                rows.energy(w, m, "backpressured")
            } else {
                rows.performance(w, m, "backpressured")
            };
            values.push(v.mean);
            cells.push(if rows.replications() > 1 {
                format!("{v}")
            } else {
                ratio(v.mean)
            });
            chart_data[i].1.push((m.to_string(), v.mean));
        }
        cells.push(ratio(geomean(values)));
        table.row(cells);
    }
    println!("{title}");
    if flags.csv {
        println!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
    }
    if flags.chart {
        for (w, bars) in chart_data {
            let mut g = chart.group(w);
            for (label, v) in bars {
                g = g.bar(&label, v);
            }
            let _ = g;
        }
        // Re-print only the bars (the title already printed above).
        let rendered = chart.render();
        let body = rendered.split_once('\n').map(|x| x.1).unwrap_or("");
        println!("{body}");
    }
    if let Some(dir) = &flags.svg_dir {
        let mut bars = GroupedBars::new(
            title,
            workload_names.iter().map(|w| w.to_string()).collect(),
        );
        for m in mechanisms {
            let values: Vec<f64> = workload_names
                .iter()
                .map(|w| {
                    if energy {
                        rows.energy(w, m, "backpressured").mean
                    } else {
                        rows.performance(w, m, "backpressured").mean
                    }
                })
                .collect();
            bars.series(m, values);
        }
        let slug: String = title
            .chars()
            .take_while(|c| *c != ':')
            .filter(|c| c.is_alphanumeric())
            .collect::<String>()
            .to_lowercase();
        let path = format!("{dir}/{slug}.svg");
        afc_bench::sweep::write_atomic(std::path::Path::new(&path), bars.render_svg().as_bytes())
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
        println!("wrote {path}\n");
    }
    format!("# {title}\n{}", table.to_csv())
}

fn main() {
    let switches = [
        "--quick", "--low", "--high", "--perf", "--energy", "--csv", "--chart",
    ];
    let args =
        afc_bench::sweep::HarnessArgs::from_env_or_exit(&switches, &["--svg", "--replicate"]);
    let explicit = |f: &str| args.has(f);
    let want_load = |f: &str| (!explicit("--low") && !explicit("--high")) || explicit(f);
    let want_metric = |f: &str| (!explicit("--perf") && !explicit("--energy")) || explicit(f);
    let (warmup, measure) = if explicit("--quick") {
        (100, 400)
    } else {
        (500, 2_000)
    };
    let flags = OutputFlags {
        csv: explicit("--csv"),
        chart: explicit("--chart"),
        svg_dir: args.value_or_exit("--svg"),
    };
    // `--replicate N` repeats every run across N seeds and reports
    // mean +/- standard deviation, like the paper's variance bars.
    let replications: u64 = args.value_or_exit("--replicate").unwrap_or(1);
    let seeds: Vec<u64> = (1..=replications.max(1)).collect();

    let cfg = NetworkConfig::paper_3x3();
    let mechs: Vec<Mechanism> = all_mechanisms();
    let low = workloads::low_load();
    let high = workloads::high_load();
    let low_names: Vec<&str> = low.iter().map(|w| w.name).collect();
    let high_names: Vec<&str> = high.iter().map(|w| w.name).collect();

    let fig2_labels = ["backpressured", "backpressureless", "afc-always-bp", "afc"];
    let mut csv_panels: Vec<String> = Vec::new();

    if want_load("--low") {
        let rows = ReplicatedMatrix::run(&mechs, &low, &cfg, warmup, measure, 50_000_000, &seeds);
        if want_metric("--perf") {
            csv_panels.push(panel(
                "Figure 2(a): performance, low load (normalized to backpressured; higher is better)",
                &rows,
                &low_names,
                &fig2_labels,
                false,
                &flags,
            ));
        }
        if want_metric("--energy") {
            let mut labels = fig2_labels.to_vec();
            labels.insert(1, "bp-ideal-bypass");
            labels.insert(1, "bp-read-bypass");
            csv_panels.push(panel(
                "Figure 2(b): network energy, low load (normalized to backpressured; lower is better)",
                &rows,
                &low_names,
                &labels,
                true,
                &flags,
            ));
        }
    }
    if want_load("--high") {
        let rows = ReplicatedMatrix::run(&mechs, &high, &cfg, warmup, measure, 50_000_000, &seeds);
        if want_metric("--perf") {
            csv_panels.push(panel(
                "Figure 2(c): performance, high load (normalized to backpressured; higher is better)",
                &rows,
                &high_names,
                &fig2_labels,
                false,
                &flags,
            ));
        }
        if want_metric("--energy") {
            csv_panels.push(panel(
                "Figure 2(d): network energy, high load (normalized to backpressured; lower is better)",
                &rows,
                &high_names,
                &fig2_labels,
                true,
                &flags,
            ));
        }
    }

    // The deterministic artifact: identical bytes for identical flags,
    // regardless of --threads.
    afc_bench::sweep::write_atomic(
        std::path::Path::new("results/fig2.csv"),
        csv_panels.join("\n").as_bytes(),
    )
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let timing = afc_bench::sweep::write_timing_report("fig2").expect("writable results dir");
    println!("wrote results/fig2.csv (timing: {})", timing.display());
}
