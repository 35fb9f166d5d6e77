//! Figure 3: network energy breakdown (buffer / link / rest of router),
//! normalized to the backpressured baseline's total.
//!
//! `--low` prints Figure 3(a) (SPLASH-2 benchmarks), `--high` prints
//! Figure 3(b) (commercial benchmarks); default prints both. `--quick`
//! shortens the runs.

use afc_bench::experiments::{cell, closed_loop_matrix};
use afc_bench::mechanisms::fig2_mechanisms;
use afc_bench::report::{ratio, Table};
use afc_netsim::config::NetworkConfig;
use afc_traffic::closedloop::WorkloadParams;
use afc_traffic::workloads;

fn panel(title: &str, wls: &[WorkloadParams], warmup: u64, measure: u64) {
    let cfg = NetworkConfig::paper_3x3();
    let mechs = fig2_mechanisms();
    let rows = closed_loop_matrix(&mechs, wls, &cfg, warmup, measure, 50_000_000, 1);
    println!("{title}\n");
    for w in wls {
        let base = cell(&rows, w.name, "backpressured").energy.total();
        let mut t = Table::new(vec!["mechanism", "buffer", "link", "rest", "total"]);
        for m in &mechs {
            let e = &cell(&rows, w.name, m.label).energy;
            t.row(vec![
                m.label.to_string(),
                ratio(e.buffer() / base),
                ratio(e.link / base),
                ratio(e.rest_of_router() / base),
                ratio(e.total() / base),
            ]);
        }
        println!("{}:", w.name);
        println!("{}", t.render());
    }
}

fn main() {
    let args =
        afc_bench::sweep::HarnessArgs::from_env_or_exit(&["--quick", "--low", "--high"], &[]);
    let explicit = |f: &str| args.has(f);
    let want = |f: &str| (!explicit("--low") && !explicit("--high")) || explicit(f);
    let (warmup, measure) = if explicit("--quick") {
        (100, 400)
    } else {
        (500, 2_000)
    };
    if want("--low") {
        panel(
            "Figure 3(a): energy breakdown, low-load applications (normalized to backpressured total)",
            &workloads::low_load(),
            warmup,
            measure,
        );
    }
    if want("--high") {
        panel(
            "Figure 3(b): energy breakdown, high-load applications (normalized to backpressured total)",
            &workloads::high_load(),
            warmup,
            measure,
        );
    }
    let timing = afc_bench::sweep::write_timing_report("fig3").expect("writable results dir");
    println!("(timing: {})", timing.display());
}
