//! Section V-A "Mode duty cycle and spatial variation": fraction of
//! router-cycles AFC spends in each mode for every workload, plus mode
//! switch counts.

use afc_bench::experiments::closed_loop_matrix;
use afc_bench::mechanisms::Mechanism;
use afc_bench::report::{percent, Table};
use afc_core::AfcFactory;
use afc_netsim::config::NetworkConfig;
use afc_traffic::workloads;

fn main() {
    let quick = afc_bench::sweep::HarnessArgs::from_env_or_exit(&["--quick"], &[]).has("--quick");
    let (warmup, measure) = if quick { (100, 400) } else { (500, 2_000) };
    let mechs = vec![Mechanism::new("afc", Box::new(AfcFactory::paper()))];
    let rows = closed_loop_matrix(
        &mechs,
        &workloads::all(),
        &NetworkConfig::paper_3x3(),
        warmup,
        measure,
        50_000_000,
        1,
    );
    let mut t = Table::new(vec![
        "workload",
        "backpressured",
        "switches fwd",
        "switches rev",
        "gossip",
    ]);
    for r in &rows {
        t.row(vec![
            r.workload.to_string(),
            percent(r.backpressured_fraction),
            r.mode_switches.0.to_string(),
            r.mode_switches.1.to_string(),
            r.mode_switches.2.to_string(),
        ]);
    }
    println!("AFC mode duty cycle (fraction of router-cycles in backpressured mode)\n");
    println!("{}", t.render());
    println!(
        "Paper reference: water/barnes ~99% backpressureless; specjbb/apache >99%\n\
         backpressured; ocean 7% backpressured; oltp 5% backpressureless."
    );
    let timing = afc_bench::sweep::write_timing_report("duty_cycle").expect("writable results dir");
    println!("(timing: {})", timing.display());
}
