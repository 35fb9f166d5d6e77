//! Workload calibration report: measured injection rates vs. Table III.
//!
//! Run with `cargo run --release -p afc-bench --bin calibrate`.

use afc_bench::report::Table;
use afc_netsim::config::NetworkConfig;
use afc_routers::BackpressuredFactory;
use afc_traffic::runner::run_closed_loop;
use afc_traffic::workloads;

fn main() {
    afc_bench::sweep::HarnessArgs::from_env_or_exit(&[], &[]);
    let cfg = NetworkConfig::paper_3x3();
    let factory = BackpressuredFactory::new();
    let mut table = Table::new(vec![
        "workload",
        "paper rate",
        "measured rate",
        "error",
        "cycles/1k txns",
    ]);
    for w in workloads::all() {
        let out = run_closed_loop(&factory, &cfg, w, 300, 1_000, 10_000_000, 1)
            .expect("valid configuration");
        let measured = out.injection_rate();
        let err = (measured - w.paper_injection_rate) / w.paper_injection_rate;
        table.row(vec![
            w.name.to_string(),
            format!("{:.2}", w.paper_injection_rate),
            format!("{measured:.3}"),
            format!("{:+.1}%", err * 100.0),
            format!("{}", out.measured_cycles),
        ]);
    }
    println!("Calibration: closed-loop injection rates on the backpressured baseline");
    println!("(targets from Table III of the paper)\n");
    println!("{}", table.render());
}
