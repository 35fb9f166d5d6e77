//! Table I (router pipeline stages) and Tables II-IV (configurations),
//! printed from the code's actual constants so drift is impossible.
//!
//! Each table renders as an independent job on the sweep engine; output
//! order is fixed by the spec regardless of `--threads`.

use afc_bench::report::Table;
use afc_bench::sweep;
use afc_core::AfcConfig;
use afc_netsim::channel::Channel;
use afc_netsim::config::NetworkConfig;
use afc_traffic::workloads;

fn table_pipelines() -> String {
    let mut out = String::from("Table I: router pipeline stages (all mechanisms are 2-stage)\n\n");
    let mut t = Table::new(vec!["flow control", "stage 1", "stage 2", "link traversal"]);
    t.row(vec![
        "backpressured".into(),
        "SA (PV->P), LAR parallel, 0-cycle VCA".into(),
        "ST + partial LT".into(),
        "partial LT + input BW".into(),
    ]);
    t.row(vec![
        "backpressureless".into(),
        "R + SA (P->P)".into(),
        "ST + partial LT".into(),
        "partial LT + latch write".into(),
    ]);
    t.row(vec![
        "AFC (backpressureless mode)".into(),
        "R + SA (P->P)".into(),
        "ST + partial LT".into(),
        "partial LT + latch write".into(),
    ]);
    t.row(vec![
        "AFC (backpressured mode)".into(),
        "SA (PV->P), LAR parallel".into(),
        "ST + partial LT".into(),
        "partial LT + lazy VCA at input BW".into(),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "Simulator realization: per-hop latency = 2 + L cycles (channel forward delay {} for L = 2).\n\n",
        Channel::new(2).forward_delay()
    ));
    out
}

fn table_machine() -> String {
    let mut out = String::from("Table II: simulated machine configuration\n\n");
    let cfg = NetworkConfig::paper_3x3();
    let afc = AfcConfig::paper();
    let mut t = Table::new(vec!["parameter", "value"]);
    t.row(vec![
        "network".into(),
        format!(
            "{}x{} mesh, {}-cycle links",
            cfg.width, cfg.height, cfg.link_latency
        ),
    ]);
    t.row(vec![
        "virtual networks".into(),
        format!(
            "{} ({} VCs total per port)",
            cfg.vnet_count(),
            cfg.total_vcs_per_port()
        ),
    ]);
    t.row(vec![
        "baseline buffers".into(),
        format!(
            "{} flits/port (8-flit deep VCs)",
            cfg.buffer_flits_per_port()
        ),
    ]);
    t.row(vec![
        "AFC buffers (lazy VCs)".into(),
        format!(
            "{} flits/port ({}+{}+{} one-flit VCs)",
            afc.buffer_flits_per_port(&cfg),
            afc.control_vcs,
            afc.control_vcs,
            afc.data_vcs
        ),
    ]);
    t.row(vec![
        "flit widths (bits)".into(),
        format!(
            "{} backpressured / {} backpressureless / {} AFC",
            afc_routers::backpressured::FLIT_WIDTH_BITS,
            afc_routers::deflection::FLIT_WIDTH_BITS,
            afc_core::router::FLIT_WIDTH_BITS
        ),
    ]);
    t.row(vec![
        "AFC thresholds (fwd/rev)".into(),
        format!(
            "corner {:?}, edge {:?}, center {:?}",
            afc.thresholds.corner, afc.thresholds.edge, afc.thresholds.center
        ),
    ]);
    t.row(vec![
        "EWMA".into(),
        format!(
            "weight {} over a {}-cycle load window",
            afc.ewma_weight, afc.load_window
        ),
    ]);
    t.row(vec![
        "gossip threshold X".into(),
        format!(
            "{} (2L + 2)",
            afc.effective_gossip_threshold(cfg.link_latency)
        ),
    ]);
    out.push_str(&t.render());
    out.push('\n');
    out
}

fn table_workloads() -> String {
    let mut out = String::from("Table III: workloads (calibrated closed-loop presets)\n\n");
    let mut t = Table::new(vec![
        "workload",
        "class",
        "threads/node",
        "think (cyc)",
        "L2 miss",
        "writeback",
        "paper inj. rate",
    ]);
    for w in workloads::all() {
        let class = if w.paper_injection_rate > 0.5 {
            "high"
        } else {
            "low"
        };
        t.row(vec![
            w.name.into(),
            class.into(),
            w.threads.to_string(),
            format!("{:.0}", w.think_mean),
            format!("{:.2}", w.l2_miss_rate),
            format!("{:.2}", w.writeback_rate),
            format!("{:.2}", w.paper_injection_rate),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("(run the `calibrate` binary for measured vs. paper injection rates)\n");
    out
}

fn main() {
    sweep::HarnessArgs::from_env_or_exit(&[], &[]);
    let sections = sweep::run_sweep("table1-sections", &[0usize, 1, 2], |_, &i| match i {
        0 => table_pipelines(),
        1 => table_machine(),
        2 => table_workloads(),
        _ => unreachable!(),
    });
    for s in &sections {
        print!("{s}");
    }
    let timing = sweep::write_timing_report("table1").expect("writable results dir");
    println!("(timing: {})", timing.display());
}
