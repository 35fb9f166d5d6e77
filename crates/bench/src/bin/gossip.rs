//! Section V-A gossip observation: closed-loop runs never exercised
//! gossip-induced mode switches, but an open-loop experiment with hotspots
//! does. This binary reproduces that observation.

use afc_bench::report::Table;
use afc_core::AfcFactory;
use afc_netsim::config::NetworkConfig;
use afc_netsim::geom::Coord;
use afc_traffic::openloop::{PacketMix, RateSpec};
use afc_traffic::runner::run_open_loop;
use afc_traffic::synthetic::Pattern;

fn main() {
    let quick = afc_bench::sweep::HarnessArgs::from_env_or_exit(&["--quick"], &[]).has("--quick");
    let (warmup, measure) = if quick {
        (1_000, 8_000)
    } else {
        (2_000, 40_000)
    };
    let cfg = NetworkConfig::paper_8x8();
    let mesh = cfg.mesh().expect("valid mesh");
    let hot = mesh.node_at(Coord::new(3, 3)).expect("center-ish node");
    let factory = AfcFactory::paper();

    println!(
        "Gossip-induced mode switches under open-loop hotspot traffic\n\
         (8x8 AFC mesh; fraction of traffic aimed at node {hot}; rest uniform)\n"
    );
    let mut t = Table::new(vec![
        "rate",
        "hotspot frac",
        "fwd switches",
        "gossip switches",
        "rev switches",
        "mean latency",
    ]);
    for (rate, frac) in [(0.05, 0.0), (0.10, 0.5), (0.15, 0.7), (0.20, 0.8)] {
        let out = run_open_loop(
            &factory,
            &cfg,
            RateSpec::Uniform(rate),
            Pattern::HotSpot {
                hotspots: vec![hot],
                fraction: frac,
            },
            PacketMix::paper(),
            warmup,
            measure,
            1,
        )
        .expect("valid configuration");
        t.row(vec![
            format!("{rate:.2}"),
            format!("{frac:.1}"),
            out.counters.mode_switches_forward.to_string(),
            out.counters.mode_switches_gossip.to_string(),
            out.counters.mode_switches_reverse.to_string(),
            out.mean_latency()
                .map(|l| format!("{l:.0}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Expectation: no gossip at uniform low load; hotspot traffic forces\n\
         gossip switches at routers near the hotspot whose local load is\n\
         still below threshold (the 'sledgehammer' of Section III-D)."
    );
}
