//! Self-healing timeline: kill → degrade → heal → recover.
//!
//! For each of the four flow-control mechanisms the run injects open-loop
//! uniform-random traffic on an 8x8 mesh, severs every link of a central
//! node mid-run, revives them a few thousand cycles later, and samples
//! delivered flits per window to build a throughput timeline. Three phase
//! averages summarise the curve:
//!
//! * **pre-fault** — steady state before the kill,
//! * **degraded**  — after fault detection, while the repair plane routes
//!   around the hole and the NI retransmits into it,
//! * **healed**    — after revival gossip reconverges and the credit
//!   re-sync handshake restores the revived links' flow control.
//!
//! The headline figure is the recovery ratio `healed / pre-fault`; the
//! self-healing contract (DESIGN.md §15) targets >= 95% for every
//! mechanism. Writes machine-readable `results/BENCH_healing.json` under
//! the current directory, like every other benchmark artifact.

use afc_bench::mechanisms::Mechanism;
use afc_bench::report::{percent, Table};
use afc_core::AfcFactory;
use afc_netsim::config::{NetworkConfig, RetransmitConfig};
use afc_netsim::faults::FaultPlan;
use afc_netsim::geom::Coord;
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_routers::{BackpressuredFactory, DeflectionFactory, DropFactory};
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;

/// The four routers of the paper's comparison, in figure order.
fn healing_mechanisms() -> Vec<Mechanism> {
    vec![
        Mechanism::new("backpressured", Box::new(BackpressuredFactory::new())),
        Mechanism::new("backpressureless", Box::new(DeflectionFactory::new())),
        Mechanism::new("drop", Box::new(DropFactory::new())),
        Mechanism::new("afc", Box::new(AfcFactory::paper())),
    ]
}

/// One mechanism's measured timeline and phase summary.
struct HealingRow {
    label: &'static str,
    pre: f64,
    degraded: f64,
    healed: f64,
    links_failed: u64,
    links_revived: u64,
    reroutes: u64,
    outcome: String,
    /// `(window_end_cycle, flits_delivered_in_window)` samples.
    timeline: Vec<(u64, u64)>,
}

impl HealingRow {
    fn recovery_ratio(&self) -> f64 {
        self.healed / self.pre.max(1e-12)
    }
}

fn main() {
    let args = afc_bench::sweep::HarnessArgs::from_env_or_exit(&["--quick"], &["--seed"]);
    let quick = args.has("--quick");
    let seed = args.value_or_exit("--seed").unwrap_or(1u64);

    // Timeline geometry. The settle margin after each transition keeps the
    // phase averages clear of the detection delay, the gossip wavefront,
    // and the post-heal backlog drain spike.
    let (kill_at, revive_at, inject, drain) = if quick {
        (1_500u64, 4_000u64, 8_000u64, 100_000u64)
    } else {
        (3_000u64, 9_000u64, 18_000u64, 400_000u64)
    };
    const WINDOW: u64 = 250;
    let settle = if quick { 750 } else { 1_500 };

    println!("Self-healing timeline: 8x8 mesh, uniform random load 0.10, seed {seed}");
    println!(
        "node 3,3 loses all four links at cycle {kill_at}, revived at cycle {revive_at}; \
         injection stops at {inject}\n"
    );

    let mechs = healing_mechanisms();
    let jobs: Vec<usize> = (0..mechs.len()).collect();
    let rows: Vec<HealingRow> = afc_bench::sweep::run_sweep("healing", &jobs, |_, &mi| {
        let m = &mechs[mi];
        let cfg = NetworkConfig {
            retransmit: Some(RetransmitConfig {
                timeout: 300,
                backoff_cap: 2,
                max_attempts: 0,
            }),
            ..NetworkConfig::paper_8x8()
        };
        let mesh = cfg.mesh().expect("valid 8x8 mesh");
        let hub = mesh.node_at(Coord::new(3, 3)).expect("3,3 in 8x8");
        let cfg = NetworkConfig {
            faults: FaultPlan::none()
                .kill_node(hub, kill_at)
                .revive_node(hub, revive_at),
            ..cfg
        };
        let network = Network::new(cfg, m.factory.as_ref(), seed).expect("valid configuration");
        let traffic = OpenLoopTraffic::new(
            RateSpec::Uniform(0.10),
            Pattern::UniformRandom,
            PacketMix::paper(),
            seed,
        );
        let mut sim = Simulation::new(network, traffic);

        let mut timeline: Vec<(u64, u64)> = Vec::new();
        let mut last_delivered = 0u64;
        let mut error = None;
        while sim.network.now() < inject {
            if let Err(e) = sim.try_run(WINDOW) {
                error = Some(e);
                break;
            }
            let delivered = sim.network.stats().flits_delivered;
            timeline.push((sim.network.now(), delivered - last_delivered));
            last_delivered = delivered;
        }
        let outcome = match &error {
            Some(e) => format!("ERROR: {e}"),
            None => {
                sim.traffic.stop();
                match sim.try_drain(drain) {
                    Ok(true) => "drained".to_string(),
                    Ok(false) => "drain budget exhausted".to_string(),
                    Err(e) => format!("ERROR: {e}"),
                }
            }
        };

        // Phase average: mean flits/cycle over whole windows inside
        // [from, to). The first pre-fault window is warmup and skipped.
        let phase_mean = |from: u64, to: u64| -> f64 {
            let windows: Vec<&(u64, u64)> = timeline
                .iter()
                .filter(|(end, _)| *end > from + WINDOW && *end <= to)
                .collect();
            if windows.is_empty() {
                return 0.0;
            }
            let flits: u64 = windows.iter().map(|(_, d)| d).sum();
            flits as f64 / (windows.len() as u64 * WINDOW) as f64
        };
        let s = sim.network.stats();
        HealingRow {
            label: m.label,
            pre: phase_mean(WINDOW, kill_at),
            degraded: phase_mean(kill_at + settle, revive_at),
            healed: phase_mean(revive_at + settle, inject),
            links_failed: s.links_failed,
            links_revived: s.links_revived,
            reroutes: sim.network.total_counters().reroutes,
            outcome,
            timeline,
        }
    });

    let mut t = Table::new(vec![
        "mechanism",
        "pre-fault fl/cy",
        "degraded fl/cy",
        "healed fl/cy",
        "recovery",
        "killed/revived",
        "reroutes",
        "outcome",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut worst: Option<(&str, f64)> = None;
    for r in &rows {
        let ratio = r.recovery_ratio();
        if worst.is_none_or(|(_, w)| ratio < w) {
            worst = Some((r.label, ratio));
        }
        t.row(vec![
            r.label.to_string(),
            format!("{:.3}", r.pre),
            format!("{:.3}", r.degraded),
            format!("{:.3}", r.healed),
            percent(ratio),
            format!("{}/{}", r.links_failed, r.links_revived),
            r.reroutes.to_string(),
            r.outcome.clone(),
        ]);
        let samples: Vec<String> = r
            .timeline
            .iter()
            .map(|(end, d)| format!("[{end}, {d}]"))
            .collect();
        json_rows.push(format!(
            "    {{\"mechanism\": \"{}\", \"pre_fault_throughput\": {:.4}, \
             \"degraded_throughput\": {:.4}, \"healed_throughput\": {:.4}, \
             \"recovery_ratio\": {:.4}, \"links_failed\": {}, \"links_revived\": {}, \
             \"reroutes\": {}, \"outcome\": \"{}\", \"timeline\": [{}]}}",
            r.label,
            r.pre,
            r.degraded,
            r.healed,
            r.recovery_ratio(),
            r.links_failed,
            r.links_revived,
            r.reroutes,
            r.outcome,
            samples.join(", "),
        ));
    }
    println!("{}", t.render());
    let (worst_label, worst_ratio) = worst.expect("at least one mechanism");
    println!(
        "worst recovery: {worst_label} at {} (target >= 95%)",
        percent(worst_ratio)
    );

    let json = format!(
        "{{\n  \"bench\": \"healing\",\n  \"mesh\": \"8x8\",\n  \"rate\": 0.10,\n  \
         \"kill_at\": {kill_at},\n  \"revive_at\": {revive_at},\n  \
         \"inject_cycles\": {inject},\n  \"window\": {WINDOW},\n  \"seed\": {seed},\n  \
         \"quick\": {quick},\n  \"worst_recovery_ratio\": {worst_ratio:.4},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let json_path = std::path::Path::new("results").join("BENCH_healing.json");
    afc_bench::sweep::write_atomic(&json_path, json.as_bytes()).expect("writable results dir");
    println!("(wrote {})", json_path.display());
}
