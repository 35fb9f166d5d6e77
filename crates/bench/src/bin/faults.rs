//! Fault-injection sweep: resilience of the four flow-control mechanisms
//! under transient link faults, with end-to-end recovery enabled.
//!
//! For each mechanism and per-flit-hop fault rate, the run injects
//! open-loop uniform-random traffic, stops the sources, and drains; the
//! table reports delivery fraction, recovery activity, and latency
//! degradation. A second section demonstrates the liveness watchdogs under
//! a permanent link kill: runs either recover via retransmission or
//! terminate with a structured stall report — never hang.

use afc_bench::mechanisms::Mechanism;
use afc_bench::report::{percent, Table};
use afc_core::AfcFactory;
use afc_netsim::config::{NetworkConfig, RetransmitConfig};
use afc_netsim::error::SimError;
use afc_netsim::faults::FaultPlan;
use afc_netsim::geom::{Coord, Direction};
use afc_routers::{BackpressuredFactory, DeflectionFactory, DropFactory};
use afc_traffic::openloop::{PacketMix, RateSpec};
use afc_traffic::runner::run_fault_scenario;
use afc_traffic::synthetic::Pattern;

/// The four routers of the paper's comparison, in figure order.
fn fault_mechanisms() -> Vec<Mechanism> {
    vec![
        Mechanism::new("backpressured", Box::new(BackpressuredFactory::new())),
        Mechanism::new("backpressureless", Box::new(DeflectionFactory::new())),
        Mechanism::new("drop", Box::new(DropFactory::new())),
        Mechanism::new("afc", Box::new(AfcFactory::paper())),
    ]
}

fn main() {
    let args = afc_bench::sweep::HarnessArgs::from_env_or_exit(&["--quick"], &["--seed"]);
    let quick = args.has("--quick");
    let seed = args.value_or_exit("--seed").unwrap_or(1u64);
    let (inject, drain) = if quick {
        (2_000, 100_000)
    } else {
        (6_000, 400_000)
    };
    let rates: &[f64] = if quick {
        &[0.0, 5e-4, 1e-3]
    } else {
        &[0.0, 1e-4, 5e-4, 1e-3]
    };

    println!("Transient-fault sweep: uniform random load 0.10 flit/node/cycle,");
    println!("drop+corrupt rate per flit-hop, retransmit timeout 600 (cap 2^4), seed {seed}\n");
    let mut t = Table::new(vec![
        "mechanism",
        "fault rate",
        "delivered",
        "recovered",
        "timeouts",
        "corrupted",
        "lost flits",
        "dup drops",
        "mean lat",
        "outcome",
    ]);
    let mechs = fault_mechanisms();
    let jobs: Vec<(usize, f64)> = (0..mechs.len())
        .flat_map(|mi| rates.iter().map(move |&r| (mi, r)))
        .collect();
    let rows = afc_bench::sweep::run_sweep("fault-transient", &jobs, |_, &(mi, rate)| {
        let m = &mechs[mi];
        let cfg = NetworkConfig {
            faults: FaultPlan::uniform_transient(rate, rate),
            retransmit: Some(RetransmitConfig::default()),
            ..NetworkConfig::paper_3x3()
        };
        let out = run_fault_scenario(
            m.factory.as_ref(),
            &cfg,
            RateSpec::Uniform(0.10),
            Pattern::UniformRandom,
            PacketMix::paper(),
            inject,
            drain,
            seed,
        )
        .expect("valid configuration");
        let s = &out.stats;
        let outcome = match &out.error {
            Some(SimError::Stalled { cycle, .. }) => format!("STALLED@{cycle}"),
            Some(e) => format!("ERROR: {e}"),
            None if out.drained => "drained".to_string(),
            None => "drain budget exhausted".to_string(),
        };
        vec![
            m.label.to_string(),
            format!("{rate:.0e}"),
            percent(out.delivered_fraction()),
            s.recovered_packets.to_string(),
            s.retransmit_timeouts.to_string(),
            s.flits_corrupted.to_string(),
            s.flits_lost_to_faults.to_string(),
            s.duplicate_flits_discarded.to_string(),
            s.network_latency
                .mean()
                .map(|l| format!("{l:.1}"))
                .unwrap_or_else(|| "-".into()),
            outcome,
        ]
    });
    for row in rows {
        t.row(row);
    }
    println!("{}", t.render());

    // Permanent-fault demo: kill the center router's east link mid-run.
    // Since the fault-aware routing layer (DESIGN.md §13) landed, every
    // mechanism — including backpressured XY, whose single deterministic
    // path crosses the dead link — detects the kill, gossips the fault
    // map, and detours over the alive graph; the stall watchdog remains
    // as the backstop that turns any residual hang into a structured
    // report instead of an infinite loop.
    println!("\nPermanent link kill: center node (1,1) east output dies at cycle 1000\n");
    let mesh = NetworkConfig::paper_3x3().mesh().expect("valid mesh");
    let center = mesh.node_at(Coord::new(1, 1)).expect("3x3 has a center");
    let mut t = Table::new(vec!["mechanism", "delivered", "recovered", "outcome"]);
    let kill_rows = afc_bench::sweep::run_sweep("fault-link-kill", &mechs, |_, m| {
        let cfg = NetworkConfig {
            faults: FaultPlan::none().kill_link(center, Direction::East, 1_000),
            retransmit: Some(RetransmitConfig::default()),
            stall_watchdog: 20_000,
            ..NetworkConfig::paper_3x3()
        };
        let out = run_fault_scenario(
            m.factory.as_ref(),
            &cfg,
            RateSpec::Uniform(0.10),
            Pattern::UniformRandom,
            PacketMix::paper(),
            if quick { 2_000 } else { 4_000 },
            if quick { 60_000 } else { 120_000 },
            seed,
        )
        .expect("valid configuration");
        let outcome = match &out.error {
            Some(SimError::Stalled {
                cycle, in_flight, ..
            }) => {
                format!("STALLED@{cycle} ({in_flight} flits unaccounted)")
            }
            Some(e) => format!("ERROR: {e}"),
            None if out.drained => "drained (recovered around the dead link)".to_string(),
            None => "still retrying at drain budget".to_string(),
        };
        vec![
            m.label.to_string(),
            percent(out.delivered_fraction()),
            out.stats.recovered_packets.to_string(),
            outcome,
        ]
    });
    for row in kill_rows {
        t.row(row);
    }
    println!("{}", t.render());

    degradation_sweep(quick, seed);

    let timing = afc_bench::sweep::write_timing_report("faults").expect("writable results dir");
    println!("(timing: {})", timing.display());
}

/// Graceful-degradation curve: throughput retained as progressively more
/// links are killed mid-run.
///
/// For each kill count `k` the sweep picks `k` distinct directed links of
/// an 8x8 mesh with a seeded shuffle (the same seed gives the same storm),
/// kills them all at a fixed mid-injection cycle, and measures the
/// delivered fraction per mechanism with bounded retransmission. The
/// headline column is throughput retained relative to the same mechanism's
/// own fault-free (`k = 0`) run, so the curve isolates degradation from
/// baseline throughput differences. Results land in
/// `results/BENCH_degradation.json` and `results/degradation.csv` under the
/// current directory.
fn degradation_sweep(quick: bool, seed: u64) {
    use afc_netsim::rng::SimRng;

    let kill_counts: &[usize] = if quick {
        &[0, 2, 8]
    } else {
        &[0, 1, 2, 4, 8, 16, 32]
    };
    let (inject, drain) = if quick {
        (1_500, 60_000)
    } else {
        (3_000, 200_000)
    };
    const KILL_AT: u64 = 500;

    let base_cfg = NetworkConfig::paper_8x8();
    let mesh = base_cfg.mesh().expect("valid 8x8 mesh");
    // Every directed link of the mesh, in deterministic node/direction
    // order, then seed-shuffled once; kill count `k` takes the prefix so
    // larger storms strictly contain smaller ones.
    let mesh_ref = &mesh;
    let mut links: Vec<(afc_netsim::geom::NodeId, Direction)> = mesh
        .nodes()
        .flat_map(|n| {
            Direction::ALL
                .into_iter()
                .filter(move |&d| mesh_ref.neighbor(n, d).is_some())
                .map(move |d| (n, d))
        })
        .collect();
    let mut rng = SimRng::seed_from(seed ^ 0xDE64);
    rng.shuffle(&mut links);

    println!(
        "\nDegradation curve: 8x8 mesh, uniform random load 0.10, {} links killed at cycle {KILL_AT},",
        kill_counts
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join("/"),
    );
    println!("retransmit timeout 300 (cap 2^2, max 4 attempts), seed {seed}\n");

    let mechs = fault_mechanisms();
    let jobs: Vec<(usize, usize)> = (0..mechs.len())
        .flat_map(|mi| kill_counts.iter().map(move |&k| (mi, k)))
        .collect();
    let rows = afc_bench::sweep::run_sweep("fault-degradation", &jobs, |_, &(mi, k)| {
        let m = &mechs[mi];
        let mut plan = FaultPlan::none();
        for &(node, dir) in &links[..k] {
            plan = plan.kill_link(node, dir, KILL_AT);
        }
        let cfg = NetworkConfig {
            faults: plan,
            retransmit: Some(RetransmitConfig {
                timeout: 300,
                backoff_cap: 2,
                max_attempts: 4,
            }),
            ..NetworkConfig::paper_8x8()
        };
        let out = run_fault_scenario(
            m.factory.as_ref(),
            &cfg,
            RateSpec::Uniform(0.10),
            Pattern::UniformRandom,
            PacketMix::paper(),
            inject,
            drain,
            seed,
        )
        .expect("valid configuration");
        let s = &out.stats;
        let outcome = match &out.error {
            Some(e) => format!("ERROR: {e}"),
            None if out.drained => "drained".to_string(),
            None => "drain budget exhausted".to_string(),
        };
        (
            m.label,
            k,
            out.delivered_fraction(),
            s.links_failed,
            out.network.total_counters().reroutes,
            s.packets_unreachable,
            outcome,
        )
    });

    // Throughput retained is relative to the same mechanism's k = 0 row.
    let mut baseline = std::collections::HashMap::new();
    for &(label, k, delivered, ..) in &rows {
        if k == 0 {
            baseline.insert(label, delivered);
        }
    }
    let mut t = Table::new(vec![
        "mechanism",
        "links killed",
        "delivered",
        "retained",
        "links detected",
        "reroutes",
        "unreachable",
        "outcome",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    for (label, k, delivered, failed, reroutes, unreachable, outcome) in &rows {
        let retained = delivered / baseline.get(label).copied().unwrap_or(1.0).max(1e-12);
        t.row(vec![
            label.to_string(),
            k.to_string(),
            percent(*delivered),
            percent(retained),
            failed.to_string(),
            reroutes.to_string(),
            unreachable.to_string(),
            outcome.clone(),
        ]);
        json_rows.push(format!(
            "    {{\"mechanism\": \"{label}\", \"links_killed\": {k}, \
             \"delivered_fraction\": {delivered:.4}, \"throughput_retained\": {retained:.4}, \
             \"links_detected\": {failed}, \"reroutes\": {reroutes}, \
             \"packets_unreachable\": {unreachable}, \"outcome\": \"{outcome}\"}}"
        ));
    }
    println!("{}", t.render());

    let json = format!(
        "{{\n  \"bench\": \"degradation\",\n  \"mesh\": \"8x8\",\n  \"rate\": 0.10,\n  \
         \"kill_at\": {KILL_AT},\n  \"inject_cycles\": {inject},\n  \"seed\": {seed},\n  \
         \"quick\": {quick},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let results = std::path::Path::new("results");
    let json_path = results.join("BENCH_degradation.json");
    afc_bench::sweep::write_atomic(&json_path, json.as_bytes()).expect("writable results dir");
    let csv_path = results.join("degradation.csv");
    afc_bench::sweep::write_atomic(&csv_path, t.to_csv().as_bytes()).expect("writable results dir");
    println!("(wrote {} and {})", json_path.display(), csv_path.display());
}
