//! The `afc-noc` command-line tool: run closed-loop workloads or open-loop
//! sweeps from the shell. See `afc-noc help`.

use afc_noc::cli::{
    mechanism_accounting, mechanism_factory, pattern_by_name, workload_by_name, Cli, FaultArgs,
    InspectArgs, RunArgs, SweepArgs, MECHANISMS, PATTERNS, USAGE, WORKLOADS,
};
use afc_noc::netsim::config::RetransmitConfig;
use afc_noc::prelude::*;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match Cli::parse(&args) {
        Cli::Help(None) => {
            print!("{USAGE}");
            0
        }
        Cli::Help(Some(msg)) => {
            eprintln!("error: {msg}\n");
            eprint!("{USAGE}");
            2
        }
        Cli::List => {
            println!("mechanisms: {}", MECHANISMS.join(", "));
            println!("workloads:  {}", WORKLOADS.join(", "));
            println!("patterns:   {}", PATTERNS.join(", "));
            0
        }
        Cli::Run(run) => match do_run(&run) {
            Ok(()) => 0,
            Err(msg) => {
                eprintln!("error: {msg}");
                2
            }
        },
        Cli::Inspect(inspect) => match do_inspect(&inspect) {
            Ok(()) => 0,
            Err(msg) => {
                eprintln!("error: {msg}");
                2
            }
        },
        Cli::Sweep(sweep) => match do_sweep(&sweep) {
            Ok(()) => 0,
            Err(msg) => {
                eprintln!("error: {msg}");
                2
            }
        },
        Cli::Faults(faults) => match do_faults(&faults) {
            Ok(()) => 0,
            Err(msg) => {
                eprintln!("error: {msg}");
                2
            }
        },
    };
    std::process::exit(code);
}

fn net_config(mesh: (u16, u16)) -> NetworkConfig {
    net_config_threaded(mesh, 1)
}

fn net_config_threaded(mesh: (u16, u16), sim_threads: usize) -> NetworkConfig {
    NetworkConfig {
        width: mesh.0,
        height: mesh.1,
        sim_threads,
        ..NetworkConfig::paper_3x3()
    }
}

fn do_run(args: &RunArgs) -> Result<(), String> {
    let factory = mechanism_factory(&args.mechanism)?;
    let workload = workload_by_name(&args.workload)?;
    let cfg = net_config_threaded(args.mesh, args.sim_threads);
    let kind = RunKind::ClosedLoop {
        workload,
        warmup_txns: args.warmup,
        measure_txns: args.txns,
        max_cycles: 500_000_000,
    };
    let env = RunEnv {
        checkpoint: CheckpointPolicy {
            every: args.checkpoint_every,
            file: (args.checkpoint_every > 0).then_some(Path::new(&args.checkpoint_file)),
            resume_from: args.resume_from.as_deref().map(Path::new),
        },
        ..RunEnv::default()
    };
    let out = run(&kind, factory.as_ref(), &cfg, args.seed, env).map_err(|e| e.to_string())?;
    let energy = EnergyModel::new(EnergyParams::micro2010_70nm())
        .price_network_as(&out.network, mechanism_accounting(&args.mechanism));
    let nodes = out.network.mesh().node_count();
    println!(
        "mechanism={} workload={} mesh={}x{} seed={}",
        args.mechanism, args.workload, args.mesh.0, args.mesh.1, args.seed
    );
    println!("cycles:            {}", out.measured_cycles);
    println!(
        "injection rate:    {:.3} flits/node/cycle",
        out.injection_rate()
    );
    println!(
        "throughput:        {:.3} flits/node/cycle",
        out.stats.throughput(nodes)
    );
    println!(
        "packet latency:    mean {:.1}  p50 {}  p95 {}  p99 {} cycles",
        out.stats.network_latency.mean().unwrap_or(f64::NAN),
        pct(&out.stats, 0.50),
        pct(&out.stats, 0.95),
        pct(&out.stats, 0.99),
    );
    println!(
        "energy:            {:.2} uJ (buffer {:.1}%, link {:.1}%, rest {:.1}%)",
        energy.total() / 1e6,
        100.0 * energy.buffer() / energy.total(),
        100.0 * energy.link / energy.total(),
        100.0 * energy.rest_of_router() / energy.total(),
    );
    println!(
        "mode residency:    {:.1}% backpressured; switches fwd/rev/gossip = {}/{}/{}",
        100.0 * out.stats.backpressured_fraction(),
        out.counters.mode_switches_forward,
        out.counters.mode_switches_reverse,
        out.counters.mode_switches_gossip,
    );
    println!(
        "deflections/flit:  {:.3}   drops: {}   credit-stall cycles: {}",
        out.stats.flit_deflections.mean().unwrap_or(0.0),
        out.counters.drops,
        out.counters.credit_stall_cycles,
    );
    Ok(())
}

fn pct(stats: &afc_netsim::stats::NetworkStats, p: f64) -> String {
    stats
        .network_latency_hist
        .percentile(p)
        .map(|v| v.to_string())
        .unwrap_or_else(|| "-".into())
}

fn do_inspect(args: &InspectArgs) -> Result<(), String> {
    let workload = workload_by_name(&args.workload)?;
    let cfg = net_config(args.mesh);
    let network = Network::new(cfg, &AfcFactory::paper(), args.seed).map_err(|e| e.to_string())?;
    let nodes = network.mesh().node_count();
    let traffic = ClosedLoopTraffic::new(workload, nodes, args.seed);
    let mut sim = Simulation::new(network, traffic);
    sim.run(args.cycles);
    println!(
        "AFC on {}x{} running {} for {} cycles\n",
        args.mesh.0, args.mesh.1, args.workload, args.cycles
    );
    println!("mode map ('#' backpressured, '+' transitioning, '.' backpressureless):");
    print!("{}", afc_netsim::trace::render_mode_map(&sim.network));
    println!("\nnode   mode              load   occupancy");
    let mesh = sim.network.mesh().clone();
    for node in mesh.nodes() {
        let r = sim.network.router(node);
        println!(
            "{:<6} {:<17} {:>5.2}  {:>5}",
            node.to_string(),
            format!("{:?}", r.mode()),
            r.load_estimate().unwrap_or(f64::NAN),
            r.occupancy(),
        );
    }
    let c = sim.network.total_counters();
    println!(
        "\nswitches fwd/rev/gossip: {}/{}/{}   backpressured cycles: {:.1}%",
        c.mode_switches_forward,
        c.mode_switches_reverse,
        c.mode_switches_gossip,
        100.0 * sim.network.stats().backpressured_fraction(),
    );
    Ok(())
}

fn do_faults(args: &FaultArgs) -> Result<(), String> {
    let factory = mechanism_factory(&args.mechanism)?;
    let mut plan = FaultPlan::uniform_transient(args.drop, args.corrupt);
    if args.credit_loss > 0.0 {
        plan = plan.with_credit_loss(args.credit_loss);
    }
    let mut cfg = net_config(args.mesh);
    let mesh = cfg.mesh().map_err(|e| e.to_string())?;
    let node_at = |flag: &str, x: u16, y: u16| {
        mesh.node_at(Coord::new(x, y)).ok_or_else(|| {
            format!(
                "--{flag} node {x},{y} is outside the {}x{} mesh",
                args.mesh.0, args.mesh.1
            )
        })
    };
    if let Some((x, y, dir, at)) = args.kill {
        plan = plan.kill_link(node_at("kill", x, y)?, dir, at);
    }
    if let Some((x, y, at)) = args.kill_node {
        plan = plan.kill_node(node_at("kill-node", x, y)?, at);
    }
    if let Some((y, at)) = args.kill_row {
        plan = plan.kill_row(y, at);
    }
    if let Some((x, at)) = args.kill_column {
        plan = plan.kill_column(x, at);
    }
    if let Some((x0, y0, x1, y1, at)) = args.kill_region {
        plan = plan.kill_region(x0, y0, x1, y1, at);
    }
    if let Some(after) = args.revive_after {
        plan = plan.with_revive_after(after);
    }
    if let Some((seed, period, duty)) = args.fault_churn {
        plan = plan.with_churn(&mesh, seed, period, duty, args.cycles);
    }
    cfg.faults = plan;
    cfg.retransmit = (args.timeout > 0).then_some(RetransmitConfig {
        timeout: args.timeout,
        max_attempts: args.max_retransmit,
        ..RetransmitConfig::default()
    });
    cfg.validate().map_err(|e| e.to_string())?;

    let out = run_fault_scenario(
        factory.as_ref(),
        &cfg,
        RateSpec::Uniform(args.rate),
        Pattern::UniformRandom,
        PacketMix::paper(),
        args.cycles,
        args.drain,
        args.seed,
    )
    .map_err(|e| e.to_string())?;
    let s = &out.stats;
    println!(
        "mechanism={} mesh={}x{} seed={} drop={:.1e} corrupt={:.1e} credit-loss={:.1e}",
        args.mechanism,
        args.mesh.0,
        args.mesh.1,
        args.seed,
        args.drop,
        args.corrupt,
        args.credit_loss,
    );
    println!(
        "offered/delivered: {} / {} packets ({:.2}%)",
        s.packets_offered,
        s.packets_delivered,
        100.0 * out.delivered_fraction()
    );
    println!(
        "faults injected:   {} (dropped flits {}, corrupted {}, credits lost {})",
        s.faults_injected, s.flits_lost_to_faults, s.flits_corrupted, s.credits_lost
    );
    println!(
        "recovery:          {} packets recovered, {} timeouts, {} retransmitted flits, {} dup flits discarded",
        s.recovered_packets, s.retransmit_timeouts, s.flits_retransmitted,
        s.duplicate_flits_discarded
    );
    let reroutes = out.network.total_counters().reroutes;
    println!(
        "degradation:       {} links failed, {} revived, {} fault-aware reroutes, {} packets unreachable, {} reassemblies expired",
        s.links_failed, s.links_revived, reroutes, s.packets_unreachable, s.reassemblies_expired
    );
    println!(
        "packet latency:    mean {:.1}  p99 {} cycles",
        s.network_latency.mean().unwrap_or(f64::NAN),
        pct(s, 0.99),
    );
    match &out.error {
        Some(e) => println!("outcome:           {e}"),
        None if out.drained => println!("outcome:           drained at cycle {}", out.ran_cycles),
        None => println!(
            "outcome:           drain budget exhausted at cycle {} ({} flits in flight)",
            out.ran_cycles,
            out.network.flits_in_network()
        ),
    }
    let log = out.network.fault_log();
    if !log.is_empty() {
        println!("first fault events (of {}):", log.len());
        for ev in log.iter().take(5) {
            println!("  {ev:?}");
        }
    }
    Ok(())
}

fn do_sweep(args: &SweepArgs) -> Result<(), String> {
    let factory = mechanism_factory(&args.mechanism)?;
    let pattern = pattern_by_name(&args.pattern)?;
    let cfg = net_config_threaded(args.mesh, args.sim_threads);
    println!(
        "mechanism={} pattern={} mesh={}x{}",
        args.mechanism, args.pattern, args.mesh.0, args.mesh.1
    );
    println!("offered   accepted  mean-lat  p99-lat");
    for &rate in &args.rates {
        let out = run_open_loop(
            factory.as_ref(),
            &cfg,
            RateSpec::Uniform(rate),
            pattern.clone(),
            PacketMix::paper(),
            args.cycles / 4,
            args.cycles,
            args.seed,
        )
        .map_err(|e| e.to_string())?;
        let nodes = out.network.mesh().node_count();
        println!(
            "{rate:>7.3}   {:>8.3}  {:>8.1}  {:>7}",
            out.stats.throughput(nodes),
            out.stats.network_latency.mean().unwrap_or(f64::NAN),
            pct(&out.stats, 0.99),
        );
    }
    Ok(())
}
