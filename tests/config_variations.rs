//! The simulator beyond the paper's Table II point: different link
//! latencies, ejection bandwidths and mesh shapes, and the AFC
//! configuration-validation rules that tie the gossip threshold to buffer
//! capacity.

use afc_noc::prelude::*;

fn mechanisms() -> Vec<Box<dyn afc_netsim::router::RouterFactory>> {
    vec![
        Box::new(BackpressuredFactory::new()),
        Box::new(DeflectionFactory::new()),
        Box::new(DropFactory::new()),
        Box::new(AfcFactory::paper()),
    ]
}

fn run_and_check(cfg: &NetworkConfig, factory: &dyn afc_netsim::router::RouterFactory) {
    let network = Network::new(cfg.clone(), factory, 21).unwrap();
    let traffic = OpenLoopTraffic::new(
        RateSpec::Uniform(0.08),
        Pattern::UniformRandom,
        PacketMix::paper(),
        21,
    );
    let mut sim = Simulation::new(network, traffic);
    sim.run(4_000);
    sim.traffic.stop();
    assert!(
        sim.drain(500_000),
        "{} on {}x{} L={} eject={} must drain",
        factory.name(),
        cfg.width,
        cfg.height,
        cfg.link_latency,
        cfg.eject_bandwidth
    );
    let stats = sim.network.stats();
    assert_eq!(stats.packets_delivered, stats.packets_offered);
    sim.network.audit().expect("conservation");
}

#[test]
fn single_cycle_links_work_everywhere() {
    let cfg = NetworkConfig {
        link_latency: 1,
        ..NetworkConfig::paper_3x3()
    };
    for f in mechanisms() {
        run_and_check(&cfg, f.as_ref());
    }
}

#[test]
fn long_links_need_bigger_afc_control_buffers() {
    // With L = 4 the gossip threshold is 2*4 + 2 = 10, which exceeds the
    // default 8 one-flit control VCs: AFC must refuse the configuration...
    let cfg = NetworkConfig {
        link_latency: 4,
        ..NetworkConfig::paper_3x3()
    };
    let err = AfcConfig::paper().validate(&cfg).unwrap_err();
    assert!(matches!(
        err,
        afc_netsim::error::ConfigError::BufferTooSmallForGossip {
            capacity: 8,
            required: 10,
            ..
        }
    ));
    // ...and accept it once the control vnets are provisioned for the
    // longer in-flight window.
    let afc_cfg = AfcConfig {
        control_vcs: 12,
        ..AfcConfig::paper()
    };
    afc_cfg.validate(&cfg).expect("12 control VCs cover X = 10");
    run_and_check(&cfg, &AfcFactory::new(afc_cfg));
    // The fixed mechanisms have no such constraint.
    run_and_check(&cfg, &BackpressuredFactory::new());
    run_and_check(&cfg, &DeflectionFactory::new());
}

#[test]
fn wider_ejection_ports_help_the_deflection_router() {
    // Deflection routers deflect locally-destined flits beyond the
    // ejection bandwidth; widening the port reduces deflections.
    let run = |eject: usize| {
        let cfg = NetworkConfig {
            eject_bandwidth: eject,
            ..NetworkConfig::paper_3x3()
        };
        let out = run_open_loop(
            &DeflectionFactory::new(),
            &cfg,
            RateSpec::Uniform(0.45),
            Pattern::UniformRandom,
            PacketMix::paper(),
            2_000,
            8_000,
            23,
        )
        .unwrap();
        out.stats.flit_deflections.mean().unwrap()
    };
    let narrow = run(1);
    let wide = run(2);
    assert!(
        wide < narrow,
        "doubling ejection bandwidth must cut deflections ({narrow:.3} -> {wide:.3})"
    );
}

#[test]
fn non_square_meshes_route_correctly() {
    for (w, h) in [(4, 2), (2, 4), (5, 3), (1, 4)] {
        let cfg = NetworkConfig {
            width: w,
            height: h,
            ..NetworkConfig::paper_3x3()
        };
        for f in mechanisms() {
            run_and_check(&cfg, f.as_ref());
        }
    }
}

#[test]
fn afc_adapts_on_larger_meshes_too() {
    // 5x5 mesh under the apache-class load: the interior still switches.
    let cfg = NetworkConfig {
        width: 5,
        height: 5,
        ..NetworkConfig::paper_3x3()
    };
    let out = run_closed_loop(
        &AfcFactory::paper(),
        &cfg,
        workloads::apache(),
        100,
        400,
        50_000_000,
        25,
    )
    .unwrap();
    assert!(
        out.stats.backpressured_fraction() > 0.5,
        "high load must flip a 5x5 AFC mesh backpressured (got {:.2})",
        out.stats.backpressured_fraction()
    );
    let low = run_closed_loop(
        &AfcFactory::paper(),
        &cfg,
        workloads::water(),
        100,
        400,
        50_000_000,
        25,
    )
    .unwrap();
    assert!(low.stats.backpressured_fraction() < 0.05);
}

#[test]
fn little_law_holds_in_open_loop_steady_state() {
    // Little's law: mean flits in flight = arrival rate x mean latency.
    // Checked loosely on the backpressured network at moderate load.
    let cfg = NetworkConfig::paper_3x3();
    let network = Network::new(cfg, &BackpressuredFactory::new(), 27).unwrap();
    let traffic = OpenLoopTraffic::new(
        RateSpec::Uniform(0.3),
        Pattern::UniformRandom,
        PacketMix::single_flit(),
        27,
    );
    let mut sim = Simulation::new(network, traffic);
    sim.run(3_000);
    sim.network.reset_metrics();
    let mut occupancy_sum = 0usize;
    let cycles = 12_000;
    for _ in 0..cycles {
        sim.step();
        occupancy_sum += sim.network.flits_in_network();
    }
    let stats = sim.network.stats();
    let lambda = stats.flits_delivered as f64 / cycles as f64;
    let mean_latency = stats.network_latency.mean().unwrap();
    let mean_in_flight = occupancy_sum as f64 / cycles as f64;
    let littles = lambda * mean_latency;
    let err = (mean_in_flight - littles).abs() / littles;
    assert!(
        err < 0.15,
        "Little's law: in-flight {mean_in_flight:.1} vs lambda*W {littles:.1} ({err:.2})"
    );
}

/// Node ids are 16 bits: a mesh of more than 65 536 nodes is a
/// configuration error, from the library and from the command line (exit
/// status 2), never a run over truncated ids.
#[test]
fn meshes_beyond_sixteen_bit_node_ids_are_refused() {
    for (width, height, ok) in [(256, 256, true), (257, 256, false), (300, 300, false)] {
        let cfg = NetworkConfig {
            width,
            height,
            ..NetworkConfig::paper_3x3()
        };
        match cfg.mesh() {
            Ok(mesh) => assert!(ok && mesh.node_count() == 65_536),
            Err(e) => {
                assert!(!ok, "{width}x{height}: {e}");
                let ConfigError::OutOfRange { what, .. } = e else {
                    panic!("{width}x{height}: {e}")
                };
                assert_eq!(what, "mesh size");
                let err = Network::new(cfg, &BackpressuredFactory::new(), 1).unwrap_err();
                assert!(err.to_string().contains("mesh size"), "{err}");
            }
        }
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_afc-noc"))
        .args(["run", "--mesh", "300x300", "--txns", "10"])
        .output()
        .expect("afc-noc runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: ") && stderr.contains("mesh size out of range"),
        "{stderr}"
    );
}
