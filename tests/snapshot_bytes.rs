//! Snapshot bytes, pinned: `(length, FNV-1a-64)` of every kind of saved
//! state the suite writes — a full simulation for each of the seven
//! mechanisms, the fault plane mid-churn, the closed-loop memory model, a
//! run checkpoint file and a sweep manifest. Any change to what a type
//! encodes, or in what order, moves a pin; such a change is a new
//! `FORMAT_VERSION`, so the version is pinned alongside. Every state is
//! written on each engine; on a mismatch the test prints the whole table
//! of new values for the engine that moved.

use afc_bench::sweep::{RunKind as SweepKind, RunOutput, RunSpec, SweepManifest, SweepSpec};
mod common;

use afc_bench::MechanismId;
use afc_netsim::snapshot::{fnv1a64, FORMAT_VERSION};
use afc_noc::prelude::*;
use common::Engine;

fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a64(bytes))
}

fn open_loop(
    cfg: &NetworkConfig,
    id: MechanismId,
    rate: f64,
    seed: u64,
    engine: Engine,
) -> Simulation<OpenLoopTraffic> {
    let factory = id.mechanism().factory;
    let mut network = Network::new(cfg.clone(), factory.as_ref(), seed).expect("valid config");
    engine.apply(&mut network);
    let traffic = OpenLoopTraffic::new(
        RateSpec::Uniform(rate),
        Pattern::UniformRandom,
        PacketMix::paper(),
        seed,
    );
    Simulation::new(network, traffic)
}

/// Every mechanism on an 8×8 mesh at uniform 0.30, after 400 cycles.
fn mesh8_saturated(engine: Engine) -> Vec<(String, (usize, u64))> {
    let cfg = NetworkConfig {
        width: 8,
        height: 8,
        ..NetworkConfig::paper_3x3()
    };
    MechanismId::ALL
        .iter()
        .map(|&id| {
            let mut sim = open_loop(&cfg, id, 0.30, 11, engine);
            sim.run(400);
            engine.assert_ran(&sim.network);
            let snap = sim.snapshot().expect("snapshot");
            (format!("mesh8/{}", id.label()), pin(&snap))
        })
        .collect()
}

/// bp, drop and afc on a 6×6 mesh under link churn and transient
/// corruption, with bounded retransmission on: fault log, pending
/// NACKs/acks and unreachable records are all in the bytes. The
/// probabilistic plan keeps the sharded engine on the serial tracked walk.
fn mesh6_faulted(engine: Engine) -> Vec<(String, (usize, u64))> {
    let mesh = Mesh::new(6, 6).expect("valid mesh");
    let plan = FaultPlan::uniform_transient(0.0, 4e-3).with_churn(&mesh, 0xC0DEC, 90, 0.5, 700);
    let cfg = NetworkConfig {
        width: 6,
        height: 6,
        faults: plan,
        retransmit: Some(RetransmitConfig {
            timeout: 120,
            backoff_cap: 1,
            max_attempts: 2,
        }),
        ..NetworkConfig::paper_3x3()
    };
    let mut unreachable = 0;
    let pins = [
        MechanismId::Backpressured,
        MechanismId::Drop,
        MechanismId::Afc,
    ]
    .iter()
    .map(|&id| {
        let mut sim = open_loop(&cfg, id, 0.20, 5, engine);
        sim.run(600);
        let (_, nacks, acks, _) = sim.network.drain_residue();
        assert!(!sim.network.fault_log().is_empty(), "{id:?}: no faults");
        assert!(nacks + acks > 0, "{id:?}: no pending NACKs or acks");
        unreachable += sim.network.unreachable_packets().len();
        let snap = sim.snapshot().expect("snapshot");
        (format!("mesh6-faults/{}", id.label()), pin(&snap))
    })
    .collect();
    assert!(unreachable > 0, "no packet was given up as unreachable");
    pins
}

/// A 3×3 closed-loop AFC run in the middle of its measurement window.
fn closed_loop(engine: Engine) -> (usize, u64) {
    let factory = AfcFactory::paper();
    let mut network = Network::new(NetworkConfig::paper_3x3(), &factory, 7).expect("valid config");
    engine.apply(&mut network);
    let mut sim = Simulation::new(network, ClosedLoopTraffic::new(workloads::apache(), 9, 7));
    sim.run(1_500);
    engine.assert_ran(&sim.network);
    sim.network.reset_metrics();
    sim.run(700);
    pin(&sim.snapshot().expect("snapshot"))
}

/// The checkpoint file `run` leaves behind for a closed-loop scenario, on
/// an arena network that carries the engine.
fn checkpoint_file(dir: &std::path::Path, engine: Engine) -> (usize, u64) {
    let path = dir.join("run.ckpt");
    let kind = RunKind::ClosedLoop {
        workload: workloads::water(),
        warmup_txns: 60,
        measure_txns: 200,
        max_cycles: 1_000_000,
    };
    let (factory, cfg) = (AfcFactory::paper(), NetworkConfig::paper_3x3());
    let mut arena = Network::new(cfg.clone(), &factory, 3).expect("valid config");
    engine.apply(&mut arena);
    let env = RunEnv {
        arena: Some(arena),
        checkpoint: CheckpointPolicy {
            every: 500,
            file: Some(&path),
            resume_from: None,
        },
    };
    let out = run(&kind, &factory, &cfg, 3, env).expect("run");
    engine.assert_ran(&out.network);
    pin(&std::fs::read(&path).expect("checkpoint written"))
}

/// A two-job manifest of a four-job sweep.
fn manifest_file(dir: &std::path::Path) -> (usize, u64) {
    let runs = [0.05, 0.10, 0.15, 0.20]
        .iter()
        .map(|&rate| RunSpec {
            mechanism: MechanismId::Drop,
            seed: 9,
            kind: SweepKind::OpenLoop {
                rate,
                pattern: Pattern::Transpose,
                mix: PacketMix::single_flit(),
                warmup_cycles: 20,
                measure_cycles: 80,
            },
        })
        .collect();
    let spec = SweepSpec {
        name: "pinned".to_string(),
        net_cfg: NetworkConfig::paper_3x3(),
        runs,
    };
    let output = |label: &str, mean_latency: Option<f64>| RunOutput {
        label: label.to_string(),
        cycles: 80,
        packets_delivered: 17,
        flits_delivered: 17,
        injection_rate: 0.1,
        throughput: 0.0925,
        mean_latency,
        energy_pj: 98.765,
        backpressured_fraction: 0.0,
        mean_deflections: 0.125,
        delivered_fraction: 1.0,
        outcome: "ok".to_string(),
    };
    let mut manifest = SweepManifest::new(&spec);
    manifest.record(2, &output("drop/open@0.150@9", None));
    manifest.record(0, &output("drop/open@0.050@9", Some(7.75)));
    let path = dir.join("pinned.manifest");
    manifest.save(&path).expect("manifest saved");
    pin(&std::fs::read(&path).expect("manifest written"))
}

#[test]
fn snapshot_bytes_are_pinned() {
    assert_eq!(
        FORMAT_VERSION, 8,
        "a layout change bumps FORMAT_VERSION and re-pins this table"
    );
    // Columns: payload length and hash, the same on every engine.
    let pins: &[(&str, usize, u64)] = &[
        ("mesh8/backpressured", 120990, 0x5e3e7bcb678c087a),
        ("mesh8/backpressureless", 69076, 0xe1ceb773cd20bcc6),
        ("mesh8/afc-always-bp", 102257, 0xf67dee5ad5f334ec),
        ("mesh8/afc", 100467, 0xb046e47e23b65f56),
        ("mesh8/bp-read-bypass", 121002, 0xcc9c558de81a6b8d),
        ("mesh8/bp-ideal-bypass", 120990, 0x5e3e7bcb678c087a),
        ("mesh8/drop", 83497, 0x21f48a2436ea384c),
        ("mesh6-faults/backpressured", 71893, 0x3b36e0d99b3de581),
        ("mesh6-faults/drop", 66441, 0x3ea41e7558dc18f3),
        ("mesh6-faults/afc", 62782, 0x727e2829d6d63c1d),
        ("closed-loop/afc", 27386, 0x9eb41ebc7f30aa90),
        ("checkpoint", 10991, 0x37fc51035c5fd080),
        ("manifest", 311, 0x0b75e9baeb03b598),
    ];
    let dir = std::env::temp_dir().join(format!("afc-snapshot-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for engine in Engine::ALL {
        let mut got = mesh8_saturated(engine);
        got.extend(mesh6_faulted(engine));
        got.push(("closed-loop/afc".to_string(), closed_loop(engine)));
        got.push(("checkpoint".to_string(), checkpoint_file(&dir, engine)));
        got.push(("manifest".to_string(), manifest_file(&dir)));
        let expected: Vec<(&str, (usize, u64))> = pins
            .iter()
            .map(|&(k, len, hash)| (k, (len, hash)))
            .collect();
        let got_ref: Vec<(&str, (usize, u64))> =
            got.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        if got_ref != expected {
            let table: String = got
                .iter()
                .map(|(k, (len, sum))| format!("        ({k:?}, {len}, 0x{sum:016x}),\n"))
                .collect();
            panic!("snapshot bytes moved on {engine:?}; new pins:\n{table}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
