//! Snapshot/restore round-trip suite: the acceptance tests for the
//! checkpoint subsystem.
//!
//! For every router mechanism × traffic pattern, run an open-loop sim to a
//! seed-drawn "random" cycle, capture a snapshot, restore it into a freshly
//! constructed simulation, and step both for the same tail. The restored
//! run must be **byte-identical** to the uninterrupted original: the same
//! delivered-packet stream (ids and cycles) and — the strongest check — an
//! identical second snapshot, which covers every router register, channel
//! lane, NI queue, RNG stream, counter, and statistic in one comparison.
//!
//! Variants cover the fault plane (retransmissions, fault logs) and the
//! closed-loop memory-system workload; every case runs on the tracked walk
//! and the sharded engine.

mod common;

use afc_netsim::config::{NetworkConfig, RetransmitConfig};
use afc_netsim::faults::FaultPlan;
use afc_netsim::flit::Cycle;
use afc_netsim::network::Network;
use afc_netsim::packet::DeliveredPacket;
use afc_netsim::rng::SimRng;
use afc_netsim::router::RouterFactory;
use afc_netsim::sim::{Simulation, TrafficModel};
use afc_netsim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use afc_noc::prelude::*;
use common::Engine;

fn mechanism(idx: usize) -> (&'static str, Box<dyn RouterFactory>) {
    match idx % 5 {
        0 => ("backpressured", Box::new(BackpressuredFactory::new())),
        1 => ("deflection", Box::new(DeflectionFactory::new())),
        2 => ("drop", Box::new(DropFactory::new())),
        3 => ("afc", Box::new(AfcFactory::paper())),
        _ => (
            "afc-always-bp",
            Box::new(AfcFactory::always_backpressured()),
        ),
    }
}

fn patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        ("uniform", Pattern::UniformRandom),
        ("transpose", Pattern::Transpose),
        ("near-neighbor", Pattern::NearNeighbor),
    ]
}

/// Open-loop traffic that also records every delivery, forwarding the
/// snapshot hooks to the wrapped model (its own log is observation state,
/// cleared at the comparison point rather than serialized).
struct Recorder {
    inner: OpenLoopTraffic,
    log: Vec<(u64, Cycle)>,
}

impl Recorder {
    fn new(inner: OpenLoopTraffic) -> Recorder {
        Recorder {
            inner,
            log: Vec::new(),
        }
    }
}

impl TrafficModel for Recorder {
    fn pre_cycle(&mut self, now: Cycle, net: &mut Network) {
        self.inner.pre_cycle(now, net);
    }
    fn on_delivered(&mut self, packet: &DeliveredPacket, now: Cycle, net: &mut Network) {
        self.inner.on_delivered(packet, now, net);
        self.log.push((packet.descriptor.id.0, packet.delivered_at));
    }
    fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.inner.save_state(w)
    }
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

fn open_loop_sim(
    cfg: &NetworkConfig,
    factory: &dyn RouterFactory,
    pattern: Pattern,
    rate: f64,
    seed: u64,
    engine: Engine,
) -> Simulation<Recorder> {
    let mut network = Network::new(cfg.clone(), factory, seed).expect("valid config");
    engine.apply(&mut network);
    let traffic = OpenLoopTraffic::new(RateSpec::Uniform(rate), pattern, PacketMix::paper(), seed);
    Simulation::new(network, Recorder::new(traffic))
}

/// Core round-trip check on every engine: warm up, snapshot, restore into a
/// fresh sim, run both for `tail` cycles, compare delivered streams and
/// second snapshots.
#[allow(clippy::too_many_arguments)]
fn assert_round_trip(
    cfg: &NetworkConfig,
    factory: &dyn RouterFactory,
    pattern: Pattern,
    rate: f64,
    seed: u64,
    warm: u64,
    tail: u64,
    ctx: &str,
) {
    for engine in Engine::ALL {
        let ctx = &format!("{ctx} on {engine:?}");
        round_trip_on(
            engine,
            cfg,
            factory,
            pattern.clone(),
            rate,
            seed,
            warm,
            tail,
            ctx,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn round_trip_on(
    engine: Engine,
    cfg: &NetworkConfig,
    factory: &dyn RouterFactory,
    pattern: Pattern,
    rate: f64,
    seed: u64,
    warm: u64,
    tail: u64,
    ctx: &str,
) {
    let mut original = open_loop_sim(cfg, factory, pattern.clone(), rate, seed, engine);
    original.run(warm);
    engine.assert_ran(&original.network);
    let snap = original
        .snapshot()
        .unwrap_or_else(|e| panic!("{ctx}: snapshot failed: {e}"));

    let mut restored = open_loop_sim(cfg, factory, pattern, rate, seed, engine);
    restored
        .restore(&snap, "<memory>")
        .unwrap_or_else(|e| panic!("{ctx}: restore failed: {e}"));

    // Restoring is idempotent at the byte level: a snapshot of the restored
    // sim equals the snapshot it came from.
    let resnap = restored
        .snapshot()
        .unwrap_or_else(|e| panic!("{ctx}: re-snapshot failed: {e}"));
    assert_eq!(snap, resnap, "{ctx}: restore(snapshot) is not byte-stable");

    original.traffic.log.clear();
    restored.traffic.log.clear();
    original.run(tail);
    restored.run(tail);

    assert_eq!(
        original.traffic.log, restored.traffic.log,
        "{ctx}: delivered-packet streams diverged after restore"
    );
    assert_eq!(
        original.network.now(),
        restored.network.now(),
        "{ctx}: cycle clocks diverged"
    );
    let a = original
        .snapshot()
        .unwrap_or_else(|e| panic!("{ctx}: final snapshot failed: {e}"));
    let b = restored
        .snapshot()
        .unwrap_or_else(|e| panic!("{ctx}: final snapshot failed: {e}"));
    assert_eq!(a, b, "{ctx}: post-tail state diverged from the original");
}

/// All five mechanism variants × three patterns, snapshot at a seed-drawn
/// cycle, byte-identical continuation.
#[test]
fn open_loop_round_trip_all_mechanisms_and_patterns() {
    let cfg = NetworkConfig::paper_3x3();
    for m in 0..5 {
        let (mname, factory) = mechanism(m);
        for (pname, pattern) in patterns() {
            let mut draw = SimRng::seed_from(0x5AFE + m as u64);
            let warm = 200 + draw.gen_range(600);
            let ctx = format!("{mname}/{pname}/warm{warm}");
            assert_round_trip(
                &cfg,
                factory.as_ref(),
                pattern,
                0.15,
                0xC0FFEE,
                warm,
                400,
                &ctx,
            );
        }
    }
}

/// Round trip with the fault plane enabled: retransmit machinery,
/// NACK/ack queues, and the fault log all survive the snapshot. A
/// probabilistic fault plan steps every cycle on the serial walk, so there
/// is no sharded leg.
#[test]
fn open_loop_round_trip_under_faults() {
    let cfg = NetworkConfig {
        faults: FaultPlan::uniform_transient(1e-3, 1e-3),
        retransmit: Some(RetransmitConfig::default()),
        ..NetworkConfig::paper_3x3()
    };
    for m in 0..5 {
        let (mname, factory) = mechanism(m);
        round_trip_on(
            Engine::Tracked,
            &cfg,
            factory.as_ref(),
            Pattern::UniformRandom,
            0.10,
            0xFA017,
            600,
            600,
            &format!("{mname}/uniform/faults"),
        );
    }
}

/// Round trip on a non-square mesh (exercises fingerprint dimensions and
/// edge-router port maps).
#[test]
fn open_loop_round_trip_rectangular_mesh() {
    let cfg = NetworkConfig {
        width: 4,
        height: 2,
        ..NetworkConfig::paper_3x3()
    };
    for m in 0..5 {
        let (mname, factory) = mechanism(m);
        let ctx = format!("{mname}/uniform/4x2");
        assert_round_trip(
            &cfg,
            factory.as_ref(),
            Pattern::UniformRandom,
            0.12,
            0xAB1E,
            350,
            350,
            &ctx,
        );
    }
}

/// Closed-loop round trip: the memory-system model (cores, MSHRs, pending
/// bank replies, think-time RNG) snapshots and restores byte-identically.
#[test]
fn closed_loop_round_trip() {
    let cfg = NetworkConfig::paper_3x3();
    for (m, engine) in (0..5).flat_map(|m| Engine::ALL.map(|e| (m, e))) {
        let (mname, factory) = mechanism(m);
        let mname = format!("{mname} on {engine:?}");
        let sim = || {
            let mut network = Network::new(cfg.clone(), factory.as_ref(), 7).expect("valid config");
            engine.apply(&mut network);
            Simulation::new(network, ClosedLoopTraffic::new(workloads::water(), 9, 7))
        };
        let mut original = sim();
        original.run(2_000);
        engine.assert_ran(&original.network);
        let snap = original.snapshot().expect("snapshot");

        let mut restored = sim();
        restored.restore(&snap, "<memory>").expect("restore");

        original.run(2_000);
        restored.run(2_000);
        assert_eq!(
            original.traffic.completed(),
            restored.traffic.completed(),
            "{mname}: completed-transaction counts diverged"
        );
        assert_eq!(
            original.traffic.issued(),
            restored.traffic.issued(),
            "{mname}: issued-transaction counts diverged"
        );
        let a = original.snapshot().expect("final snapshot");
        let b = restored.snapshot().expect("final snapshot");
        assert_eq!(a, b, "{mname}: closed-loop state diverged after restore");
    }
}

/// A restored simulation refuses bytes from a different context: flipping
/// payload bits trips the checksum, and a snapshot from one mechanism or
/// mesh will not load into another.
#[test]
fn restore_rejects_corrupt_and_mismatched_snapshots() {
    let cfg = NetworkConfig::paper_3x3();
    let (_, afc) = mechanism(3);
    let mut sim = open_loop_sim(
        &cfg,
        afc.as_ref(),
        Pattern::UniformRandom,
        0.1,
        1,
        Engine::Tracked,
    );
    sim.run(100);
    let snap = sim.snapshot().expect("snapshot");

    // Bit-flip in the payload: checksum failure naming the origin.
    let mut corrupt = snap.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    let err = sim.restore(&corrupt, "corrupt.bin").unwrap_err();
    assert!(
        matches!(err, SnapshotError::ChecksumMismatch { .. }),
        "expected checksum mismatch, got {err}"
    );
    assert!(
        err.to_string().contains("corrupt.bin"),
        "error must name the corrupt file: {err}"
    );

    // Mechanism mismatch.
    let (_, bp) = mechanism(0);
    let mut other = open_loop_sim(
        &cfg,
        bp.as_ref(),
        Pattern::UniformRandom,
        0.1,
        1,
        Engine::Tracked,
    );
    let err = other.restore(&snap, "<memory>").unwrap_err();
    assert!(
        matches!(err, SnapshotError::ContextMismatch { .. }),
        "expected context mismatch, got {err}"
    );

    // Mesh-shape mismatch.
    let wide = NetworkConfig {
        width: 4,
        height: 2,
        ..NetworkConfig::paper_3x3()
    };
    let mut other = open_loop_sim(
        &wide,
        afc.as_ref(),
        Pattern::UniformRandom,
        0.1,
        1,
        Engine::Tracked,
    );
    let err = other.restore(&snap, "<memory>").unwrap_err();
    assert!(
        matches!(err, SnapshotError::ContextMismatch { .. }),
        "expected context mismatch, got {err}"
    );

    // The pristine snapshot still loads fine afterwards.
    sim.restore(&snap, "<memory>").expect("pristine restore");
}
