//! Thread-count invariance: the intra-run parallel cycle engine
//! (DESIGN.md §12) must be **byte-identical** to the serial engine at any
//! `sim_threads` value.
//!
//! Every case runs the same seeded workload at several thread counts and
//! compares a complete behavioral fingerprint — all statistics (via `{:?}`,
//! so every counter and histogram bucket participates), aggregated router
//! counters, final cycle, drain status, per-router modes, and the exact
//! delivered-packet stream. The saturation cases additionally assert the
//! parallel path actually engaged (`Network::parallel_cycles`), so the
//! comparisons are not vacuously serial-vs-serial. A snapshot family
//! proves the *bytes* of a mid-run checkpoint are thread-count invariant
//! and that parallel execution can resume a serial checkpoint (and vice
//! versa) without divergence.
//!
//! Every case, the 64×64 and 128×128 ones included, runs under plain
//! `cargo test` (tier 1).

use afc_bench::MechanismId;
use afc_netsim::config::NetworkConfig;
use afc_netsim::flit::Cycle;
use afc_netsim::network::Network;
use afc_netsim::packet::DeliveredPacket;
use afc_netsim::sim::{Simulation, TrafficModel};
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;

const MECHANISMS: [MechanismId; 4] = [
    MechanismId::Backpressured,
    MechanismId::Backpressureless,
    MechanismId::Drop,
    MechanismId::Afc,
];

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn patterns() -> [Pattern; 3] {
    [
        Pattern::UniformRandom,
        Pattern::Transpose,
        Pattern::Quadrant,
    ]
}

/// Records every delivered packet so the full delivery stream participates
/// in the comparison, not just aggregate statistics.
struct Recording {
    inner: OpenLoopTraffic,
    log: Vec<DeliveredPacket>,
}

impl TrafficModel for Recording {
    fn pre_cycle(&mut self, now: Cycle, net: &mut Network) {
        self.inner.pre_cycle(now, net);
    }

    fn on_delivered(&mut self, packet: &DeliveredPacket, now: Cycle, net: &mut Network) {
        self.log.push(*packet);
        self.inner.on_delivered(packet, now, net);
    }

    // The recorded log is test instrumentation, not simulation state; the
    // checkpoint carries only the generator.
    fn save_state(
        &self,
        w: &mut afc_netsim::snapshot::SnapshotWriter,
    ) -> Result<(), afc_netsim::snapshot::SnapshotError> {
        self.inner.save_state(w)
    }

    fn load_state(
        &mut self,
        r: &mut afc_netsim::snapshot::SnapshotReader<'_>,
    ) -> Result<(), afc_netsim::snapshot::SnapshotError> {
        self.inner.load_state(r)
    }
}

fn make_sim(
    config: &NetworkConfig,
    id: MechanismId,
    rate: f64,
    pattern: Pattern,
    seed: u64,
    threads: usize,
) -> Simulation<Recording> {
    let network =
        Network::new(config.clone(), id.mechanism().factory.as_ref(), seed).expect("valid config");
    let traffic = Recording {
        inner: OpenLoopTraffic::new(
            RateSpec::Uniform(rate),
            pattern,
            PacketMix::paper(),
            seed ^ 0x7AFF1C,
        ),
        log: Vec::new(),
    };
    let mut sim = Simulation::new(network, traffic);
    sim.network.set_sim_threads(threads);
    // These tests assert `parallel_cycles > 0`: the default gate keeps
    // meshes this small serial (that is `parallel_payoff.rs`'s subject),
    // which would make every comparison vacuous, so the floor is lowered
    // to 16 active components.
    sim.network.set_parallel_threshold(16);
    sim
}

fn fingerprint_of(sim: &Simulation<Recording>) -> String {
    format!(
        "stats={:?} counters={:?} now={} drained={} modes={:?}",
        sim.network.stats(),
        sim.network.total_counters(),
        sim.network.now(),
        sim.network.is_drained(),
        sim.network.modes(),
    )
}

/// Runs one seeded workload at the given thread count and returns the
/// behavioral fingerprint plus how many cycles the parallel engine stepped.
fn run_case(
    config: &NetworkConfig,
    id: MechanismId,
    rate: f64,
    pattern: Pattern,
    seed: u64,
    threads: usize,
    cycles: u64,
) -> (String, Vec<DeliveredPacket>, u64) {
    let mut sim = make_sim(config, id, rate, pattern, seed, threads);
    sim.run(cycles);
    sim.drain(5_000);
    sim.network.audit().expect("flit conservation");
    sim.network.credit_audit().expect("credit conservation");
    let fp = fingerprint_of(&sim);
    let parallel = sim.network.parallel_cycles();
    (fp, sim.traffic.log, parallel)
}

/// The headline matrix: 4 mechanisms × 3 traffic patterns × thread counts
/// {1, 2, 4, 8} on the 8×8 mesh at a saturating load. Identical
/// fingerprints everywhere; the multi-thread runs must actually have used
/// the parallel engine.
#[test]
fn thread_count_never_changes_the_outcome() {
    let config = NetworkConfig::paper_8x8();
    for id in MECHANISMS {
        for pattern in patterns() {
            let (base_fp, base_log, base_par) =
                run_case(&config, id, 0.30, pattern.clone(), 0xA11CE, 1, 500);
            assert_eq!(base_par, 0, "serial baseline must never step parallel");
            assert!(
                !base_log.is_empty(),
                "{} {pattern:?}: vacuous comparison (nothing delivered)",
                id.label()
            );
            for threads in THREAD_COUNTS {
                let (fp, log, parallel) =
                    run_case(&config, id, 0.30, pattern.clone(), 0xA11CE, threads, 500);
                assert!(
                    parallel > 0,
                    "{} {pattern:?} x{threads}: parallel engine never engaged \
                     (gate too strict for this load?)",
                    id.label()
                );
                assert_eq!(
                    base_fp,
                    fp,
                    "{} {pattern:?} x{threads}: stats diverge from serial",
                    id.label()
                );
                assert_eq!(
                    base_log,
                    log,
                    "{} {pattern:?} x{threads}: delivered-packet streams diverge",
                    id.label()
                );
            }
        }
    }
}

/// More worker threads than routers: the shard count clamps to the node
/// count (every shard is a single router). The activity gate would keep a
/// 3×3 mesh serial forever, so it is opened wide to force the maximally
/// sharded path to actually run.
#[test]
fn more_threads_than_routers_clamps_and_matches() {
    let config = NetworkConfig::paper_3x3();
    for id in MECHANISMS {
        let (base_fp, base_log, _) =
            run_case(&config, id, 0.25, Pattern::UniformRandom, 0xC1A5, 1, 400);
        let mut sim = make_sim(&config, id, 0.25, Pattern::UniformRandom, 0xC1A5, 16);
        sim.network.set_parallel_threshold(0);
        sim.run(400);
        sim.drain(5_000);
        sim.network.audit().expect("flit conservation");
        sim.network.credit_audit().expect("credit conservation");
        assert!(
            sim.network.parallel_cycles() > 0,
            "{}: threshold 0 must engage the parallel engine",
            id.label()
        );
        assert_eq!(base_fp, fingerprint_of(&sim), "{}", id.label());
        assert_eq!(base_log, sim.traffic.log, "{}", id.label());
    }
}

/// Re-sharding mid-run (1 → 4 → 2 → 8 threads every 100 cycles) rebuilds
/// the worker pool on the fly and still changes nothing.
#[test]
fn retargeting_thread_count_mid_run_changes_nothing() {
    let config = NetworkConfig::paper_8x8();
    for id in [MechanismId::Backpressured, MechanismId::Afc] {
        let (base_fp, base_log, _) = run_case(&config, id, 0.30, Pattern::UniformRandom, 7, 1, 400);
        let mut sim = make_sim(&config, id, 0.30, Pattern::UniformRandom, 7, 1);
        for (i, threads) in [1usize, 4, 2, 8].into_iter().enumerate() {
            sim.network.set_sim_threads(threads);
            let _ = i;
            sim.run(100);
        }
        sim.drain(5_000);
        assert!(sim.network.parallel_cycles() > 0);
        assert_eq!(base_fp, fingerprint_of(&sim), "{}", id.label());
        assert_eq!(base_log, sim.traffic.log, "{}", id.label());
    }
}

/// Runs a fixed-cycle workload (no drain — large-mesh backlogs would make
/// draining dominate the suite) and returns the fingerprint pieces.
fn run_fixed(
    config: &NetworkConfig,
    id: MechanismId,
    rate: f64,
    seed: u64,
    threads: usize,
    cycles: u64,
) -> (String, Vec<DeliveredPacket>, u64) {
    let mut sim = make_sim(config, id, rate, Pattern::UniformRandom, seed, threads);
    sim.run(cycles);
    sim.network.audit().expect("flit conservation");
    sim.network.credit_audit().expect("credit conservation");
    let fp = fingerprint_of(&sim);
    let parallel = sim.network.parallel_cycles();
    (fp, sim.traffic.log, parallel)
}

fn mesh_config(side: u16) -> NetworkConfig {
    NetworkConfig {
        width: side,
        height: side,
        ..NetworkConfig::paper_8x8()
    }
}

/// 32×32: the smallest mesh where sharding pays. All four mechanisms,
/// serial vs {2, 4, 8} threads, full fingerprint + delivery-stream
/// byte-identity.
#[test]
fn mesh_32x32_thread_count_never_changes_the_outcome() {
    let config = mesh_config(32);
    for id in MECHANISMS {
        let (base_fp, base_log, base_par) = run_fixed(&config, id, 0.08, 0xA11CE, 1, 250);
        assert_eq!(base_par, 0, "serial baseline must never step parallel");
        assert!(
            !base_log.is_empty(),
            "{}: vacuous comparison (nothing delivered)",
            id.label()
        );
        for threads in THREAD_COUNTS {
            let (fp, log, parallel) = run_fixed(&config, id, 0.08, 0xA11CE, threads, 250);
            assert!(
                parallel > 0,
                "{} x{threads}: parallel engine never engaged at 32x32 saturation",
                id.label()
            );
            assert_eq!(base_fp, fp, "{} x{threads}: stats diverge", id.label());
            assert_eq!(
                base_log,
                log,
                "{} x{threads}: delivered-packet streams diverge",
                id.label()
            );
        }
    }
}

/// 64×64: all four mechanisms, serial vs {2, 4, 8} threads. Shorter run —
/// per-cycle cost is ~16× the 32×32 mesh — but still past warm-up into
/// steady saturation.
#[test]
fn mesh_64x64_thread_count_never_changes_the_outcome() {
    let config = mesh_config(64);
    for id in MECHANISMS {
        let (base_fp, base_log, base_par) = run_fixed(&config, id, 0.04, 0xB0B, 1, 100);
        assert_eq!(base_par, 0, "serial baseline must never step parallel");
        assert!(
            !base_log.is_empty(),
            "{}: vacuous comparison (nothing delivered)",
            id.label()
        );
        for threads in THREAD_COUNTS {
            let (fp, log, parallel) = run_fixed(&config, id, 0.04, 0xB0B, threads, 100);
            assert!(
                parallel > 0,
                "{} x{threads}: parallel engine never engaged at 64x64 saturation",
                id.label()
            );
            assert_eq!(base_fp, fp, "{} x{threads}: stats diverge", id.label());
            assert_eq!(
                base_log,
                log,
                "{} x{threads}: delivered-packet streams diverge",
                id.label()
            );
        }
    }
}

/// 128×128 smoke: the ROADMAP's 100×-beyond-the-paper scale point. One
/// mechanism (AFC), serial vs 4 threads, byte-identical, and the whole
/// thing — construction included — must land within a wall-clock budget
/// (the "cycle budget" guarding against accidental O(mesh²) per-cycle or
/// per-construction blowups).
#[test]
fn mesh_128x128_smoke_within_budget() {
    let budget = std::time::Duration::from_secs(60);
    let t0 = std::time::Instant::now();
    let config = mesh_config(128);
    let (base_fp, base_log, base_par) = run_fixed(&config, MechanismId::Afc, 0.02, 0x5CA1E, 1, 40);
    assert_eq!(base_par, 0);
    assert!(
        !base_log.is_empty(),
        "vacuous comparison (nothing delivered)"
    );
    let (fp, log, parallel) = run_fixed(&config, MechanismId::Afc, 0.02, 0x5CA1E, 4, 40);
    assert!(parallel > 0, "parallel engine never engaged at 128x128");
    assert_eq!(base_fp, fp, "128x128 x4: stats diverge");
    assert_eq!(base_log, log, "128x128 x4: delivery streams diverge");
    let elapsed = t0.elapsed();
    assert!(
        elapsed < budget,
        "128x128 smoke blew its cycle budget: {elapsed:?} > {budget:?}"
    );
}

/// Snapshot invariance: a mid-run checkpoint taken under the parallel
/// engine is byte-for-byte the one the serial engine writes, and resuming
/// it at any thread count (including crossing serial↔parallel) reproduces
/// the serial continuation exactly — stats, deliveries, and the *bytes* of
/// a second checkpoint taken later.
#[test]
fn snapshots_are_thread_count_invariant() {
    let config = NetworkConfig::paper_8x8();
    for id in [MechanismId::Afc, MechanismId::Drop] {
        let mut serial = make_sim(&config, id, 0.30, Pattern::UniformRandom, 0x5EED, 1);
        serial.run(300);
        let serial_snap = serial.snapshot().expect("serial snapshot");

        let mut parallel = make_sim(&config, id, 0.30, Pattern::UniformRandom, 0x5EED, 4);
        parallel.run(300);
        assert!(parallel.network.parallel_cycles() > 0);
        let parallel_snap = parallel.snapshot().expect("parallel snapshot");
        assert_eq!(
            serial_snap,
            parallel_snap,
            "{}: mid-run snapshot bytes differ between engines",
            id.label()
        );

        // Serial continuation is the reference...
        serial.run(200);
        serial.drain(5_000);
        let ref_fp = fingerprint_of(&serial);
        let ref_log = serial.traffic.log.clone();
        let ref_snap = serial.snapshot().expect("reference end snapshot");

        // ...and restoring the checkpoint must reproduce it at any thread
        // count. (The traffic model is restored too, so delivery logs are
        // compared from the checkpoint onward.)
        for threads in [1usize, 4, 8] {
            let mut resumed = make_sim(&config, id, 0.30, Pattern::UniformRandom, 0x5EED, threads);
            resumed
                .restore(&serial_snap, "parallel-equivalence test")
                .expect("restore");
            resumed.traffic.log.clear();
            let skip = ref_log
                .iter()
                .take_while(|p| p.delivered_at < resumed.network.now())
                .count();
            resumed.run(200);
            resumed.drain(5_000);
            assert_eq!(
                ref_fp,
                fingerprint_of(&resumed),
                "{} x{threads}: resumed run diverged from serial continuation",
                id.label()
            );
            assert_eq!(
                &ref_log[skip..],
                &resumed.traffic.log[..],
                "{} x{threads}: post-restore delivery stream diverged",
                id.label()
            );
            let end_snap = resumed.snapshot().expect("end snapshot");
            assert_eq!(
                ref_snap,
                end_snap,
                "{} x{threads}: end-of-run snapshot bytes diverged",
                id.label()
            );
        }
    }
}
