//! Degraded-mode determinism goldens (DESIGN.md §13): a fixed kill
//! schedule — a mid-run link kill followed by a full node kill — must be
//! **byte-identical** across `sim_threads` ∈ {1, 2, 4, 8} and across a
//! mid-storm snapshot/restore.
//!
//! The fingerprint extends the fault-free parallel-equivalence one with the
//! structured fault artifacts: the ordered fault log (every killed flit and
//! lost credit, in serial deterministic order) and the per-packet
//! `Unreachable` records produced when bounded retransmission gives up on
//! the isolated node. Every case also proves the storm actually engaged
//! (`links_failed > 0`, `packets_unreachable > 0`) and, for multithreaded
//! runs, that the parallel engine genuinely stepped, so the comparisons are
//! never vacuous.

use afc_bench::MechanismId;
use afc_netsim::config::{NetworkConfig, RetransmitConfig};
use afc_netsim::faults::FaultPlan;
use afc_netsim::flit::Cycle;
use afc_netsim::geom::{Coord, Direction};
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

/// 8×8 mesh with a two-stage kill storm: the eastbound link out of (3,3)
/// dies at cycle 300, then node (5,2) is severed entirely at cycle 700.
/// Bounded retransmission (3 attempts, short timeout) converts traffic for
/// the dead node into structured `Unreachable` records quickly enough for
/// the drain budget.
fn storm_config() -> NetworkConfig {
    let base = NetworkConfig::paper_8x8();
    let mesh = base.mesh().expect("valid mesh");
    let hub = mesh.node_at(Coord::new(3, 3)).expect("in bounds");
    let victim = mesh.node_at(Coord::new(5, 2)).expect("in bounds");
    NetworkConfig {
        faults: FaultPlan::none()
            .kill_link(hub, Direction::East, 300)
            .kill_node(victim, 700),
        retransmit: Some(RetransmitConfig {
            timeout: 250,
            backoff_cap: 1,
            max_attempts: 3,
        }),
        ..base
    }
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
    seed: u64,
    threads: usize,
) -> Simulation<Recording> {
    make_sim_at(config, id, seed, threads, 0.25)
}

fn make_sim_at(
    config: &NetworkConfig,
    id: MechanismId,
    seed: u64,
    threads: usize,
    rate: f64,
) -> Simulation<Recording> {
    let network =
        Network::new(config.clone(), id.mechanism().factory.as_ref(), seed).expect("valid config");
    let traffic = Recording {
        inner: OpenLoopTraffic::new(
            RateSpec::Uniform(rate),
            Pattern::UniformRandom,
            PacketMix::paper(),
            seed ^ 0x7AFF1C,
        ),
        log: Vec::new(),
    };
    let mut sim = Simulation::new(network, traffic);
    sim.network.set_sim_threads(threads);
    // The default gate keeps an 8x8 serial; this suite is about the
    // sharded engine under faults, so the floor is lowered to 16.
    sim.network.set_parallel_threshold(16);
    sim
}

/// The behavioral fingerprint: all statistics, aggregate router counters,
/// the ordered fault log, and every structured `Unreachable` record.
fn fingerprint_of(sim: &Simulation<Recording>) -> String {
    format!(
        "stats={:?} counters={:?} now={} drained={} modes={:?} faults={:?} unreachable={:?}",
        sim.network.stats(),
        sim.network.total_counters(),
        sim.network.now(),
        sim.network.is_drained(),
        sim.network.modes(),
        sim.network.fault_log(),
        sim.network.unreachable_packets(),
    )
}

fn run_case(
    config: &NetworkConfig,
    id: MechanismId,
    seed: u64,
    threads: usize,
) -> (String, Vec<DeliveredPacket>, u64) {
    let mut sim = make_sim(config, id, seed, threads);
    sim.run(900);
    sim.traffic.inner.stop();
    sim.drain(20_000);
    sim.network.audit().expect("flit conservation");
    sim.network.credit_audit().expect("credit conservation");
    assert!(
        sim.network.is_drained(),
        "{} x{threads}: bounded retransmission must let the storm run drain",
        id.label()
    );
    let s = sim.network.stats();
    assert!(s.links_failed > 0, "{}: kills must be detected", id.label());
    assert!(
        s.packets_unreachable > 0,
        "{}: the severed node must produce structured unreachable records",
        id.label()
    );
    let fp = fingerprint_of(&sim);
    let parallel = sim.network.parallel_cycles();
    (fp, sim.traffic.log, parallel)
}

/// The headline golden: 4 mechanisms × thread counts {1, 2, 4, 8} through
/// the fixed kill storm. Identical fingerprints everywhere — including the
/// fault log and the unreachable records — and the multithreaded runs must
/// actually have used the parallel engine while links were dying.
#[test]
fn kill_storm_is_thread_count_invariant() {
    let config = storm_config();
    for id in MECHANISMS {
        let (base_fp, base_log, base_par) = run_case(&config, id, 0xDE6AD, 1);
        assert_eq!(base_par, 0, "serial baseline must never step parallel");
        assert!(
            !base_log.is_empty(),
            "{}: vacuous comparison (nothing delivered)",
            id.label()
        );
        for threads in [2usize, 4, 8] {
            let (fp, log, parallel) = run_case(&config, id, 0xDE6AD, threads);
            assert!(
                parallel > 0,
                "{} x{threads}: parallel engine never engaged under a \
                 deterministic kill plan",
                id.label()
            );
            assert_eq!(
                base_fp,
                fp,
                "{} x{threads}: degraded-mode run diverges from serial",
                id.label()
            );
            assert_eq!(
                base_log,
                log,
                "{} x{threads}: delivered-packet streams diverge under kills",
                id.label()
            );
        }
    }
}

/// Mid-storm checkpointing: a snapshot taken *between* the two kills (first
/// link dead and detected, node kill still pending) has thread-count
/// invariant bytes, and resuming it at any thread count reproduces the
/// serial continuation exactly — stats, deliveries, fault log, unreachable
/// records, and the bytes of a second checkpoint taken after the storm.
#[test]
fn mid_storm_snapshots_are_thread_count_invariant() {
    let config = storm_config();
    for id in [MechanismId::Drop, MechanismId::Afc] {
        let mut serial = make_sim(&config, id, 0x5EED, 1);
        serial.run(500);
        assert!(
            serial.network.stats().links_failed > 0,
            "{}: snapshot must land mid-storm, after the first detection",
            id.label()
        );
        let serial_snap = serial.snapshot().expect("serial snapshot");

        let mut parallel = make_sim(&config, id, 0x5EED, 4);
        parallel.run(500);
        assert!(parallel.network.parallel_cycles() > 0);
        let parallel_snap = parallel.snapshot().expect("parallel snapshot");
        assert_eq!(
            serial_snap,
            parallel_snap,
            "{}: mid-storm snapshot bytes differ between engines",
            id.label()
        );

        // Serial continuation through the node kill is the reference...
        serial.run(400);
        serial.traffic.inner.stop();
        serial.drain(20_000);
        serial.network.audit().expect("flit conservation");
        serial.network.credit_audit().expect("credit conservation");
        assert!(serial.network.stats().packets_unreachable > 0);
        let ref_fp = fingerprint_of(&serial);
        let ref_log = serial.traffic.log.clone();
        let ref_snap = serial.snapshot().expect("reference end snapshot");

        // ...and restoring the mid-storm checkpoint must reproduce it at
        // any thread count, second kill and give-ups included.
        for threads in [1usize, 4, 8] {
            let mut resumed = make_sim(&config, id, 0x5EED, threads);
            resumed
                .restore(&serial_snap, "degraded-determinism test")
                .expect("restore");
            resumed.traffic.log.clear();
            let skip = ref_log
                .iter()
                .take_while(|p| p.delivered_at < resumed.network.now())
                .count();
            resumed.run(400);
            resumed.traffic.inner.stop();
            resumed.drain(20_000);
            assert_eq!(
                ref_fp,
                fingerprint_of(&resumed),
                "{} x{threads}: resumed storm diverged from serial continuation",
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
                "{} x{threads}: end-of-storm snapshot bytes diverged",
                id.label()
            );
        }
    }
}

/// 32×32 under rolling link churn, serial vs 4 threads, byte-identical and
/// inside a wall-clock budget: every learned fact makes every router
/// rebuild its next-hop table and every arrival crosses the fault plane, so
/// an O(mesh²) rebuild or a per-arrival plan scan (both once the case: this
/// run took about a minute per engine) blows the budget.
#[test]
fn mesh_32x32_churn_smoke_within_budget() {
    const CYCLES: u64 = 1_200;
    let budget = std::time::Duration::from_secs(60);
    let t0 = std::time::Instant::now();
    let base = NetworkConfig {
        width: 32,
        height: 32,
        ..NetworkConfig::paper_8x8()
    };
    let mesh = base.mesh().expect("valid mesh");
    let config = NetworkConfig {
        faults: FaultPlan::none().with_churn(&mesh, 0xC0FFEE, 100, 0.5, CYCLES),
        retransmit: Some(RetransmitConfig {
            timeout: 300,
            backoff_cap: 2,
            max_attempts: 0,
        }),
        ..base
    };
    let run = |threads: usize| {
        let mut sim = make_sim_at(&config, MechanismId::Backpressured, 0xC0FFEE, threads, 0.05);
        sim.run(CYCLES);
        let s = sim.network.stats();
        assert!(s.links_failed >= 8 && s.links_revived >= 8, "churn engaged");
        assert!(sim.network.total_counters().reroutes > 0, "detours taken");
        (
            fingerprint_of(&sim),
            sim.traffic.log.len(),
            sim.network.parallel_cycles(),
        )
    };
    let (base_fp, delivered, base_par) = run(1);
    assert_eq!(base_par, 0);
    assert!(delivered > 0, "vacuous comparison (nothing delivered)");
    let (fp, _, parallel) = run(4);
    assert!(parallel > 0);
    assert_eq!(base_fp, fp, "32x32 churn x4: diverged");
    let elapsed = t0.elapsed();
    assert!(
        elapsed < budget,
        "32x32 churn smoke blew its budget: {elapsed:?} > {budget:?}"
    );
}
