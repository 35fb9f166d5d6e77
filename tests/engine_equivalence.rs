//! Slab routers across schedules, and snapshot-format stability.
//!
//! The SoA slab routers (flat lane/credit state and bitword arbitration
//! kernels) must give the same fingerprint on the serial tracked walk and
//! on the 4-thread sharded engine ([`Network::set_sim_threads`]) across
//! three traffic patterns: equal `NetworkStats` (via `{:?}`, so every
//! counter and histogram bucket participates), equal aggregated router
//! counters, and an equal delivered-packet stream (ids, routes, hop counts
//! and exact delivery timestamps). A second test proves the snapshot byte
//! format survived the slab rewrite: save → restore → save round-trips to
//! identical `FORMAT_VERSION` 8 bytes with buffered flits in every
//! mechanism's slabs. The walk's second opinion on activity tracking is
//! `reference_stepper.rs`.

use afc_bench::MechanismId;
use afc_netsim::config::NetworkConfig;
use afc_netsim::flit::Cycle;
use afc_netsim::network::Network;
use afc_netsim::packet::DeliveredPacket;
use afc_netsim::sim::{Simulation, TrafficModel};
use afc_netsim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;

const MECHANISMS: [MechanismId; 4] = [
    MechanismId::Backpressured,
    MechanismId::Backpressureless,
    MechanismId::Drop,
    MechanismId::Afc,
];

/// Wraps the open-loop generator and records every delivered packet, so
/// the full delivery stream participates in the comparison (not just the
/// aggregate statistics).
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

    // The delivery log is test instrumentation, not simulation state; only
    // the wrapped generator travels in a snapshot.
    fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

/// Runs one seeded workload on `cfg` with an explicit traffic pattern and
/// intra-run thread budget (`threads > 1` is the sharded engine, forced
/// past the activity gate, which would keep a 3×3 serial) and returns a
/// complete behavioral fingerprint. It ends with the fault log and the
/// unreachable-packet records.
fn fingerprint(
    cfg: &NetworkConfig,
    id: MechanismId,
    rate: f64,
    pattern: Pattern,
    seed: u64,
    threads: usize,
) -> (String, Vec<DeliveredPacket>) {
    let network =
        Network::new(cfg.clone(), id.mechanism().factory.as_ref(), seed).expect("valid config");
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
    if threads > 1 {
        sim.network.set_sim_threads(threads);
        sim.network.set_parallel_threshold(0);
    }
    sim.run(1_000);
    // Quiesce on the same schedule: drained detection and idle-cycle
    // replay must agree between schedules too.
    sim.drain(5_000);
    sim.network.audit().expect("flit conservation");
    sim.network.credit_audit().expect("credit conservation");
    if threads > 1 {
        assert!(
            sim.network.parallel_cycles() > 0,
            "{}: threaded run never entered the parallel engine",
            id.label()
        );
    }
    let fp = format!(
        "stats={:?} counters={:?} now={} drained={} modes={:?} faults={:?} unreachable={:?}",
        sim.network.stats(),
        sim.network.total_counters(),
        sim.network.now(),
        sim.network.is_drained(),
        sim.network.modes(),
        sim.network.fault_log(),
        sim.network.unreachable_packets(),
    );
    (fp, sim.traffic.log)
}

/// The slab routers across traffic shapes and scheduling disciplines: for
/// each mechanism and pattern, the 4-thread engine must reproduce the
/// serial tracked walk's fingerprint bit-for-bit. Transpose and Quadrant
/// skew port and vnet occupancy in ways uniform traffic never does
/// (persistent single-output contention, quadrant-local hot lanes), so
/// they exercise bitword arbitration masks with shapes the uniform family
/// leaves untested.
#[test]
fn slab_routers_match_golden_across_patterns_and_engines() {
    const PATTERNS: [Pattern; 3] = [
        Pattern::UniformRandom,
        Pattern::Transpose,
        Pattern::Quadrant,
    ];
    let cfg = NetworkConfig::paper_3x3();
    for id in MECHANISMS {
        for pattern in PATTERNS {
            let (walk_fp, walk_log) = fingerprint(&cfg, id, 0.30, pattern.clone(), 0x50A0, 1);
            assert!(
                !walk_log.is_empty(),
                "{} {pattern:?}: vacuous comparison (nothing delivered)",
                id.label()
            );
            let (par_fp, par_log) = fingerprint(&cfg, id, 0.30, pattern.clone(), 0x50A0, 4);
            assert_eq!(
                walk_fp,
                par_fp,
                "{} {pattern:?}: 4-thread engine diverges from the tracked walk",
                id.label()
            );
            assert_eq!(walk_log, par_log);
        }
    }
}

/// Snapshot byte-format stability through the slab rewrite: a mid-run
/// save (buffered flits sitting in every mechanism's lane slabs) must
/// restore into a fresh simulation and re-save to *identical* bytes — the
/// occupancy bitwords, ring indices, and route caches are derived state
/// that never leaks into the `FORMAT_VERSION` 8 container — and the
/// restored run must continue exactly like the original.
#[test]
fn slab_state_round_trips_snapshot_bytes_unchanged() {
    for id in MECHANISMS {
        let make = |seed: u64| {
            let network = Network::new(
                NetworkConfig::paper_3x3(),
                id.mechanism().factory.as_ref(),
                seed,
            )
            .expect("valid config");
            let traffic = Recording {
                inner: OpenLoopTraffic::new(
                    RateSpec::Uniform(0.30),
                    Pattern::UniformRandom,
                    PacketMix::paper(),
                    seed ^ 0x7AFF1C,
                ),
                log: Vec::new(),
            };
            Simulation::new(network, traffic)
        };
        let mut sim = make(0xBEA7);
        sim.run(600);
        assert!(
            !sim.network.is_drained(),
            "{}: vacuous round-trip (no state in the slabs)",
            id.label()
        );
        let bytes = sim.snapshot().expect("snapshot");
        assert_eq!(
            bytes[8..12],
            8u32.to_le_bytes(),
            "{}: snapshot container is not FORMAT_VERSION 8",
            id.label()
        );
        let mut restored = make(0xBEA7);
        restored.restore(&bytes, "<memory>").expect("restore");
        let again = restored.snapshot().expect("re-snapshot");
        assert_eq!(
            bytes,
            again,
            "{}: save -> load -> save is not byte-stable",
            id.label()
        );
        // The restored network must continue exactly like the original.
        sim.run(400);
        restored.run(400);
        assert_eq!(
            format!("{:?}", sim.network.stats()),
            format!("{:?}", restored.network.stats()),
            "{}: restored run diverged",
            id.label()
        );
    }
}
