//! Activity-tracking equivalence: the tracked walk (dirty-set walk with
//! quiescent-router skipping) must give *identical* results to the
//! historical full-component scan ([`Network::set_full_scan`]); snapshot
//! bytes differ, since the full scan settles idle cycles eagerly.
//!
//! Every case runs the same seeded workload twice — once per engine mode —
//! and asserts equal `NetworkStats` (via `{:?}`, so every counter and
//! histogram bucket participates), equal aggregated router counters, and
//! an equal delivered-packet stream (ids, routes, hop counts, and exact
//! delivery timestamps). A second family does so under probabilistic fault
//! plans, comparing the fault log too: the fault RNG is drawn per arriving
//! flit and credit, so a walk that skipped or reordered an active link
//! would draw differently. A third family toggles the mode *mid-run* at
//! varying periods, which catches any state the two walks maintain
//! differently.
//!
//! A fourth family pins the SoA slab routers (flat lane/credit state and
//! bitword arbitration kernels) against the full-scan golden across three
//! traffic patterns and both other schedules — the tracked walk and the
//! 4-thread sharded engine ([`Network::set_sim_threads`]) — and a fifth
//! proves the snapshot byte format survived the slab rewrite: save →
//! restore → save round-trips to identical `FORMAT_VERSION` 7 bytes with
//! buffered flits in every mechanism's slabs.

use afc_bench::MechanismId;
use afc_netsim::config::{NetworkConfig, RetransmitConfig};
use afc_netsim::faults::FaultPlan;
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

/// Low / mid / saturation operating points (flits/node/cycle, 3×3 mesh).
const LOADS: [f64; 3] = [0.02, 0.12, 0.30];

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

/// Full-scan schedule for one run.
#[derive(Clone, Copy)]
enum Scan {
    Fast,
    Full,
    /// Flip the mode every `period` cycles, starting in full-scan.
    Toggle(u64),
}

/// Runs one seeded workload under the given scan schedule and returns a
/// complete behavioral fingerprint.
fn fingerprint(
    id: MechanismId,
    rate: f64,
    seed: u64,
    scan: Scan,
) -> (String, Vec<DeliveredPacket>) {
    let cfg = NetworkConfig::paper_3x3();
    fingerprint_with(&cfg, id, rate, Pattern::UniformRandom, seed, scan, 1)
}

/// [`fingerprint`] on `cfg` with an explicit traffic pattern and intra-run
/// thread budget (`threads > 1` is the sharded engine, forced past the
/// activity gate, which would keep a 3×3 serial). The fingerprint ends
/// with the fault log and the unreachable-packet records.
fn fingerprint_with(
    cfg: &NetworkConfig,
    id: MechanismId,
    rate: f64,
    pattern: Pattern,
    seed: u64,
    scan: Scan,
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
    match scan {
        Scan::Fast => sim.network.set_full_scan(false),
        Scan::Full => sim.network.set_full_scan(true),
        Scan::Toggle(_) => sim.network.set_full_scan(true),
    }
    for cycle in 0..1_000u64 {
        if let Scan::Toggle(period) = scan {
            sim.network.set_full_scan((cycle / period) % 2 == 0);
        }
        sim.step();
    }
    // Quiesce with the schedule's final mode still in force: drained
    // detection and idle-cycle replay must agree between modes too.
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

#[test]
fn tracked_walk_matches_full_scan_for_all_mechanisms_and_loads() {
    for id in MECHANISMS {
        for rate in LOADS {
            let (full_fp, full_log) = fingerprint(id, rate, 0xA11CE, Scan::Full);
            let (fast_fp, fast_log) = fingerprint(id, rate, 0xA11CE, Scan::Fast);
            assert_eq!(
                full_fp,
                fast_fp,
                "{} at load {rate}: stats diverge between full scan and tracked walk",
                id.label()
            );
            assert_eq!(
                full_log,
                fast_log,
                "{} at load {rate}: delivered-packet streams diverge",
                id.label()
            );
            assert!(
                rate == 0.0 || !full_log.is_empty(),
                "{} at load {rate}: vacuous comparison (nothing delivered)",
                id.label()
            );
        }
    }
}

/// Probabilistic fault plans run on the tracked walk: transient drop plus
/// corruption, and credit loss, each with and without end-to-end
/// retransmission, on a 4×4 mesh — credit loss at saturation, where AFC
/// runs backpressured and sends credits. Both walks must draw the
/// fault RNG identically, so stats, total counters, the delivered stream,
/// the fault log and the unreachable records all agree.
#[test]
fn tracked_walk_matches_full_scan_under_probabilistic_faults() {
    let plans = [
        (
            "drop+corrupt",
            FaultPlan::uniform_transient(4e-3, 4e-3),
            0.12,
        ),
        (
            "credit-loss",
            FaultPlan::none().with_credit_loss(2e-3),
            0.30,
        ),
    ];
    for (name, faults, rate) in plans {
        for retransmit in [None, Some(RetransmitConfig::default())] {
            let cfg = NetworkConfig {
                width: 4,
                height: 4,
                faults: faults.clone(),
                retransmit,
                ..NetworkConfig::paper_3x3()
            };
            for id in MECHANISMS {
                let what = format!("{} {name} retransmit={}", id.label(), retransmit.is_some());
                let run = |scan| {
                    fingerprint_with(&cfg, id, rate, Pattern::UniformRandom, 0xFA17, scan, 1)
                };
                let (full_fp, full_log) = run(Scan::Full);
                let (fast_fp, fast_log) = run(Scan::Fast);
                assert!(!full_log.is_empty(), "{what}: nothing delivered");
                // Bufferless routers send no credits, so none can be lost.
                let creditless = name == "credit-loss"
                    && matches!(id, MechanismId::Backpressureless | MechanismId::Drop);
                assert!(
                    creditless || !full_fp.contains("faults=[]"),
                    "{what}: vacuous comparison (no fault fired)"
                );
                assert_eq!(full_fp, fast_fp, "{what}: the walks diverge");
                assert_eq!(full_log, fast_log, "{what}: delivered streams diverge");
            }
        }
    }
}

/// The slab routers against the full-scan golden, across traffic shapes
/// and scheduling disciplines: for each mechanism and pattern, the serial
/// tracked walk and the 4-thread engine must both reproduce the full-scan
/// fingerprint bit-for-bit. Transpose and Quadrant skew port and vnet
/// occupancy in ways uniform traffic never does (persistent single-output
/// contention, quadrant-local hot lanes), so they exercise bitword
/// arbitration masks with shapes the uniform family leaves untested.
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
            let (gold_fp, gold_log) =
                fingerprint_with(&cfg, id, 0.30, pattern.clone(), 0x50A0, Scan::Full, 1);
            assert!(
                !gold_log.is_empty(),
                "{} {pattern:?}: vacuous comparison (nothing delivered)",
                id.label()
            );
            let (fast_fp, fast_log) =
                fingerprint_with(&cfg, id, 0.30, pattern.clone(), 0x50A0, Scan::Fast, 1);
            assert_eq!(
                gold_fp,
                fast_fp,
                "{} {pattern:?}: tracked walk diverges from the full-scan golden",
                id.label()
            );
            assert_eq!(gold_log, fast_log);
            // The parallel engine only runs on the tracked walk (full scan
            // forces the serial walk), so the threaded leg uses Scan::Fast.
            let (par_fp, par_log) =
                fingerprint_with(&cfg, id, 0.30, pattern.clone(), 0x50A0, Scan::Fast, 4);
            assert_eq!(
                gold_fp,
                par_fp,
                "{} {pattern:?}: 4-thread engine diverges from the full-scan golden",
                id.label()
            );
            assert_eq!(gold_log, par_log);
        }
    }
}

/// Snapshot byte-format stability through the slab rewrite: a mid-run
/// save (buffered flits sitting in every mechanism's lane slabs) must
/// restore into a fresh simulation and re-save to *identical* bytes — the
/// occupancy bitwords, ring indices, and route caches are derived state
/// that never leaks into the `FORMAT_VERSION` 7 container — and the
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
            7u32.to_le_bytes(),
            "{}: snapshot container is not FORMAT_VERSION 7",
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

#[test]
fn toggling_full_scan_mid_run_changes_nothing() {
    // Different seeds exercise different traffic shapes; different periods
    // land the toggles at different phases of router activity (including
    // mid-quiescence, forcing idle-replay flushes at odd moments).
    for seed in [1u64, 2, 3] {
        for id in MECHANISMS {
            let (full_fp, full_log) = fingerprint(id, 0.12, seed, Scan::Full);
            for period in [1u64, 7, 64] {
                let (tog_fp, tog_log) = fingerprint(id, 0.12, seed, Scan::Toggle(period));
                assert_eq!(
                    full_fp,
                    tog_fp,
                    "{} seed {seed}: toggling full-scan every {period} cycles \
                     changed the outcome",
                    id.label()
                );
                assert_eq!(tog_log, full_log);
            }
        }
    }
}
