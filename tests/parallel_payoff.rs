//! The parallel engine must *pay or get out of the way* — and which of the
//! two it does must be reproducible.
//!
//! Complements the byte-identity lockstep harness (`common/lockstep.rs`):
//!
//! * **The engine gate** is a pure function of simulation state: meshes
//!   where sharding loses stay serial under the default floor, the mesh it
//!   was built for runs sharded, and the cycle-by-cycle choice repeats
//!   exactly across runs and across a snapshot restore. No test here reads
//!   a clock.
//! * **Large-mesh memory leanness:** per-node heap must not grow with
//!   mesh size — the audit that makes 128×128 sweeps affordable.

use afc_bench::MechanismId;
use afc_netsim::config::NetworkConfig;
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;

fn make_sim(id: MechanismId, side: u16, rate: f64, threads: usize) -> Simulation<OpenLoopTraffic> {
    let cfg = NetworkConfig {
        width: side,
        height: side,
        ..NetworkConfig::paper_8x8()
    };
    let network = Network::new(cfg, id.mechanism().factory.as_ref(), 0xFEED).expect("valid config");
    let traffic = OpenLoopTraffic::new(
        RateSpec::Uniform(rate),
        Pattern::UniformRandom,
        PacketMix::paper(),
        0xFEED,
    );
    let mut sim = Simulation::new(network, traffic);
    sim.network.set_sim_threads(threads);
    sim
}

/// The rows the floor was calibrated to keep serial: forced threading at
/// 8×8 reads 0.31–0.79× (`results/BENCH_parallel.json`), at light load and
/// at saturation, whatever the budget.
#[test]
fn small_meshes_stay_serial_under_the_default_floor() {
    for rate in [0.05, 0.30] {
        for budget in [2usize, 4, 8] {
            let mut sim = make_sim(MechanismId::Afc, 8, rate, budget);
            sim.run(1_000);
            assert!(
                sim.network.parallel_cycles() == 0,
                "8x8 at {rate} with a {budget}-thread budget ran {} cycles sharded",
                sim.network.parallel_cycles()
            );
        }
    }
}

/// ...and the one it was calibrated to shard: 32×32 at 0.08, the smallest
/// committed mesh where two threads win (1.8–2.3×).
#[test]
fn large_mesh_runs_sharded_under_the_default_floor() {
    // Long enough that the ~40-cycle ramp from an empty network (too few
    // active components to shard) is under the 10% allowance.
    const CYCLES: u64 = 600;
    let mut sim = make_sim(MechanismId::Afc, 32, 0.08, 2);
    sim.run(CYCLES);
    let sharded = sim.network.parallel_cycles();
    assert!(
        sharded * 10 >= CYCLES * 9,
        "32x32 at 0.08 x2 ran only {sharded} of {CYCLES} cycles sharded"
    );
}

/// A run whose activity straddles the floor (pinned here, so the test does
/// not move with the default's calibration): some cycles go sharded and
/// some serial, and which ones is a function of simulation state — two
/// identical runs agree exactly, and a run resumed from a mid-run snapshot
/// makes the same decisions as the uninterrupted one.
#[test]
fn engine_choice_is_reproducible_and_survives_a_snapshot() {
    const HALF: u64 = 400;
    let straddling = || {
        let mut sim = make_sim(MechanismId::Afc, 8, 0.10, 2);
        sim.network.set_parallel_threshold(100);
        sim
    };
    let mut whole = straddling();
    whole.run(HALF);
    let first_half = whole.network.parallel_cycles();
    let snapshot = whole.snapshot().expect("snapshot");
    whole.run(HALF);
    let total = whole.network.parallel_cycles();
    assert!(
        first_half > 0 && total - first_half > 0 && total < 2 * HALF,
        "the pinned floor no longer straddles this run's activity: \
         {first_half} + {} of {HALF} + {HALF} cycles sharded",
        total - first_half
    );

    let mut again = straddling();
    again.run(2 * HALF);
    assert_eq!(again.network.parallel_cycles(), total, "identical runs");

    let mut resumed = straddling();
    resumed
        .restore(&snapshot, "parallel_payoff")
        .expect("restore");
    resumed.run(HALF);
    assert_eq!(
        resumed.network.parallel_cycles(),
        total - first_half,
        "a restored run must make the uninterrupted run's decisions"
    );
    assert_eq!(
        resumed.snapshot().expect("snapshot"),
        whole.snapshot().expect("snapshot")
    );
}

/// Per-node heap at 128×128 must stay in the same ballpark as at 8×8:
/// router/NI/channel state is O(ports × VCs × local traffic), and the only
/// O(mesh) tables (flat indices, activity bitmasks, plan tables) are a few
/// dozen bytes per node. A 2× bound catches any reintroduced O(mesh)
/// per-router table (a single such Vec<u64> would add 128 KiB/node).
#[test]
fn per_node_memory_is_flat_from_8x8_to_128x128() {
    // Floor 0: the engine (and so its plan tables) must exist at both sizes.
    let mut small = make_sim(MechanismId::Afc, 8, 0.02, 4);
    small.network.set_parallel_threshold(0);
    small.run(50);
    let small_fp = small.network.memory_footprint();

    let mut large = make_sim(MechanismId::Afc, 128, 0.02, 4);
    large.network.set_parallel_threshold(0);
    large.run(50);
    let large_fp = large.network.memory_footprint();

    assert!(small_fp.total_bytes() > 0 && large_fp.total_bytes() > 0);
    assert_eq!(small_fp.nodes, 64);
    assert_eq!(large_fp.nodes, 16_384);
    // High-water tracking: the sample above must be recorded.
    assert_eq!(large.network.memory_high_water(), large_fp.total_bytes());

    let small_per_node = small_fp.per_node_bytes();
    let large_per_node = large_fp.per_node_bytes();
    assert!(
        large_per_node <= small_per_node * 2,
        "per-node heap exploded with mesh size: 8x8 = {small_per_node} B/node, \
         128x128 = {large_per_node} B/node \
         (128x128 breakdown: routers {} nis {} channels {} engine {} other {})",
        large_fp.router_bytes,
        large_fp.ni_bytes,
        large_fp.channel_bytes,
        large_fp.engine_bytes,
        large_fp.other_bytes,
    );

    // The engine's plan tables are the one deliberately-O(mesh) piece:
    // ~4 channels per node, each costing ~27 bytes of flat pull-list /
    // kill-schedule tables (~110 B/node total). Bound them at 128 B/node
    // so any accidental O(mesh) *per-router* table still trips instantly.
    assert!(
        large_fp.engine_bytes <= 128 * large_fp.nodes,
        "engine plan tables are no longer compact: {} bytes for {} nodes",
        large_fp.engine_bytes,
        large_fp.nodes
    );
}
