//! Thread-count invariance past one bitmask word (DESIGN.md §12): meshes
//! of more than 64 nodes run serially and sharded must give the same
//! bytes. Every mesh the lockstep harness (`tests/reference_stepper.rs`)
//! draws in tier 1 has at most 49 nodes, so these cases are the tier-1
//! check of shards that cut the activity bitmasks inside and across words.
//! The harness covers thread-count invariance on random configurations,
//! snapshot resume across thread counts included.

mod common;

use afc_bench::MechanismId;
use afc_netsim::config::NetworkConfig;
use common::{fingerprint, open_loop, MECHANISMS};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Each of `ids` on a `side`×`side` mesh, serial against every count in
/// `threads`: equal fingerprints and delivered streams, conservation
/// audits green, and the sharded runs sharded.
fn invariant(side: u16, ids: &[MechanismId], threads: &[usize], rate: f64, seed: u64, cycles: u64) {
    let config = NetworkConfig {
        width: side,
        height: side,
        ..NetworkConfig::paper_8x8()
    };
    for &id in ids {
        let label = format!("{side}x{side} {}", id.label());
        let run = |t| {
            let sim = open_loop(&config, id, rate, seed, t, cycles);
            sim.network.audit().expect("flit conservation");
            sim.network.credit_audit().expect("credit conservation");
            let parallel = sim.network.parallel_cycles();
            (fingerprint(&sim.network), sim.traffic.log, parallel)
        };
        let (base_fp, base_log, base_par) = run(1);
        assert_eq!(base_par, 0, "{label}: the serial baseline sharded");
        assert!(!base_log.is_empty(), "{label}: nothing delivered");
        for &t in threads {
            let (fp, log, parallel) = run(t);
            assert!(parallel > 0, "{label} x{t}: never sharded");
            assert_eq!(base_fp, fp, "{label} x{t}: stats diverge");
            assert!(base_log == log, "{label} x{t}: deliveries diverge");
        }
    }
}

/// 32×32 (16 node words): all four mechanisms, serial vs {2, 4, 8}.
#[test]
fn mesh_32x32_thread_count_never_changes_the_outcome() {
    invariant(32, &MECHANISMS, &THREAD_COUNTS, 0.08, 0xA11CE, 250);
}

/// 64×64: all four mechanisms, serial vs {2, 4, 8}. Shorter run — per-cycle
/// cost is ~4× the 32×32 mesh — but still past warm-up.
#[test]
fn mesh_64x64_thread_count_never_changes_the_outcome() {
    invariant(64, &MECHANISMS, &THREAD_COUNTS, 0.04, 0xB0B, 100);
}

/// 128×128 smoke: the ROADMAP's 100×-beyond-the-paper scale point. AFC,
/// serial vs 4 threads, byte-identical, and the whole thing — construction
/// included — must land within a wall-clock budget (the "cycle budget"
/// guarding against accidental O(mesh²) per-cycle or per-construction
/// blowups).
#[test]
fn mesh_128x128_smoke_within_budget() {
    let budget = std::time::Duration::from_secs(60);
    let t0 = std::time::Instant::now();
    invariant(128, &[MechanismId::Afc], &[4], 0.02, 0x5CA1E, 40);
    let elapsed = t0.elapsed();
    assert!(
        elapsed < budget,
        "128x128 smoke blew its cycle budget: {elapsed:?} > {budget:?}"
    );
}
