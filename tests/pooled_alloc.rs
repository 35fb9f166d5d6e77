//! Allocation discipline of the sweep arena pool (DESIGN.md §7): the
//! second and later jobs a pooled worker executes must not pay network
//! construction — [`Network::reset_from_config`] reinitializes the arena
//! in place with (near-)zero heap traffic, and the job's remaining
//! allocations are traffic-model setup and output formatting only.
//!
//! Uses the same counting [`GlobalAlloc`] wrapper as `alloc_free.rs`; a
//! single `#[test]` keeps concurrent test threads out of the measurement
//! windows (the counter is global).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use afc_bench::sweep::{pool_clear, RunKind, RunSpec};
use afc_bench::MechanismId;
use afc_netsim::config::NetworkConfig;
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the wrapper only
// increments atomic counters on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested so far (a `realloc` counts its whole new size).
fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

fn job(seed: u64) -> RunSpec {
    RunSpec {
        mechanism: MechanismId::Afc,
        seed,
        // Rate 0: no packets, so the measured window isolates *setup*
        // cost — construction vs in-place reset — from per-packet
        // allocations that both paths share.
        kind: RunKind::OpenLoop {
            rate: 0.0,
            pattern: Pattern::UniformRandom,
            mix: PacketMix::paper(),
            warmup_cycles: 50,
            measure_cycles: 100,
        },
    }
}

#[test]
fn pooled_worker_reuses_its_arena_without_allocating() {
    let cfg = NetworkConfig::paper_8x8();
    let mech = MechanismId::Afc.mechanism();
    let factory = mech.factory.as_ref();

    // Direct arena reset: construct, dirty with real traffic, then reset
    // in place. The reset itself must be allocation-free (clears and
    // refills of existing storage only; a handful tolerated for RNG/seed
    // plumbing noise).
    let before = allocations();
    let net = Network::new(cfg.clone(), factory, 1).expect("valid");
    let cold = allocations() - before;
    let traffic = OpenLoopTraffic::new(
        RateSpec::Uniform(0.05),
        Pattern::UniformRandom,
        PacketMix::paper(),
        1,
    );
    let mut sim = Simulation::new(net, traffic);
    sim.run(500);
    let before = allocations();
    assert!(sim.network.reset_from_config(&cfg, factory, 2));
    let reset = allocations() - before;
    assert!(
        reset <= 8,
        "in-place arena reset allocated {reset} times \
         (fresh construction: {cold})"
    );
    assert!(
        cold > 500,
        "fresh 8x8 construction counted only {cold} allocations — the \
         comparison baseline is broken"
    );

    // Sweep-level: after the first (cold) pooled job stocks this worker's
    // arena, every later arena-compatible job runs with near-zero setup
    // allocations — traffic-model construction and output strings, not
    // O(mesh) network construction.
    pool_clear();
    let before = allocations();
    let _ = job(10).execute_tuned(&cfg, false, false);
    let fresh = allocations() - before;
    let _ = job(11).execute_tuned(&cfg, true, false); // stocks the arena
    let before = allocations();
    let _ = job(12).execute_tuned(&cfg, true, false);
    let second = allocations() - before;
    let before = allocations();
    let _ = job(13).execute_tuned(&cfg, true, false);
    let third = allocations() - before;
    for (label, pooled) in [("second", second), ("third", third)] {
        assert!(
            pooled * 10 < fresh,
            "{label} pooled job allocated {pooled} times vs {fresh} for a \
             fresh job — the arena is not being reused"
        );
        assert!(
            pooled < 200,
            "{label} pooled job allocated {pooled} times — setup should be \
             traffic-model construction and output formatting only"
        );
    }

    // A warm store costs a cold job nothing but its lookup: the job's first
    // lookup of its key is a miss the cache only remembers, so it neither
    // serialises its post-warm-up network (some 180 KB of allocation at
    // 8x8, the buffer's growth included) nor keeps it. The allowance covers
    // the key string, the remembered key and the cache's first-use setup.
    const LOOKUP_BYTES: u64 = 8 << 10;
    let before = bytes();
    let _ = job(14).execute_tuned(&cfg, true, false);
    let storeless = bytes() - before;
    let before = bytes();
    let _ = job(14).execute_tuned(&cfg, true, true);
    let cold = bytes() - before;
    assert!(
        cold <= storeless + LOOKUP_BYTES,
        "a cold job with a warm store allocated {cold} bytes vs {storeless} \
         without one — it paid for a snapshot nobody asked for"
    );
    pool_clear();
}
