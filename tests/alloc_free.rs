//! Steady-state allocation discipline: once warmed up, the cycle engine's
//! hot loop must not touch the heap — no per-cycle `Vec` churn in the
//! channel lanes, router arbitration, delivery draining, or activity
//! bookkeeping (DESIGN.md §8).
//!
//! A counting wrapper around the system allocator measures allocations
//! across a timed window of [`Simulation::step`] calls. The workspace
//! simulation crates all `#![forbid(unsafe_code)]`; the `unsafe` needed to
//! implement [`GlobalAlloc`] lives here, in an integration-test binary
//! outside those crates.
//!
//! The guarantee is asserted twice. *Idle* steady state (every link slot,
//! scratch buffer and reused `Vec` already at capacity; the regime the
//! activity tracker optimizes for, where any per-cycle allocation is pure
//! engine overhead) must not allocate at all. *Loaded* steady state may
//! still grow a queue past its old high-water mark the first time traffic
//! takes it there, so it is measured the way `afc-perf` measures it: a
//! segment is run once, the simulation restored to the segment's start,
//! and the identical segment run again — that second pass must allocate
//! exactly nothing. Latches, link slots, reassembly bitwords and candidate
//! flits are all inline, so nothing is left that allocates per flit, per
//! packet or per component; anything that did would do so on every pass.
//!
//! The same second-pass rule holds under rolling link churn with
//! end-to-end retransmission on: NACKs, acks, timeouts, duplicate copies,
//! fault-aware rerouting and credit re-syncs all reuse what the first
//! pass grew.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use afc_bench::{Engine, MechanismId};
use afc_netsim::config::{NetworkConfig, RetransmitConfig};
use afc_netsim::faults::FaultPlan;
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the wrapper only
// increments an atomic counter on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const MECHANISMS: [MechanismId; 4] = [
    MechanismId::Backpressured,
    MechanismId::Backpressureless,
    MechanismId::Drop,
    MechanismId::Afc,
];

/// An 8×8 network with end-to-end retransmission and a link killed for
/// 250 of every 500 cycles through the whole measurement.
fn churned_config() -> NetworkConfig {
    let mut cfg = NetworkConfig {
        retransmit: Some(RetransmitConfig {
            timeout: 300,
            backoff_cap: 2,
            max_attempts: 0,
        }),
        ..NetworkConfig::paper_8x8()
    };
    let mesh = cfg.mesh().expect("8x8 mesh");
    cfg.faults = FaultPlan::none().with_churn(&mesh, 0xFEED, 500, 0.5, 10_000);
    cfg
}

fn warmed_sim(
    cfg: NetworkConfig,
    id: MechanismId,
    rate: f64,
    engine: Engine,
) -> Simulation<OpenLoopTraffic> {
    let mut network =
        Network::new(cfg, id.mechanism().factory.as_ref(), 0xFEED).expect("valid config");
    engine.apply(&mut network);
    let traffic = OpenLoopTraffic::new(
        RateSpec::Uniform(rate),
        Pattern::UniformRandom,
        PacketMix::paper(),
        0xFEED,
    );
    let mut sim = Simulation::new(network, traffic);
    // Long warmup: every router scratch vector, NACK queue and delivery
    // buffer must have seen its high-water mark.
    sim.run(3_000);
    sim
}

/// One test function (not one per case): integration tests run in
/// parallel threads by default, and the allocation counter is global —
/// serializing the measurements inside a single `#[test]` keeps other
/// threads' allocations out of the window.
#[test]
fn steady_state_step_loop_is_allocation_free() {
    for engine in Engine::ALL {
        for id in MECHANISMS {
            // Idle steady state: zero allocations allowed, on every engine.
            let mut sim = warmed_sim(NetworkConfig::paper_8x8(), id, 0.0, engine);
            sim.run(100); // settle the measurement harness itself
            let before = allocations();
            sim.run(2_000);
            let after = allocations();
            engine.assert_ran(&sim.network);
            assert_eq!(
                after - before,
                0,
                "{} ({engine:?}): idle steady-state step loop \
                 allocated {} times in 2000 cycles",
                id.label(),
                after - before
            );

            // Loaded steady state, light and saturated (where AFC switches
            // modes and the drop router retransmits), and under churn with
            // retransmission: the second pass over an identical segment
            // allocates exactly nothing. The churned segment is long enough
            // for every router to learn a dozen new link facts.
            let loaded = [
                (NetworkConfig::paper_8x8(), 0.05, "light", 2_000),
                (NetworkConfig::paper_8x8(), 0.30, "saturated", 2_000),
                (churned_config(), 0.10, "churned", 6_000),
            ];
            for (cfg, rate, case, segment) in loaded {
                let mut sim = warmed_sim(cfg, id, rate, engine);
                let start = sim.snapshot().expect("snapshot");
                sim.run(segment);
                sim.restore(&start, "<memory>").expect("restore");
                let before = allocations();
                sim.run(segment);
                let allocated = allocations() - before;
                engine.assert_ran(&sim.network);
                assert_eq!(
                    allocated,
                    0,
                    "{} ({engine:?}, {case} at {rate}): a per-flit, \
                     per-packet or per-component path allocates under load",
                    id.label()
                );
            }
        }
    }
}
