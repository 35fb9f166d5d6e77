//! Recovery memory does not grow with run length: an 8×8 mesh under
//! rolling link churn with end-to-end retransmission on, every mechanism,
//! sampled at a warm-up cycle and at the end. Duplicate filtering reads
//! the network's packet table (a late copy's packet has no live entry, or
//! waits untaken at its destination), so an NI keeps nothing per packet it
//! ever delivered; what NI heap remains is queues and buffers sized by the
//! traffic in flight.
//!
//! The bound is 2 bytes of NI heap per packet delivered between the two
//! samples (a per-packet record of any kind costs at least 8). Each run
//! must also sustain its offered load — a backlog growing in the send
//! queues would be memory the traffic asked for, not a leak.
//!
//! The tier-1 soak runs 64 000 cycles; the ignored one runs 10⁶
//! (`cargo test --release --test memory_soak -- --ignored`). The four
//! mechanisms run on threads of their own.

use afc_bench::MechanismId;
use afc_noc::prelude::*;

const SEED: u64 = 0x50AC;

/// The mechanism and the uniform injection rate it runs at: the drop
/// router sustains less under churn, every NACK costing a round trip.
const RUNS: [(MechanismId, f64); 4] = [
    (MechanismId::Backpressured, 0.10),
    (MechanismId::Backpressureless, 0.10),
    (MechanismId::Afc, 0.10),
    (MechanismId::Drop, 0.05),
];

/// NI heap bytes and packets offered, injected and delivered so far.
fn sample(sim: &mut Simulation<OpenLoopTraffic>) -> (usize, [u64; 3]) {
    let ni = sim.network.memory_footprint().ni_bytes;
    let s = sim.network.stats();
    (
        ni,
        [s.packets_offered, s.packets_injected, s.packets_delivered],
    )
}

/// Runs every mechanism, each on its own thread, and checks its bounds.
fn soak(warmup: u64, cycles: u64) {
    std::thread::scope(|scope| {
        for (id, rate) in RUNS {
            scope.spawn(move || soak_one(id, rate, warmup, cycles));
        }
    });
}

fn soak_one(id: MechanismId, rate: f64, warmup: u64, cycles: u64) {
    let mut cfg = NetworkConfig {
        retransmit: Some(RetransmitConfig {
            timeout: 300,
            backoff_cap: 2,
            max_attempts: 0,
        }),
        ..NetworkConfig::paper_8x8()
    };
    let mesh = cfg.mesh().expect("8x8 mesh");
    cfg.faults = FaultPlan::none().with_churn(&mesh, SEED, 500, 0.5, cycles);
    let label = id.label();
    let factory = id.mechanism().factory;
    let network = Network::new(cfg, factory.as_ref(), SEED).expect("valid config");
    let traffic = OpenLoopTraffic::new(
        RateSpec::Uniform(rate),
        Pattern::UniformRandom,
        PacketMix::paper(),
        SEED,
    );
    let mut sim = Simulation::new(network, traffic);
    sim.run(warmup);
    let (ni_warm, [_, _, delivered_warm]) = sample(&mut sim);
    sim.run(cycles - warmup);
    let (ni_end, [offered, injected, delivered]) = sample(&mut sim);

    // The load is sustained: all but a few cycles' offers got in.
    let backlog = offered - injected;
    assert!(
        backlog * 100 < offered,
        "{label} at {rate}: {backlog} of {offered} offered packets never injected"
    );
    let packets = delivered - delivered_warm;
    assert!(
        packets > (cycles - warmup) / 4,
        "{label}: only {packets} packets delivered"
    );
    let grown = ni_end.saturating_sub(ni_warm) as u64;
    assert!(
        grown < 2 * packets,
        "{label}: NI heap grew {ni_warm} -> {ni_end} B over {packets} delivered packets \
         ({:.2} B each)",
        grown as f64 / packets as f64
    );
}

#[test]
fn recovery_memory_stays_flat_under_churn() {
    soak(16_000, 64_000);
}

#[test]
#[ignore = "10^6 cycles: run in release with --ignored"]
fn recovery_memory_stays_flat_for_a_million_cycles() {
    soak(16_000, 1_000_000);
}
