//! Cross-mechanism invariant suite: for every router mechanism × synthetic
//! pattern × load point, inject open-loop traffic, stop the sources, drain
//! completely, and assert the conservation laws the engine promises:
//!
//! - flit conservation ([`Network::audit`]): every injected flit is
//!   delivered, in flight, or accounted to a fault counter,
//! - credit conservation ([`Network::credit_audit`]): credits pushed equal
//!   credits delivered + faulted + on the wire + staged,
//! - no lost packets (delivered == offered after a full drain),
//! - no duplicate or phantom deliveries: every delivered packet id is
//!   unique, the delivery-callback count matches the stats counters, and no
//!   flit was discarded as a duplicate (no faults ⇒ no retransmissions),
//! - in-order per-(src, dest, vnet) delivery where the mechanism actually
//!   guarantees it — see [`backpressured_single_vc_delivers_in_order`].
//!
//! Every case runs on the tracked walk and the sharded engine, which must
//! deliver the same packets at the same cycles.
//!
//! On ordering: with multiple VCs per vnet, even the deterministic-XY
//! backpressured router legally reorders same-pair packets (a later packet
//! can win a different VC and overtake at switch allocation); deflection
//! misroutes, the drop router retransmits, and AFC mode-switches, so none
//! of them order either. Measured on the paper 3x3 config at load 0.30,
//! every mechanism shows a handful of true overtakes (strictly later
//! delivery cycle for a smaller id). The one real guarantee in this design
//! space — one FIFO VC per vnet + deterministic routing + wormhole — is
//! pinned below for the backpressured router and holds with zero
//! violations across all patterns and loads.

mod common;

use afc_bench::mechanisms::{Mechanism, MechanismId};
use afc_netsim::config::NetworkConfig;
use afc_netsim::flit::Cycle;
use afc_netsim::network::Network;
use afc_netsim::packet::DeliveredPacket;
use afc_netsim::sim::{Simulation, TrafficModel};
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;
use common::{Engine, MECHANISMS};
use std::collections::HashMap;

fn patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        ("uniform", Pattern::UniformRandom),
        ("transpose", Pattern::Transpose),
        ("near-neighbor", Pattern::NearNeighbor),
    ]
}

const LOADS: [f64; 3] = [0.05, 0.15, 0.30];

/// Open-loop traffic that additionally records every delivery.
struct Recorder {
    inner: OpenLoopTraffic,
    delivered: Vec<DeliveredPacket>,
}

impl TrafficModel for Recorder {
    fn pre_cycle(&mut self, now: Cycle, net: &mut Network) {
        self.inner.pre_cycle(now, net);
    }
    fn on_delivered(&mut self, packet: &DeliveredPacket, now: Cycle, net: &mut Network) {
        self.inner.on_delivered(packet, now, net);
        self.delivered.push(*packet);
    }
}

struct CaseOutcome {
    delivered: Vec<DeliveredPacket>,
}

fn run_case(mech: &Mechanism, pattern: Pattern, rate: f64, context: &str) -> CaseOutcome {
    run_case_with(mech, NetworkConfig::paper_3x3(), pattern, rate, context)
}

/// Runs [`run_on`] on every engine; both must deliver the same packets at
/// the same cycles.
fn run_case_with(
    mech: &Mechanism,
    cfg: NetworkConfig,
    pattern: Pattern,
    rate: f64,
    context: &str,
) -> CaseOutcome {
    let [tracked, rest @ ..] =
        Engine::ALL.map(|engine| run_on(engine, mech, &cfg, pattern.clone(), rate, context));
    for other in rest {
        assert!(
            other.delivered == tracked.delivered,
            "{context}: the engines deliver differently"
        );
    }
    tracked
}

/// Injects for 1500 cycles, stops the sources, drains completely, and runs
/// the mechanism-independent audits. Panics (with `context`) on any
/// violation; returns the recorded deliveries for mechanism-specific
/// checks.
fn run_on(
    engine: Engine,
    mech: &Mechanism,
    cfg: &NetworkConfig,
    pattern: Pattern,
    rate: f64,
    context: &str,
) -> CaseOutcome {
    let context = &format!("{context} on {engine:?}");
    let seed = 0xA11CE;
    let mut network = Network::new(cfg.clone(), mech.factory.as_ref(), seed).expect("valid config");
    engine.apply(&mut network);
    let inner = OpenLoopTraffic::new(RateSpec::Uniform(rate), pattern, PacketMix::paper(), seed);
    let mut sim = Simulation::new(
        network,
        Recorder {
            inner,
            delivered: Vec::new(),
        },
    );
    sim.try_run(1_500)
        .unwrap_or_else(|e| panic!("{context}: watchdog during injection: {e}"));
    sim.traffic.inner.stop();
    let drained = sim
        .try_drain(500_000)
        .unwrap_or_else(|e| panic!("{context}: watchdog during drain: {e}"));
    assert!(drained, "{context}: network failed to drain");
    engine.assert_ran(&sim.network);

    let stats = sim.network.stats().clone();
    sim.network
        .audit()
        .unwrap_or_else(|e| panic!("{context}: flit conservation violated: {e}"));
    sim.network
        .credit_audit()
        .unwrap_or_else(|e| panic!("{context}: credit conservation violated: {e}"));
    assert_eq!(
        stats.packets_delivered, stats.packets_offered,
        "{context}: offered packets lost after full drain"
    );
    // Without injected faults there are no retransmissions, so any
    // duplicate-flit discard would mean the router fabricated a flit.
    assert_eq!(
        stats.duplicate_flits_discarded, 0,
        "{context}: duplicate flits discarded in a fault-free run"
    );

    // No phantom or duplicate deliveries: ids are unique, and the callback
    // count agrees with the stats counter (itself equal to offered).
    let delivered = std::mem::take(&mut sim.traffic.delivered);
    let mut ids: Vec<u64> = delivered.iter().map(|p| p.descriptor.id.0).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(
        before,
        ids.len(),
        "{context}: a packet was delivered more than once"
    );
    assert_eq!(
        delivered.len() as u64,
        stats.packets_delivered,
        "{context}: delivery callback count disagrees with stats"
    );
    CaseOutcome { delivered }
}

/// Returns (strict, ties): `strict` counts deliveries where a smaller-id
/// packet of some (src, dest, vnet) pair arrived at a strictly later cycle
/// than a larger-id one (true overtaking); `ties` counts smaller-id
/// deliveries reported in the same cycle as a larger-id one (callback-order
/// artifacts, not network reordering).
fn out_of_order_pairs(delivered: &[DeliveredPacket]) -> (usize, usize) {
    let mut last: HashMap<(u32, u32, u8), (u64, Cycle)> = HashMap::new();
    let (mut strict, mut ties) = (0, 0);
    for p in delivered {
        let key = (
            p.descriptor.src.index() as u32,
            p.descriptor.dest.index() as u32,
            p.descriptor.vnet.0,
        );
        let id = p.descriptor.id.0;
        if let Some(&(prev_id, prev_cycle)) = last.get(&key) {
            if id < prev_id {
                if p.delivered_at > prev_cycle {
                    strict += 1;
                } else {
                    ties += 1;
                }
            }
        }
        let entry = last.entry(key).or_insert((id, p.delivered_at));
        if id > entry.0 {
            *entry = (id, p.delivered_at);
        }
    }
    (strict, ties)
}

/// paper_3x3 with every vnet reduced to a single VC: with one FIFO channel
/// per vnet and deterministic XY routing, the backpressured router cannot
/// reorder packets of the same (src, dest, vnet).
fn single_vc_config() -> NetworkConfig {
    let mut cfg = NetworkConfig::paper_3x3();
    for vnet in &mut cfg.vnets {
        vnet.vcs = 1;
    }
    cfg
}

/// Conservation laws and exactly-once delivery on the paper configuration,
/// across the full mechanism × pattern × load grid (4 × 3 × 3 = 36 runs).
#[test]
fn conservation_and_exactly_once_delivery() {
    for id in MECHANISMS {
        let mech = id.mechanism();
        for (pname, pattern) in patterns() {
            for rate in LOADS {
                let ctx = format!("{}/{}/{:.2}", id.label(), pname, rate);
                run_case(&mech, pattern.clone(), rate, &ctx);
            }
        }
    }
}

/// The same audits hold when every vnet is squeezed to a single VC (the
/// configuration the in-order test below relies on).
#[test]
fn conservation_holds_with_single_vc_vnets() {
    for id in MECHANISMS {
        let mech = id.mechanism();
        for rate in LOADS {
            let ctx = format!("1vc/{}/uniform/{:.2}", id.label(), rate);
            run_case_with(
                &mech,
                single_vc_config(),
                Pattern::UniformRandom,
                rate,
                &ctx,
            );
        }
    }
}

/// In-order per-(src, dest, vnet) delivery for the one mechanism/config
/// pair that guarantees it: backpressured wormhole with a single FIFO VC
/// per vnet and deterministic XY routing. Deflection, drop, AFC, and any
/// multi-VC configuration legally reorder (see module docs), so they are
/// deliberately not asserted here.
#[test]
fn backpressured_single_vc_delivers_in_order() {
    let mech = MechanismId::Backpressured.mechanism();
    for (pname, pattern) in patterns() {
        for rate in LOADS {
            let ctx = format!("1vc/backpressured/{}/{:.2}", pname, rate);
            let out = run_case_with(&mech, single_vc_config(), pattern.clone(), rate, &ctx);
            let (strict, ties) = out_of_order_pairs(&out.delivered);
            assert_eq!(
                (strict, ties),
                (0, 0),
                "{ctx}: single-VC backpressured delivery reordered a same-pair packet"
            );
        }
    }
}

/// Reordering under the paper's multi-VC configuration is bounded: packets
/// may overtake, but each pair's deliveries are a permutation of its
/// offered ids (exactly-once is asserted in `run_case_with`), and at low
/// load (≤ 0.15 flits/node/cycle) no mechanism has been observed to
/// reorder — pin that as a regression canary so an ordering collapse at
/// light load gets flagged even though it is not a formal guarantee.
#[test]
fn light_load_delivery_is_in_order_for_all_mechanisms() {
    for id in MECHANISMS {
        let mech = id.mechanism();
        for (pname, pattern) in patterns() {
            for rate in [0.05, 0.15] {
                let ctx = format!("{}/{}/{:.2}", id.label(), pname, rate);
                let out = run_case(&mech, pattern.clone(), rate, &ctx);
                let (strict, _ties) = out_of_order_pairs(&out.delivered);
                assert_eq!(
                    strict, 0,
                    "{ctx}: unexpected same-pair overtaking at light load"
                );
            }
        }
    }
}
