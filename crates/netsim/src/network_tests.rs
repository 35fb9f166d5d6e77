//! Unit tests for the network engine itself, using minimal scripted
//! routers (independent of the real mechanisms in downstream crates).

use crate::config::NetworkConfig;
use crate::error::SimError;
use crate::flit::{PacketKind, VirtualNetwork};
use crate::geom::{Coord, NodeId};
use crate::network::Network;
use crate::packet::PacketInput;
use crate::testutil::FifoFactory;
use std::panic::AssertUnwindSafe;
use std::time::Duration;

fn build(lossy: bool) -> Network {
    let factory = FifoFactory {
        lossy,
        ..FifoFactory::default()
    };
    Network::new(NetworkConfig::paper_3x3(), &factory, 1).expect("valid")
}

fn offer(net: &mut Network, src: (u16, u16), dest: (u16, u16), len: u16) {
    let mesh = net.mesh().clone();
    let s = mesh.node_at(Coord::new(src.0, src.1)).unwrap();
    let d = mesh.node_at(Coord::new(dest.0, dest.1)).unwrap();
    net.offer_packet(
        s,
        PacketInput {
            dest: d,
            vnet: VirtualNetwork(0),
            len,
            kind: PacketKind::Synthetic,
            tag: 0,
        },
    );
}

#[test]
fn engine_delivers_multi_flit_packet_end_to_end() {
    let mut net = build(false);
    offer(&mut net, (0, 0), (2, 2), 4);
    let mut delivered = Vec::new();
    for _ in 0..100 {
        net.step();
        delivered.extend(net.take_delivered());
    }
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].descriptor.len, 4);
    // 4 hops each for 4 flits.
    assert_eq!(delivered[0].total_hops, 16);
    net.audit().expect("conservation");
    assert!(net.is_drained());
}

#[test]
fn audit_detects_lost_flits() {
    let mut net = build(true); // lossy routers discard everything
    net.disable_conservation_check(); // the loss is the point of this test
    offer(&mut net, (0, 0), (2, 2), 1);
    for _ in 0..30 {
        net.step();
    }
    let err = net.audit().expect_err("lossy router must fail the audit");
    assert!(err.contains("conservation"), "got: {err}");
}

#[test]
fn reset_metrics_rebases_the_audit() {
    let mut net = build(false);
    offer(&mut net, (0, 0), (2, 2), 8);
    // Reset mid-flight: the in-flight flits become the audit baseline.
    for _ in 0..5 {
        net.step();
    }
    net.reset_metrics();
    assert_eq!(net.stats().flits_injected, 0);
    net.audit().expect("baseline absorbs in-flight flits");
    for _ in 0..200 {
        net.step();
        net.take_delivered();
    }
    net.audit().expect("still balanced after delivery");
}

#[test]
fn offer_log_captures_packets_in_order() {
    let mut net = build(false);
    net.enable_offer_recording();
    offer(&mut net, (0, 0), (1, 1), 1);
    net.step();
    offer(&mut net, (2, 2), (0, 0), 2);
    let log = net.take_offer_log();
    assert_eq!(log.len(), 2);
    assert!(log[0].0 <= log[1].0);
    assert_eq!(log[1].2.len, 2);
    // Taking drains but keeps recording.
    offer(&mut net, (1, 0), (0, 0), 1);
    assert_eq!(net.take_offer_log().len(), 1);
}

#[test]
fn total_counters_aggregate_all_routers() {
    let mut net = build(false);
    for _ in 0..10 {
        net.step();
    }
    let totals = net.total_counters();
    assert_eq!(totals.cycles, 10 * 9);
    let one = net.router_counters(NodeId::new(0));
    assert_eq!(one.cycles, 10);
}

/// The thread budget setter clamps to `1..=MAX_SIM_THREADS` rather than
/// sizing a pool from whatever it is handed; no cycle is stepped, so no
/// thread is spawned.
#[test]
fn sim_thread_budget_is_clamped() {
    use crate::config::MAX_SIM_THREADS;
    let mut net = build(false);
    for (asked, got) in [
        (0, 1),
        (3, 3),
        (MAX_SIM_THREADS, MAX_SIM_THREADS),
        (MAX_SIM_THREADS + 1, MAX_SIM_THREADS),
        (100_000, MAX_SIM_THREADS),
        (usize::MAX, MAX_SIM_THREADS),
    ] {
        net.set_sim_threads(asked);
        assert_eq!(net.sim_threads, got, "asked for {asked}");
        assert!(net.engine.is_none());
    }
}

#[test]
fn mechanism_metadata_is_exposed() {
    let net = build(false);
    assert_eq!(net.mechanism(), "fifo-test");
    assert_eq!(net.flit_width_bits(), 41);
    assert_eq!(net.buffer_flits_per_port(), 16);
    assert_eq!(net.modes().len(), 9);
}

/// A factory's every option is part of its build key: a network of one
/// factory is no arena for another of the same name but other options.
#[test]
fn same_named_factories_with_other_options_are_not_arena_compatible() {
    let mut net = build(false);
    let config = NetworkConfig::paper_3x3();
    assert!(net.arena_compatible(&config, &FifoFactory::default()));
    let lossy = FifoFactory {
        lossy: true,
        ..FifoFactory::default()
    };
    assert!(!net.arena_compatible(&config, &lossy));
    assert!(!net.reset_from_config(&config, &lossy, 1));
}

#[test]
fn watchdog_catches_ancient_flits() {
    // A flit bouncing forever would trip the age watchdog. Simulate by
    // injecting a flit whose `injected_at` lies in the deep past relative
    // to a tiny watchdog bound.
    let config = NetworkConfig {
        max_flit_age: 10,
        ..NetworkConfig::paper_3x3()
    };
    let mut net = Network::new(config, &FifoFactory::default(), 1).expect("valid");
    offer(&mut net, (0, 0), (2, 2), 1);
    // Advance past the watchdog bound while the flit crosses several links.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for _ in 0..100 {
            net.step();
            net.take_delivered();
        }
    }));
    // With a 10-cycle bound and a 4-hop path (16 cycles), the watchdog
    // must fire.
    assert!(result.is_err(), "watchdog should have panicked");
}

/// A 6×6 network of `factory`'s routers on `threads` threads with the
/// engine gate wide open.
fn sharded_6x6(factory: &FifoFactory, max_flit_age: u64, threads: usize) -> Network {
    let config = NetworkConfig {
        width: 6,
        height: 6,
        max_flit_age,
        ..NetworkConfig::paper_8x8()
    };
    let mut net = Network::new(config, factory, 1).expect("valid");
    net.set_sim_threads(threads);
    net.set_parallel_threshold(0);
    net
}

/// Two scenarios, each with flits going over age in one cycle on several
/// links: every node sending four 4-flit packets to its mirror image (on
/// links of every shard), and two one-flit packets crossing between (2,0)
/// and (3,0) — router (2,0) pulls the larger link before router (3,0)
/// pulls the smaller, so the shard's minimum is not its first error.
#[test]
fn sharded_flit_over_age_is_the_serial_error_at_the_serial_cycle() {
    let first_error = |crossing: bool, threads| {
        let mut net = sharded_6x6(
            &FifoFactory::default(),
            if crossing { 1 } else { 12 },
            threads,
        );
        if crossing {
            offer(&mut net, (2, 0), (5, 0), 1);
            offer(&mut net, (3, 0), (0, 0), 1);
        } else {
            for x in 0..6 {
                for y in 0..6 {
                    for _ in 0..4 {
                        offer(&mut net, (x, y), (5 - x, 5 - y), 4);
                    }
                }
            }
        }
        let err = loop {
            if let Err(e) = net.try_step() {
                break e;
            }
            assert!(net.now() < 500, "the age watchdog never fired");
        };
        assert!(matches!(err, SimError::FlitOverAge { .. }), "{err:?}");
        if threads > 1 {
            assert!(net.parallel_cycles() > 0, "x{threads} never sharded");
        }
        (net.now(), format!("{err:?}"))
    };
    for crossing in [false, true] {
        let serial = first_error(crossing, 1);
        for threads in [2, 3, 4] {
            let sharded = first_error(crossing, threads);
            assert_eq!(sharded, serial, "crossing {crossing} x{threads}");
        }
    }
}

#[test]
fn a_panicking_shard_unwinds_on_the_caller_and_the_pool_shuts_down() {
    for threads in [2, 4] {
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            // The last node lies in the last shard at any thread count ≥ 2.
            let factory = FifoFactory {
                panic_at: Some((NodeId::new(35), 5)),
                ..FifoFactory::default()
            };
            let mut net = sharded_6x6(&factory, 0, threads);
            let run = AssertUnwindSafe(|| (0..20).for_each(|_| net.step()));
            let payload = std::panic::catch_unwind(run).expect_err("the router panics");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            drop(net); // joins every worker
            tx.send(msg).unwrap();
        });
        let msg = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("x{threads}: step or drop hung after a shard panicked"));
        caller.join().unwrap();
        assert!(msg.starts_with("scripted panic at cycle 5"), "{msg}");
        assert!(msg.contains("afc-sim-"), "raised on a worker thread: {msg}");
    }
}
