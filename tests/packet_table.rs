//! The network's packet table (DESIGN.md §16): one entry per offered,
//! undelivered packet, holding what only the destination reads.
//!
//! * After a run drains, the window is empty for every mechanism — fault
//!   free, under transient faults with recovery, and under link churn with
//!   unbounded retransmission.
//! * Packets whose source gave up leave the window, so a destination made
//!   unreachable by a permanent kill does not pin its base.
//! * A copy delivered after its source gave up still reads its packet's
//!   original creation cycle, kind and tag.
//! * The table is counted in the network's memory footprint.

use afc_netsim::packet::{PacketInput, PacketKind};
use afc_noc::prelude::*;

fn mechanisms() -> Vec<(&'static str, Box<dyn RouterFactory>)> {
    vec![
        ("backpressured", Box::new(BackpressuredFactory::new())),
        ("backpressureless", Box::new(DeflectionFactory::new())),
        ("drop", Box::new(DropFactory::new())),
        ("afc", Box::new(AfcFactory::paper())),
    ]
}

fn mesh4() -> NetworkConfig {
    NetworkConfig {
        width: 4,
        height: 4,
        ..NetworkConfig::paper_3x3()
    }
}

/// The fault-free paper config, transient faults under recovery, and the
/// benchmark's churn scenario: rolling link outages with unbounded
/// retransmission `{300, 2, 0}`.
fn scenarios() -> Vec<(&'static str, NetworkConfig)> {
    let churn = RetransmitConfig {
        timeout: 300,
        backoff_cap: 2,
        max_attempts: 0,
    };
    let mesh = mesh4().mesh().unwrap();
    vec![
        ("clean", mesh4()),
        (
            "transient",
            NetworkConfig {
                faults: FaultPlan::uniform_transient(2e-3, 2e-3),
                retransmit: Some(RetransmitConfig::default()),
                ..mesh4()
            },
        ),
        (
            "churn",
            NetworkConfig {
                faults: FaultPlan::none().with_churn(&mesh, 5, 150, 0.5, 2_500),
                retransmit: Some(churn),
                ..mesh4()
            },
        ),
    ]
}

#[test]
fn the_window_is_empty_after_every_mechanism_drains() {
    for (name, factory) in mechanisms() {
        for (scenario, cfg) in scenarios() {
            let out = run_fault_scenario(
                factory.as_ref(),
                &cfg,
                RateSpec::Uniform(0.12),
                Pattern::UniformRandom,
                PacketMix::paper(),
                2_500,
                400_000,
                17,
            )
            .unwrap();
            let what = format!("{name} {scenario}");
            assert!(
                out.error.is_none() && out.drained,
                "{what}: {:?}",
                out.error
            );
            let s = &out.stats;
            assert_eq!(s.packets_delivered, s.packets_offered, "{what}");
            let table = out.network.packet_table();
            assert_eq!(table.window_len(), 0, "{what}: window left behind");
            assert_eq!(table.live(), 0, "{what}: entries left behind");
            assert_eq!(
                table.end(),
                s.packets_offered,
                "{what}: one entry per offer"
            );
        }
    }
}

#[test]
fn a_destination_cut_off_for_good_does_not_pin_the_base() {
    // Node 0 loses both of its links at cycle 600 with one retransmission
    // allowed: its sources give up on it, and the table's window still
    // empties once everything else is delivered.
    let mesh = mesh4().mesh().unwrap();
    let corner = NodeId::new(0);
    for (name, factory) in mechanisms() {
        let cfg = NetworkConfig {
            faults: FaultPlan::none()
                .kill_link(corner, Direction::East, 600)
                .kill_link(corner, Direction::South, 600)
                .kill_link(
                    mesh.neighbor(corner, Direction::East).unwrap(),
                    Direction::West,
                    600,
                )
                .kill_link(
                    mesh.neighbor(corner, Direction::South).unwrap(),
                    Direction::North,
                    600,
                ),
            retransmit: Some(RetransmitConfig {
                timeout: 200,
                backoff_cap: 1,
                max_attempts: 1,
            }),
            stall_watchdog: 20_000,
            ..mesh4()
        };
        let out = run_fault_scenario(
            factory.as_ref(),
            &cfg,
            RateSpec::Uniform(0.08),
            Pattern::UniformRandom,
            PacketMix::paper(),
            2_000,
            200_000,
            3,
        )
        .unwrap();
        assert!(
            out.error.is_none() && out.drained,
            "{name}: {:?}",
            out.error
        );
        let s = &out.stats;
        assert!(s.packets_unreachable > 0, "{name}: nobody gave up");
        let table = out.network.packet_table();
        assert_eq!(
            table.window_len(),
            0,
            "{name}: given-up packets pin the base"
        );
        assert_eq!(table.base(), s.packets_offered, "{name}");
        // What is left are the given-up packets no copy ever delivered.
        let undelivered = s.packets_offered - s.packets_delivered;
        assert_eq!(table.orphans() as u64, undelivered, "{name}");
        assert!(undelivered <= s.packets_unreachable, "{name}");
    }
}

#[test]
fn a_copy_delivered_after_its_source_gave_up_keeps_its_packet_data() {
    // The retransmit timeout is shorter than the six-hop path: the source
    // times out, retransmits once and gives up while both copies are still
    // on their way, and the first to arrive delivers the packet as it was
    // offered.
    let (src, dest) = (NodeId::new(0), NodeId::new(15));
    for (name, factory) in mechanisms() {
        let cfg = NetworkConfig {
            retransmit: Some(RetransmitConfig {
                timeout: 4,
                backoff_cap: 0,
                max_attempts: 1,
            }),
            ..mesh4()
        };
        let mut net = Network::new(cfg, factory.as_ref(), 9).unwrap();
        for _ in 0..5 {
            net.step();
        }
        let input = PacketInput {
            dest,
            vnet: VirtualNetwork(2),
            len: 5,
            kind: PacketKind::Writeback,
            tag: 0x0007_A60F_C0DE,
        };
        let id = net.offer_packet(src, input);
        let mut delivered = Vec::new();
        let mut orphaned_at = None;
        for _ in 0..5_000 {
            net.step();
            if orphaned_at.is_none() && net.packet_table().orphans() == 1 {
                orphaned_at = Some(net.now());
                assert_eq!(net.packet_table().window_len(), 0, "{name}");
                assert_eq!(net.unreachable_packets()[0].id, id, "{name}");
            }
            delivered.extend(net.take_delivered());
        }
        assert_eq!(net.stats().packets_unreachable, 1, "{name}");
        assert_eq!(delivered.len(), 1, "{name}: one copy delivers the packet");
        let gave_up = orphaned_at.expect("the source gives up");
        assert!(gave_up < delivered[0].delivered_at, "{name}: {gave_up}");
        let d = delivered[0].descriptor;
        assert_eq!((d.id, d.src, d.dest, d.len), (id, src, dest, 5), "{name}");
        assert_eq!(
            (d.created_at, d.kind, d.tag),
            (5, input.kind, input.tag),
            "{name}"
        );
        assert_eq!(net.packet_table().live(), 0, "{name}: the orphan retired");
        assert!(net.is_drained(), "{name}");
    }
}

#[test]
fn the_footprint_counts_the_table() {
    let mut net = Network::new(mesh4(), &BackpressuredFactory::new(), 1).unwrap();
    let before = (net.memory_footprint(), net.packet_table().heap_bytes());
    for i in 0..2_000u64 {
        let input = PacketInput {
            dest: NodeId::new(15),
            vnet: VirtualNetwork(0),
            len: 1,
            kind: PacketKind::Synthetic,
            tag: i,
        };
        net.offer_packet(NodeId::new((i % 15) as usize), input);
    }
    let after = (net.memory_footprint(), net.packet_table().heap_bytes());
    assert!(after.1 >= 2_000 * 24, "{} bytes", after.1);
    assert_eq!(
        after.0.other_bytes - before.0.other_bytes,
        after.1 - before.1,
        "the table's growth is the footprint's"
    );
}
