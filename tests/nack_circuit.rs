//! NACK-circuit coverage: the drop router's retransmission loop preserves
//! packet identity, accounts for every drop, and replays deterministically.

use afc_netsim::packet::{PacketInput, PacketKind};
use afc_noc::prelude::*;

/// A drop network under enough load to force in-network drops.
fn drop_network(seed: u64) -> Network {
    Network::new(NetworkConfig::paper_3x3(), &DropFactory::new(), seed).unwrap()
}

#[test]
fn retransmitted_flits_keep_their_original_identity() {
    // Offer tagged packets from every node to the far corner so the
    // center links saturate and the drop router must drop and NACK.
    let mut net = drop_network(42);
    let mesh = net.mesh().clone();
    let mut offered = Vec::new();
    for round in 0..40u64 {
        for node in mesh.nodes() {
            if node == NodeId::new(8) {
                continue;
            }
            let id = net.offer_packet(
                node,
                PacketInput {
                    dest: NodeId::new(8),
                    vnet: VirtualNetwork(0),
                    len: 3,
                    kind: PacketKind::Synthetic,
                    tag: round * 100 + node.index() as u64,
                },
            );
            offered.push((id, node, round * 100 + node.index() as u64));
        }
    }
    let mut delivered = Vec::new();
    for _ in 0..200_000 {
        net.step();
        delivered.extend(net.take_delivered());
        if delivered.len() == offered.len() {
            break;
        }
    }
    assert_eq!(
        delivered.len(),
        offered.len(),
        "every offered packet arrives"
    );
    assert!(
        net.total_counters().drops > 0,
        "hotspot load must actually exercise the drop path"
    );
    // Every delivered packet is one of the offered ones, with its source
    // and tag intact — retransmission re-materializes the *same* packet.
    for pkt in &delivered {
        let (_, src, tag) = offered
            .iter()
            .find(|(id, _, _)| *id == pkt.descriptor.id)
            .expect("delivered packet was offered");
        assert_eq!(pkt.descriptor.src, *src);
        assert_eq!(pkt.descriptor.tag, *tag);
        assert_eq!(pkt.descriptor.dest, NodeId::new(8));
    }
    // Exactly once each: no duplicate deliveries.
    let mut ids: Vec<u64> = delivered.iter().map(|p| p.descriptor.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), offered.len());
}

#[test]
fn every_drop_is_retransmitted() {
    let out = run_open_loop(
        &DropFactory::new(),
        &NetworkConfig::paper_3x3(),
        RateSpec::Uniform(0.40),
        Pattern::UniformRandom,
        PacketMix::paper(),
        0,
        6_000,
        7,
    )
    .unwrap();
    let mut sim = Simulation::new(
        out.network,
        OpenLoopTraffic::new(
            RateSpec::Uniform(0.0),
            Pattern::UniformRandom,
            PacketMix::paper(),
            7,
        ),
    );
    assert!(sim.drain(500_000), "drop network must drain");
    let stats = sim.network.stats();
    let drops = sim.network.total_counters().drops;
    assert!(drops > 0, "uniform random at 0.40 load must drop");
    // Every drop produces exactly one NACK and one retransmission, and
    // nothing else feeds the retransmit path in a fault-free run.
    assert_eq!(
        stats.flits_retransmitted, drops,
        "drops must equal retransmissions"
    );
    sim.network.audit().expect("flit conservation");
}

#[test]
fn drain_order_is_deterministic_across_replays() {
    let run = |seed: u64| -> Vec<(u64, u64)> {
        let mut net = drop_network(seed);
        let mesh = net.mesh().clone();
        for node in mesh.nodes() {
            if node == NodeId::new(4) {
                continue;
            }
            for k in 0..6u64 {
                net.offer_packet(
                    node,
                    PacketInput {
                        dest: NodeId::new(4),
                        vnet: VirtualNetwork(0),
                        len: 2,
                        kind: PacketKind::Synthetic,
                        tag: k,
                    },
                );
            }
        }
        let mut order = Vec::new();
        for _ in 0..100_000 {
            net.step();
            order.extend(
                net.take_delivered()
                    .into_iter()
                    .map(|p| (p.descriptor.id.0, p.delivered_at)),
            );
            if order.len() == 48 {
                break;
            }
        }
        assert_eq!(order.len(), 48);
        order
    };
    // Identical seeds: identical delivery IDs *and* identical timing.
    assert_eq!(run(3), run(3));
    // A different seed must not replay the same schedule.
    assert_ne!(run(3), run(4));
}

/// Packets whose flits a link corrupts in flight: the destination refuses
/// a corrupt flit, the NACK circuit returns it to its source, and the
/// resent copy goes out clean — on the drop router's native circuit (one
/// flit resent) and under end-to-end recovery (the whole packet resent).
/// Every packet arrives once, exactly as offered, and the run's totals are
/// pinned to those of the 16-bit-checksum flit the corruption flag
/// replaced.
#[test]
fn corrupted_flits_are_nacked_and_delivered_clean() {
    let kinds = [
        PacketKind::Request,
        PacketKind::Response,
        PacketKind::Writeback,
        PacketKind::Synthetic,
    ];
    let cases: [(&str, Box<dyn RouterFactory>, Option<RetransmitConfig>, _); 2] = [
        (
            "drop",
            Box::new(DropFactory::new()),
            None,
            (32, 32, 32, 0, 0, 2_456, 614),
        ),
        (
            "afc",
            Box::new(AfcFactory::paper()),
            Some(RetransmitConfig::default()),
            (33, 33, 128, 32, 33, 2_460, 615),
        ),
    ];
    for (name, factory, retransmit, pinned) in cases {
        let cfg = NetworkConfig {
            faults: FaultPlan::uniform_transient(0.0, 0.02),
            retransmit,
            ..NetworkConfig::paper_3x3()
        };
        let mut net = Network::new(cfg, factory.as_ref(), 5).unwrap();
        let mut offered = Vec::new();
        let mut delivered = Vec::new();
        for now in 0..20_000u64 {
            let (src, dest) = ((now % 9) as usize, (now * 5 % 9) as usize);
            if now < 600 && now % 2 == 0 && src != dest {
                let input = PacketInput {
                    dest: NodeId::new(dest),
                    vnet: VirtualNetwork((now % 3) as u8),
                    len: [1, 5][(now / 2 % 2) as usize],
                    kind: kinds[(now / 4 % 4) as usize],
                    tag: now * 1_000 + src as u64,
                };
                let id = net.offer_packet(NodeId::new(src), input);
                offered.push((id, NodeId::new(src), input, now));
            }
            net.step();
            delivered.extend(net.take_delivered());
            if now >= 600 && net.is_drained() {
                break;
            }
        }
        assert_eq!(
            delivered.len(),
            offered.len(),
            "{name}: every packet arrives"
        );
        delivered.sort_by_key(|p| p.descriptor.id);
        for (p, (id, src, input, at)) in delivered.iter().zip(&offered) {
            let d = p.descriptor;
            assert_eq!(
                (d.id, d.src, d.dest, d.vnet),
                (*id, *src, input.dest, input.vnet)
            );
            assert_eq!(
                (d.len, d.kind, d.tag, d.created_at),
                (input.len, input.kind, input.tag, *at)
            );
        }
        let s = net.stats();
        let got = (
            s.flits_corrupted,
            s.faults_injected,
            s.flits_retransmitted,
            s.retransmit_timeouts,
            s.nacks_absorbed,
            s.network_latency.sum(),
            net.now(),
        );
        assert!(s.flits_corrupted > 0, "{name}: no corruption");
        assert_eq!(got, pinned, "{name}: got {got:?}");
        net.audit().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(net.packet_table().live(), 0, "{name}");
    }
}
