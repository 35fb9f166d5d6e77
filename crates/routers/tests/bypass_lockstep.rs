//! The equivalence a sweep plan relies on, pinned where it is defined:
//! `BackpressuredOptions::read_bypass` changes what a router *records*,
//! never what it *does*. A plain and a read-bypass network, fed the same
//! traffic and stepped in lockstep, must agree at every checkpoint on
//!
//! - `NetworkStats` (serialized bytes) and every delivery,
//! - the full network snapshot, byte for byte, once the counters both
//!   sides were just compared on are zeroed — arbiter cursors, credits,
//!   buffered flits, RNG streams, everything that steers the next cycle,
//! - `ActivityCounters`, after `BufferAccounting::Sram` folds the bypassed
//!   reads back into SRAM reads (and exactly, for every other field).
//!
//! `afc_bench`'s sweep planner simulates the read-bypass network once and
//! prices it three ways on the strength of this file. A change that lets
//! the option alter timing must fail here, before it corrupts a sweep.

use afc_energy::BufferAccounting;
use afc_netsim::packet::{DeliveredPacket, PacketInput};
use afc_netsim::prelude::*;
use afc_netsim::snapshot::{fnv1a64, Codec};
use afc_routers::BackpressuredFactory;

/// Read-bypass routers under the plain factory's name: the mechanism name
/// is part of a snapshot, and the two networks' bytes are compared whole.
struct BypassAsPlain;

impl RouterFactory for BypassAsPlain {
    fn build_with(
        &self,
        node: NodeId,
        mesh: &Mesh,
        config: &NetworkConfig,
        rings: Box<[Flit]>,
    ) -> Box<dyn Router> {
        BackpressuredFactory::read_bypass().build_with(node, mesh, config, rings)
    }
    fn name(&self) -> &'static str {
        BackpressuredFactory::new().name()
    }
    fn flit_width_bits(&self) -> u32 {
        BackpressuredFactory::new().flit_width_bits()
    }
    fn buffer_flits_per_port(&self, config: &NetworkConfig) -> usize {
        BackpressuredFactory::new().buffer_flits_per_port(config)
    }
}

/// Seeded traffic with its own RNG (so both networks see the same offers
/// for as long as they deliver the same packets at the same cycles).
enum Load {
    /// Every node offers a 1- or 5-flit packet with probability `p`.
    Open { p: f64 },
    /// Request/reply: up to `window` outstanding 1-flit requests per node,
    /// each answered by a 5-flit reply — the delivery times feed back into
    /// what is offered, as under the closed-loop workloads.
    Closed { window: u32, outstanding: Vec<u32> },
}

struct Traffic {
    load: Load,
    rng: SimRng,
    /// Running hash of every delivery (id, source, cycle).
    deliveries: u64,
}

impl Traffic {
    fn new(load: Load, seed: u64) -> Traffic {
        Traffic {
            load,
            rng: SimRng::seed_from(seed),
            deliveries: 0,
        }
    }

    fn other_node(&mut self, src: usize, nodes: usize) -> NodeId {
        NodeId::new((src + 1 + self.rng.gen_index(nodes - 1)) % nodes)
    }
}

impl TrafficModel for Traffic {
    fn pre_cycle(&mut self, _now: Cycle, net: &mut Network) {
        let nodes = net.mesh().node_count();
        for src in 0..nodes {
            let (vnet, len, kind) = match &mut self.load {
                Load::Open { p } => {
                    if !self.rng.gen_bool(*p) {
                        continue;
                    }
                    let len = if self.rng.gen_bool(0.5) { 1 } else { 5 };
                    (2, len, PacketKind::Synthetic)
                }
                Load::Closed {
                    window,
                    outstanding,
                } => {
                    if outstanding[src] >= *window || !self.rng.gen_bool(0.3) {
                        continue;
                    }
                    outstanding[src] += 1;
                    (0, 1, PacketKind::Request)
                }
            };
            let dest = self.other_node(src, nodes);
            net.offer_packet(
                NodeId::new(src),
                PacketInput {
                    dest,
                    vnet: VirtualNetwork(vnet),
                    len,
                    kind,
                    tag: 0,
                },
            );
        }
    }

    fn on_delivered(&mut self, p: &DeliveredPacket, _now: Cycle, net: &mut Network) {
        let d = &p.descriptor;
        let record = [d.id.0, d.src.index() as u64, p.delivered_at];
        let bytes: Vec<u8> = record.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.deliveries = fnv1a64(&[&self.deliveries.to_le_bytes()[..], &bytes].concat());
        if let Load::Closed { outstanding, .. } = &mut self.load {
            match d.kind {
                PacketKind::Request => {
                    net.offer_packet(
                        d.dest,
                        PacketInput {
                            dest: d.src,
                            vnet: VirtualNetwork(2),
                            len: 5,
                            kind: PacketKind::Response,
                            tag: 0,
                        },
                    );
                }
                _ => outstanding[d.dest.index()] -= 1,
            }
        }
    }
}

fn network_bytes(net: &Network) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    net.save_state(&mut w)
        .expect("backpressured routers snapshot");
    w.into_bytes()
}

fn stats_bytes(net: &Network) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    net.stats().put(&mut w);
    w.into_bytes()
}

/// Steps both networks `checkpoints × every` cycles, comparing at every
/// checkpoint. Returns the bypassed reads seen, so callers can insist the
/// case exercised the option at all.
fn lockstep(cfg: &NetworkConfig, load: fn(usize) -> Load, seed: u64, every: u64) -> u64 {
    let nodes = cfg.mesh().expect("valid mesh").node_count();
    let sim = |factory: &dyn RouterFactory| {
        let net = Network::new(cfg.clone(), factory, seed).expect("valid configuration");
        Simulation::new(net, Traffic::new(load(nodes), seed ^ 0x5EED))
    };
    let mut plain = sim(&BackpressuredFactory::new());
    let mut bypass = sim(&BypassAsPlain);
    let mut bypassed = 0;
    for checkpoint in 1..=12 {
        plain.run(every);
        bypass.run(every);
        let at = format!("seed {seed}, cycle {}", checkpoint * every);
        assert_eq!(
            plain.traffic.deliveries, bypass.traffic.deliveries,
            "{at}: deliveries diverged"
        );
        assert_eq!(
            stats_bytes(&plain.network),
            stats_bytes(&bypass.network),
            "{at}: NetworkStats diverged"
        );
        let recorded = bypass.network.total_counters();
        assert_eq!(
            BufferAccounting::Sram.recount(&recorded),
            plain.network.total_counters(),
            "{at}: counters differ beyond the bypassed reads"
        );
        for node in cfg.mesh().expect("valid mesh").nodes() {
            assert_eq!(
                BufferAccounting::Sram.recount(&bypass.network.router_counters(node)),
                plain.network.router_counters(node),
                "{at}: router {node} counters differ beyond the bypassed reads"
            );
        }
        bypassed += recorded.latch_writes;
        // With the metrics just compared zeroed on both sides, what is left
        // of a snapshot is the state that decides every later cycle.
        plain.network.reset_metrics();
        bypass.network.reset_metrics();
        assert!(
            network_bytes(&plain.network) == network_bytes(&bypass.network),
            "{at}: network state diverged"
        );
    }
    bypassed
}

#[test]
fn read_bypass_never_alters_timing_3x3_request_reply() {
    let cfg = NetworkConfig::paper_3x3();
    for seed in [1, 2, 0xA5A5] {
        let load = |nodes| Load::Closed {
            window: 4,
            outstanding: vec![0; nodes],
        };
        let bypassed = lockstep(&cfg, load, seed, 250);
        assert!(bypassed > 0, "seed {seed}: no read was ever bypassed");
    }
}

#[test]
fn read_bypass_never_alters_timing_8x8_low_and_saturated() {
    let cfg = NetworkConfig::paper_8x8();
    // Offered 0.05 and 0.30 flits/node/cycle at a mean of 3 flits/packet.
    let loads: [fn(usize) -> Load; 2] = [
        |_| Load::Open { p: 0.05 / 3.0 },
        |_| Load::Open { p: 0.30 / 3.0 },
    ];
    for load in loads {
        for seed in [3, 4] {
            let bypassed = lockstep(&cfg, load, seed, 100);
            assert!(bypassed > 0, "seed {seed}: no read was ever bypassed");
        }
    }
}
