//! Property-style tests: simulator invariants that must hold for *any*
//! mesh size, seed, load level and mechanism.
//!
//! Formerly driven by `proptest`; rewritten as deterministic seeded sweeps
//! over [`SimRng`]-drawn parameters so the suite builds with no external
//! dependencies (the verify pipeline runs offline). Every case is fully
//! reproducible from its printed seed.
//!
//! The deepest invariant — "credit accounting never overflows a buffer" —
//! is enforced by panics inside the routers themselves, so every property
//! here doubles as a fuzz of those assertions.

mod common;

use afc_noc::prelude::*;
use common::Engine;

fn mechanism(idx: usize) -> Box<dyn afc_netsim::router::RouterFactory> {
    match idx % 5 {
        0 => Box::new(BackpressuredFactory::new()),
        1 => Box::new(DeflectionFactory::new()),
        2 => Box::new(DropFactory::new()),
        3 => Box::new(AfcFactory::paper()),
        _ => Box::new(AfcFactory::always_backpressured()),
    }
}

fn small_config(w: u16, h: u16) -> NetworkConfig {
    NetworkConfig {
        width: w,
        height: h,
        ..NetworkConfig::paper_3x3()
    }
}

/// The engine case `case` runs on: the two alternate.
fn engine(case: u64) -> Engine {
    Engine::ALL[case as usize % Engine::ALL.len()]
}

/// `kind` on `engine`, on the 3x3 paper mesh.
fn run_3x3(
    engine: Engine,
    kind: &RunKind,
    factory: &dyn afc_netsim::router::RouterFactory,
    seed: u64,
) -> RunOutcome {
    let (cfg, policy) = (NetworkConfig::paper_3x3(), CheckpointPolicy::default());
    engine.run(kind, factory, &cfg, seed, policy)
}

/// Everything offered below saturation is eventually delivered, exactly
/// once (duplicates panic inside the NI), on any mesh, mechanism and
/// engine.
#[test]
fn conservation_all_offered_packets_are_delivered() {
    for case in 0..12u64 {
        let mut p = SimRng::seed_from(0xC0DE + case);
        let w = 2 + p.gen_range(3) as u16;
        let h = 2 + p.gen_range(3) as u16;
        let mech = p.gen_index(5);
        let seed = p.gen_range(1_000);
        let rate = 0.01 + p.gen_f64() * 0.24;

        let cfg = small_config(w, h);
        let factory = mechanism(mech);
        let mut network = Network::new(cfg, factory.as_ref(), seed).unwrap();
        engine(case).apply(&mut network);
        let traffic = OpenLoopTraffic::new(
            RateSpec::Uniform(rate),
            Pattern::UniformRandom,
            PacketMix::paper(),
            seed,
        );
        let mut sim = Simulation::new(network, traffic);
        sim.run(3_000);
        sim.traffic.stop();
        assert!(
            sim.drain(500_000),
            "network must drain after sources stop (case {case}: {w}x{h} mech {mech} seed {seed})"
        );
        let stats = sim.network.stats();
        assert_eq!(
            stats.packets_delivered, stats.packets_offered,
            "case {case}: {w}x{h} mech {mech} seed {seed}"
        );
        assert!(sim.network.is_drained());
        sim.network.audit().expect("flit conservation");
        sim.network.credit_audit().expect("credit conservation");
        engine(case).assert_ran(&sim.network);
    }
}

/// Closed-loop runs complete their transaction budget with every
/// request matched by exactly one reply, at any load.
#[test]
fn closed_loop_requests_match_replies() {
    for case in 0..10u64 {
        let mut p = SimRng::seed_from(0xB00C + case);
        let mech = p.gen_index(5);
        let seed = p.gen_range(1_000);
        let think = 10.0 + p.gen_f64() * 390.0;
        let threads = 1 + p.gen_index(5);

        let kind = RunKind::ClosedLoop {
            workload: WorkloadParams {
                think_mean: think,
                threads,
                ..workloads::barnes()
            },
            warmup_txns: 10,
            measure_txns: 60,
            max_cycles: 10_000_000,
        };
        let out = run_3x3(engine(case), &kind, mechanism(mech).as_ref(), seed);
        assert!(
            out.stats.packets_delivered > 0,
            "case {case}: mech {mech} seed {seed}"
        );
        // Latency statistics are internally consistent.
        let lat = &out.stats.network_latency;
        if let (Some(mean), Some(min), Some(max)) = (lat.mean(), lat.min(), lat.max()) {
            assert!(min as f64 <= mean && mean <= max as f64);
        }
    }
}

/// Deterministic replay: identical seeds give identical statistics on the
/// same engine.
#[test]
fn identical_seeds_replay_identically() {
    for case in 0..10u64 {
        let mut p = SimRng::seed_from(0x5EED + case);
        let mech = p.gen_index(5);
        let seed = p.gen_range(100);

        let factory = mechanism(mech);
        let kind = RunKind::OpenLoop {
            rate: 0.12,
            pattern: Pattern::Transpose,
            mix: PacketMix::paper(),
            warmup_cycles: 500,
            measure_cycles: 1_500,
        };
        let replay = || {
            let out = run_3x3(engine(case), &kind, factory.as_ref(), seed);
            (
                out.stats.flits_delivered,
                out.stats.network_latency.sum(),
                out.counters.link_traversals,
                out.counters.deflections,
            )
        };
        assert_eq!(replay(), replay(), "case {case}: mech {mech} seed {seed}");
    }
}

/// Delivered-flit hop counts are bounded: at least the Manhattan
/// distance (packets can't teleport), and deflections only ever add
/// hops.
#[test]
fn hops_are_at_least_manhattan_distance() {
    for case in 0..12u64 {
        let mut p = SimRng::seed_from(0x40B5 + case);
        let mech = p.gen_index(5);
        let seed = p.gen_range(1_000);

        let cfg = NetworkConfig::paper_3x3();
        let factory = mechanism(mech);
        let mut net = Network::new(cfg, factory.as_ref(), seed).unwrap();
        engine(case).apply(&mut net);
        let mesh = net.mesh().clone();
        let mut rng = SimRng::seed_from(seed);
        let mut expected = Vec::new();
        for _ in 0..150 {
            let src = NodeId::new(rng.gen_index(mesh.node_count()));
            let mut dest = src;
            while dest == src {
                dest = NodeId::new(rng.gen_index(mesh.node_count()));
            }
            let id = net.offer_packet(
                src,
                afc_netsim::packet::PacketInput {
                    dest,
                    vnet: VirtualNetwork(0),
                    len: 1,
                    kind: afc_netsim::packet::PacketKind::Synthetic,
                    tag: 0,
                },
            );
            expected.push((id, mesh.distance(src, dest)));
        }
        let mut delivered = Vec::new();
        for _ in 0..50_000 {
            net.step();
            delivered.extend(net.take_delivered());
            if delivered.len() == expected.len() {
                break;
            }
        }
        assert_eq!(delivered.len(), expected.len());
        engine(case).assert_ran(&net);
        for pkt in delivered {
            let (_, dist) = expected
                .iter()
                .find(|(id, _)| *id == pkt.descriptor.id)
                .expect("delivered packet was offered");
            assert!(pkt.total_hops >= *dist);
            // A flit never takes more hops than distance + 2 * deflections:
            // each deflection costs exactly one off-path hop plus one
            // corrective hop. The seed pinned this with a "+ 1" slack that
            // turned out to be unnecessary — the exact bound holds even
            // under a 150-packet single-cycle burst, so the slack only
            // masked potential off-by-one regressions in deflection
            // accounting. The drop router is exempt: a dropped flit
            // restarts from its source with its hop count preserved, so
            // hops accumulate without deflections.
            if mech % 5 != 2 {
                assert!(
                    pkt.total_hops <= dist + 2 * pkt.total_deflections,
                    "hops {} vs distance {} with {} deflections (case {case})",
                    pkt.total_hops,
                    dist,
                    pkt.total_deflections
                );
            }
        }
    }
}

/// Walking the deterministic XY (and YX) route from any source reaches the
/// destination in exactly the Manhattan distance, never leaving the mesh.
#[test]
fn dor_routes_have_manhattan_length_and_stay_on_mesh() {
    for case in 0..20u64 {
        let mut p = SimRng::seed_from(0x12E0 + case);
        let w = 2 + p.gen_range(6) as u16;
        let h = 2 + p.gen_range(6) as u16;
        let mesh = Mesh::new(w, h).unwrap();
        for _ in 0..30 {
            let src = NodeId::new(p.gen_index(mesh.node_count()));
            let dest = NodeId::new(p.gen_index(mesh.node_count()));
            let dist = mesh.distance(src, dest);
            for route in [Mesh::dor_route, Mesh::dor_route_yx] {
                let mut at = src;
                let mut hops = 0u32;
                while let Some(dir) = route(&mesh, at, dest) {
                    at = mesh
                        .neighbor(at, dir)
                        .expect("route must not step off the mesh");
                    hops += 1;
                    assert!(hops <= dist, "route exceeded Manhattan distance");
                }
                assert_eq!(at, dest, "route must terminate at the destination");
                assert_eq!(hops, dist, "route length must equal Manhattan distance");
            }
        }
    }
}

/// `productive_dirs` is exactly the set of directions that strictly reduce
/// distance: its first entry agrees with XY routing, every member steps to
/// a node one hop closer, and its size matches the number of axes with a
/// nonzero delta.
#[test]
fn productive_dirs_strictly_reduce_distance() {
    for case in 0..20u64 {
        let mut p = SimRng::seed_from(0x9680 + case);
        let w = 2 + p.gen_range(6) as u16;
        let h = 2 + p.gen_range(6) as u16;
        let mesh = Mesh::new(w, h).unwrap();
        for _ in 0..30 {
            let at = NodeId::new(p.gen_index(mesh.node_count()));
            let dest = NodeId::new(p.gen_index(mesh.node_count()));
            let dirs = mesh.productive_dirs(at, dest);
            assert_eq!(dirs.first(), mesh.dor_route(at, dest));
            let (a, b) = (mesh.coord(at), mesh.coord(dest));
            let axes = usize::from(a.x != b.x) + usize::from(a.y != b.y);
            assert_eq!(dirs.len(), axes);
            assert_eq!(dirs.is_empty(), at == dest);
            for dir in dirs.iter() {
                let next = mesh
                    .neighbor(at, dir)
                    .expect("productive direction must stay on the mesh");
                assert_eq!(
                    mesh.distance(next, dest) + 1,
                    mesh.distance(at, dest),
                    "productive step must reduce distance by exactly one"
                );
            }
            // Completeness: any direction not listed fails to reduce
            // distance (or falls off the mesh).
            for dir in Direction::ALL {
                if dirs.contains(dir) {
                    continue;
                }
                if let Some(next) = mesh.neighbor(at, dir) {
                    assert!(mesh.distance(next, dest) >= mesh.distance(at, dest));
                }
            }
        }
    }
}

/// Neighbor, coordinate, direction-index, and port maps are involutive:
/// stepping there and back returns home, `coord`/`node_at` invert each
/// other, and `Direction::{index,from_index,opposite}` round-trip.
#[test]
fn neighbor_and_port_maps_are_involutive() {
    for case in 0..20u64 {
        let mut p = SimRng::seed_from(0x1470 + case);
        let w = 2 + p.gen_range(6) as u16;
        let h = 2 + p.gen_range(6) as u16;
        let mesh = Mesh::new(w, h).unwrap();
        for node in mesh.nodes() {
            assert_eq!(mesh.node_at(mesh.coord(node)), Some(node));
            let mut degree = 0;
            for dir in Direction::ALL {
                assert_eq!(Direction::from_index(dir.index()), Some(dir));
                assert_eq!(dir.opposite().opposite(), dir);
                match mesh.neighbor(node, dir) {
                    Some(next) => {
                        degree += 1;
                        assert_ne!(next, node);
                        assert_eq!(
                            mesh.neighbor(next, dir.opposite()),
                            Some(node),
                            "stepping {dir:?} then back must return home"
                        );
                        assert_eq!(mesh.distance(node, next), 1);
                        // Coord-level stepping agrees with the node map.
                        assert_eq!(mesh.coord(node).step(dir), Some(mesh.coord(next)));
                    }
                    None => {
                        // Off-mesh exactly when the coordinate step leaves
                        // the rectangle.
                        let stays = mesh
                            .coord(node)
                            .step(dir)
                            .is_some_and(|c| mesh.node_at(c).is_some());
                        assert!(!stays, "neighbor map missing an in-bounds edge");
                    }
                }
            }
            assert_eq!(mesh.degree(node), degree);
            assert_eq!(mesh.neighbor_dirs(node).count(), degree);
        }
    }
}

/// AFC under violently varying load never violates its internal credit
/// assertions and still delivers everything, on every engine (mode-switch
/// safety fuzz).
#[test]
fn afc_mode_churn_is_safe() {
    struct Churn {
        rng: SimRng,
        spike_len: u64,
        hot_fraction: f64,
    }
    impl afc_netsim::sim::TrafficModel for Churn {
        fn pre_cycle(&mut self, now: u64, net: &mut Network) {
            // Alternate hot/cold windows of `spike_len` cycles.
            let hot = (now / self.spike_len).is_multiple_of(2);
            let rate = if hot { 0.8 } else { 0.02 };
            let mesh = net.mesh().clone();
            for node in mesh.nodes() {
                if !self.rng.gen_bool(rate / 3.0) {
                    continue;
                }
                // Concentrate some traffic on the center to force
                // gossip activity.
                let dest = if self.rng.gen_bool(self.hot_fraction) {
                    NodeId::new(4)
                } else {
                    NodeId::new(self.rng.gen_index(mesh.node_count()))
                };
                if dest == node {
                    continue;
                }
                net.offer_packet(
                    node,
                    afc_netsim::packet::PacketInput {
                        dest,
                        vnet: VirtualNetwork((self.rng.gen_index(3)) as u8),
                        len: if self.rng.gen_bool(0.4) { 16 } else { 1 },
                        kind: afc_netsim::packet::PacketKind::Synthetic,
                        tag: 0,
                    },
                );
            }
        }
        fn on_delivered(
            &mut self,
            _p: &afc_netsim::packet::DeliveredPacket,
            _now: u64,
            _net: &mut Network,
        ) {
        }
    }
    struct Silent;
    impl afc_netsim::sim::TrafficModel for Silent {
        fn pre_cycle(&mut self, _n: u64, _net: &mut Network) {}
        fn on_delivered(
            &mut self,
            _p: &afc_netsim::packet::DeliveredPacket,
            _now: u64,
            _net: &mut Network,
        ) {
        }
    }

    for case in 0..8u64 {
        let mut p = SimRng::seed_from(0xAFC0 + case);
        let seed = p.gen_range(500);
        let spike_len = 100 + p.gen_range(500);
        let hot_fraction = 0.3 + p.gen_f64() * 0.6;

        let cfg = NetworkConfig::paper_3x3();
        let mut network = Network::new(cfg, &AfcFactory::paper(), seed).unwrap();
        engine(case).apply(&mut network);
        let mut sim = Simulation::new(
            network,
            Churn {
                rng: SimRng::seed_from(seed),
                spike_len,
                hot_fraction,
            },
        );
        sim.run(4_000);
        // Stop and drain: every packet must come home.
        let mut sim = Simulation::new(sim.network, Silent);
        assert!(
            sim.drain(1_000_000),
            "AFC network must drain (case {case}: seed {seed} spike {spike_len})"
        );
        let stats = sim.network.stats();
        assert_eq!(stats.packets_delivered, stats.packets_offered);
        sim.network.credit_audit().expect("credit conservation");
        engine(case).assert_ran(&sim.network);
    }
}

/// Fuzz of the configuration validator against real construction: for any
/// randomized [`NetworkConfig`] — including degenerate zero dimensions,
/// empty vnet lists, zero-depth buffers, zero timeouts and link latencies
/// 0 to 4 — `validate()` followed by the mechanism's
/// [`RouterFactory::validate`](afc_netsim::router::RouterFactory::validate)
/// and `Network::new` must agree exactly. Accepted configurations build
/// under every mechanism drawn and survive a short traffic burst without
/// panicking, on an engine that rotates per case; rejected ones surface
/// the *same* structured [`ConfigError`] from construction, never a panic.
/// At latency 4 AFC's gossip window outgrows a control vnet's 8 lazy
/// slots, so the factory's own rejection path is drawn too.
#[test]
fn config_validator_agrees_with_construction_under_fuzz() {
    use afc_netsim::config::{RetransmitConfig, VnetClass, VnetConfig};

    /// Boundary-biased dimension draw: zeros and ones are the interesting
    /// edges of the mesh-size rules, so they get half the probability mass.
    fn dim(p: &mut SimRng) -> u16 {
        match p.gen_index(4) {
            0 => 0,
            1 => 1,
            _ => 2 + p.gen_range(6) as u16,
        }
    }

    let mut factory_rejections = 0;
    for case in 0..512u64 {
        let engine = engine(case);
        let mut p = SimRng::seed_from(0xC0F1_6000 + case);
        let vnets: Vec<VnetConfig> = (0..p.gen_index(4))
            .map(|i| VnetConfig {
                class: if i == 2 {
                    VnetClass::Data
                } else {
                    VnetClass::Control
                },
                vcs: p.gen_index(5),
                buffer_depth: p.gen_index(9),
            })
            .collect();
        let cfg = NetworkConfig {
            width: dim(&mut p),
            height: dim(&mut p),
            link_latency: p.gen_range(5),
            vnets,
            eject_bandwidth: p.gen_index(3),
            retransmit: p.gen_bool(0.3).then(|| RetransmitConfig {
                timeout: p.gen_range(600),
                ..RetransmitConfig::default()
            }),
            ..NetworkConfig::paper_3x3()
        };

        let checked = cfg.validate();
        assert_eq!(cfg.validate(), checked, "validate must be deterministic");
        let factory = mechanism(p.gen_index(5));
        let verdict = checked.clone().and_then(|()| factory.validate(&cfg));
        if checked.is_ok() && verdict.is_err() {
            factory_rejections += 1;
        }

        let seed = p.gen_range(1_000);
        match Network::new(cfg.clone(), factory.as_ref(), seed) {
            Ok(mut network) => {
                engine.apply(&mut network);
                assert_eq!(
                    verdict,
                    Ok(()),
                    "construction accepted a config the validator rejects \
                     (case {case}: {cfg:?})"
                );
                // A burst of light traffic: the constructed routers must
                // step cleanly. The paper packet mix targets vnets 0-2, so
                // narrower (still valid) configs step idle instead — the NI
                // documents out-of-range vnets as a caller contract, not a
                // config error.
                let rate = if cfg.vnet_count() >= 3 {
                    0.01 + p.gen_f64() * 0.05
                } else {
                    0.0
                };
                let traffic = OpenLoopTraffic::new(
                    RateSpec::Uniform(rate),
                    Pattern::UniformRandom,
                    PacketMix::paper(),
                    seed,
                );
                let mut sim = Simulation::new(network, traffic);
                sim.try_run(300).unwrap_or_else(|e| {
                    panic!("accepted config must step cleanly (case {case}: {e}; {cfg:?})")
                });
                engine.assert_ran(&sim.network);
            }
            Err(e) => {
                assert_eq!(
                    verdict,
                    Err(e),
                    "construction and validator must reject identically \
                     (case {case}: {cfg:?})"
                );
            }
        }
    }
    assert!(
        factory_rejections > 0,
        "no draw reached a factory's rejection"
    );
}

// ---------------------------------------------------------------------------
// Shard planner (DESIGN.md §12; its partition tests are in netsim's parallel.rs)
// ---------------------------------------------------------------------------

/// Mid-run re-planning is output-neutral: 400 parallel cycles under 4
/// threads cross six re-plan points (one every `REPLAN_INTERVAL` = 64
/// parallel cycles) and produce snapshot bytes identical to the serial
/// engine's.
#[test]
fn replanning_mid_run_preserves_snapshot_bytes() {
    let cfg = NetworkConfig::paper_8x8();
    let run = |threads: usize| {
        let network = Network::new(cfg.clone(), &AfcFactory::paper(), 0xD1CE).unwrap();
        let traffic = OpenLoopTraffic::new(
            RateSpec::Uniform(0.30),
            Pattern::UniformRandom,
            PacketMix::paper(),
            0xD1CE,
        );
        let mut sim = Simulation::new(network, traffic);
        sim.network.set_sim_threads(threads);
        sim.network.set_parallel_threshold(0);
        sim.run(400);
        if threads > 1 {
            assert!(
                sim.network.parallel_cycles() >= 6 * 64,
                "replan test must cross six re-plan points"
            );
        }
        sim.snapshot().expect("snapshot")
    };
    assert_eq!(
        run(1),
        run(4),
        "re-planning mid-run changed the snapshot bytes"
    );
}
