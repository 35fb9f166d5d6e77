//! Router state placement (DESIGN.md §16.2): `Network::new` allocates every
//! node's flit rings first and then the network's router bank — every
//! router struct by value, in one slab — so a large mesh packs the small,
//! hot control state densely instead of giving each buffered router a page
//! between two rings. The typed bank a mechanism returns steps exactly as
//! the boxed fallback every other factory gets. And `RouterFactory::build`
//! (rings of its own, the standalone path afc-perf's router probe and the
//! unit tests use) builds exactly the router `build_with` builds around
//! caller-allocated rings.
//!
//! A recording [`GlobalAlloc`] logs the size of every request the test
//! thread makes inside `Network::new`. The assertions are about *order*,
//! not addresses, so they hold under any allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::mem::size_of;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use afc_bench::MechanismId;
use afc_core::AfcRouter;
use afc_netsim::packet::PacketInput;
use afc_netsim::prelude::*;
use afc_netsim::router::alloc_rings;
use afc_routers::{BackpressuredRouter, DeflectionRouter, DropRouter};

/// Requests a 32×32 `Network::new` makes are a few ten thousand.
const LOG_CAP: usize = 1 << 17;

static LOG_SIZE: [AtomicUsize; LOG_CAP] = [const { AtomicUsize::new(0) }; LOG_CAP];
static LOG_LEN: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Only the recording thread's requests are logged, so the other tests
    /// in this binary may run concurrently.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

struct RecordingAlloc;

// SAFETY: defers entirely to the system allocator; the wrapper only writes
// atomics (never allocating) on the recording thread's allocation path.
unsafe impl GlobalAlloc for RecordingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if RECORDING.try_with(Cell::get).unwrap_or(false) {
            let i = LOG_LEN.fetch_add(1, Ordering::Relaxed);
            if i < LOG_CAP {
                LOG_SIZE[i].store(layout.size(), Ordering::Relaxed);
            }
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: RecordingAlloc = RecordingAlloc;

const PORTS: usize = PortId::ALL.len();

/// The size of every request `Network::new` makes on this thread.
fn record_new(cfg: &NetworkConfig, factory: &dyn RouterFactory) -> Vec<usize> {
    LOG_LEN.store(0, Ordering::Relaxed);
    RECORDING.with(|r| r.set(true));
    let net = Network::new(cfg.clone(), factory, 1).expect("valid configuration");
    RECORDING.with(|r| r.set(false));
    let len = LOG_LEN.load(Ordering::Relaxed);
    assert!(
        len <= LOG_CAP,
        "{len} requests overflow the {LOG_CAP}-entry log"
    );
    let log = (0..len)
        .map(|i| LOG_SIZE[i].load(Ordering::Relaxed))
        .collect();
    drop(net);
    log
}

/// Positions in `log` of requests of exactly `size` bytes.
fn positions(log: &[usize], size: usize) -> Vec<usize> {
    (0..log.len()).filter(|&i| log[i] == size).collect()
}

#[test]
fn network_new_allocates_every_ring_before_router_state() {
    let cfg = NetworkConfig {
        width: 32,
        height: 32,
        ..NetworkConfig::paper_8x8()
    };
    let n = cfg.mesh().expect("valid mesh").node_count();
    let buffered = [
        (MechanismId::Backpressured, size_of::<BackpressuredRouter>()),
        (MechanismId::Afc, size_of::<AfcRouter>()),
    ];
    let mut ring_sizes = Vec::new();
    for (id, struct_size) in buffered {
        let factory = id.mechanism().factory;
        let ring = PORTS * factory.buffer_flits_per_port(&cfg) * size_of::<Flit>();
        assert!(ring > 0, "{}: a buffered mechanism has rings", id.label());
        ring_sizes.push(ring);
        let log = record_new(&cfg, factory.as_ref());
        let rings = positions(&log, ring);
        let banks = positions(&log, n * struct_size);
        assert_eq!(
            rings.len(),
            n,
            "{}: one {ring}-byte ring per node",
            id.label()
        );
        assert_eq!(
            banks.len(),
            1,
            "{}: one bank of {n} × {struct_size}-byte routers",
            id.label()
        );
        assert!(
            banks[0] > rings[n - 1],
            "{}: the bank was allocated before the last ring",
            id.label()
        );
    }
    let bufferless = [
        (MechanismId::Backpressureless, size_of::<DeflectionRouter>()),
        (MechanismId::Drop, size_of::<DropRouter>()),
    ];
    for (id, struct_size) in bufferless {
        let factory = id.mechanism().factory;
        assert_eq!(factory.buffer_flits_per_port(&cfg), 0, "{}", id.label());
        let log = record_new(&cfg, factory.as_ref());
        assert!(
            log.iter().all(|size| !ring_sizes.contains(size)),
            "{}: a bufferless network made a ring-sized request",
            id.label()
        );
        assert_eq!(
            positions(&log, n * struct_size).len(),
            1,
            "{}: one bank of {n} × {struct_size}-byte routers",
            id.label()
        );
    }
}

/// A mechanism's routers through the default `build_bank`: everything but
/// `build_with` and the metadata is left to the trait, so the network
/// holds the boxed fallback bank.
struct Boxed(Box<dyn RouterFactory>);

impl RouterFactory for Boxed {
    fn build_with(
        &self,
        node: NodeId,
        mesh: &Mesh,
        config: &NetworkConfig,
        rings: Box<[Flit]>,
    ) -> Box<dyn Router> {
        self.0.build_with(node, mesh, config, rings)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn flit_width_bits(&self) -> u32 {
        self.0.flit_width_bits()
    }
    fn buffer_flits_per_port(&self, config: &NetworkConfig) -> usize {
        self.0.buffer_flits_per_port(config)
    }
}

/// Delivered `(packet, cycle)` pairs and the final snapshot of 400 cycles
/// of seeded uniform traffic on an 8×8 at ~0.3 flits/node/cycle.
fn drive(factory: &dyn RouterFactory, threads: usize) -> (BTreeSet<(u64, Cycle)>, Vec<u8>) {
    let cfg = NetworkConfig::paper_8x8();
    let mut net = Network::new(cfg, factory, 11).expect("valid configuration");
    net.set_sim_threads(threads);
    net.set_parallel_threshold(0);
    let nodes = net.mesh().node_count();
    let mut rng = SimRng::seed_from(0x7E57);
    let mut delivered = BTreeSet::new();
    for _ in 0..400 {
        for src in 0..nodes {
            if rng.gen_bool(0.1) {
                let dest = NodeId::new((src + 1 + rng.gen_index(nodes - 1)) % nodes);
                let input = PacketInput {
                    dest,
                    vnet: VirtualNetwork(2),
                    len: if rng.gen_bool(0.5) { 1 } else { 5 },
                    kind: PacketKind::Synthetic,
                    tag: 0,
                };
                net.offer_packet(NodeId::new(src), input);
            }
        }
        net.step();
        for p in net.take_delivered() {
            delivered.insert((p.descriptor.id.0, p.delivered_at));
        }
    }
    assert_eq!(net.parallel_cycles() > 0, threads > 1, "{threads} threads");
    let mut w = SnapshotWriter::new();
    net.save_state(&mut w).expect("every mechanism snapshots");
    (delivered, w.into_bytes())
}

#[test]
fn typed_banks_step_exactly_as_the_boxed_fallback() {
    for id in MechanismId::ALL {
        for threads in [1, 2] {
            let (typed, typed_bytes) = drive(id.mechanism().factory.as_ref(), threads);
            let (boxed, boxed_bytes) = drive(&Boxed(id.mechanism().factory), threads);
            let at = format!("{} at {threads} thread(s)", id.label());
            assert!(typed.len() > 1000, "{at}: only {} deliveries", typed.len());
            assert_eq!(typed, boxed, "{at}: deliveries differ");
            assert!(typed_bytes == boxed_bytes, "{at}: snapshots differ");
        }
    }
}

/// The credit the downstream router returns for `flit` leaving on a
/// network port, per mechanism family (bufferless routers take none).
fn credit_for(id: MechanismId, flit: &Flit) -> Option<Credit> {
    match id {
        _ if per_vc(id) => Some(Credit::Vc(
            flit.vc.expect("backpressured flits carry their VC"),
        )),
        MechanismId::Afc | MechanismId::AfcAlwaysBp => Some(Credit::Vnet(flit.vnet)),
        _ => None,
    }
}

/// Whether `id` is a backpressured router, whose arrivals carry a VC.
fn per_vc(id: MechanismId) -> bool {
    matches!(
        id,
        MechanismId::Backpressured | MechanismId::BpReadBypass | MechanismId::BpIdealBypass
    )
}

fn state_bytes(r: &dyn Router) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    r.save_state(&mut w).expect("every mechanism snapshots");
    w.into_bytes()
}

#[test]
fn build_and_build_with_build_the_same_router() {
    let cfg = NetworkConfig::paper_3x3();
    let mesh = cfg.mesh().expect("3x3 mesh");
    let at = |x, y| mesh.node_at(Coord::new(x, y)).expect("on the mesh");
    let (node, east, south) = (at(1, 1), at(2, 1), at(1, 2));
    for id in MechanismId::ALL {
        let factory = id.mechanism().factory;
        let flits_per_port = factory.buffer_flits_per_port(&cfg);
        let mut routers = [
            factory.build(node, &mesh, &cfg),
            factory.build_with(node, &mesh, &cfg, alloc_rings(flits_per_port)),
        ];
        let mut rngs = [SimRng::seed_from(7), SimRng::seed_from(7)];
        let mut outs = [RouterOutputs::new(), RouterOutputs::new()];
        let (mut sent, mut held) = (0, 0);
        // Even cycles bring one flit from the west and one from the north,
        // both bound east, so one of them waits a cycle in its input ring
        // (or is deflected); local injections go south, clear of both.
        for now in 0..=400u64 {
            let mut arrivals = Vec::new();
            if now % 2 == 0 {
                for (k, from) in [Direction::West, Direction::North].into_iter().enumerate() {
                    let mut f = Flit::test_flit(PacketId(3 * now + k as u64), NodeId::new(0), east);
                    f.vc = per_vc(id).then_some(VcId(0));
                    arrivals.push((PortId::Net(from), f));
                }
            }
            let local = Flit::test_flit(PacketId(3 * now + 2), node, south);
            for ((r, rng), out) in routers.iter_mut().zip(&mut rngs).zip(&mut outs) {
                for &(port, f) in &arrivals {
                    r.receive_flit(port, f, now);
                }
                if r.injection_ready(&local, now) {
                    r.inject(local, now);
                }
                out.clear();
                r.step(now, rng, out);
                for (port, flit) in out.flits.iter() {
                    if let Some(credit) = flit.as_ref().and_then(|f| credit_for(id, f)) {
                        r.receive_credit(port, credit, now);
                    }
                }
            }
            let [a, b] = &outs;
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{}: outputs differ at cycle {now}",
                id.label()
            );
            assert_eq!(routers[0].occupancy(), routers[1].occupancy());
            sent += a.flits_sent();
            held += routers[0].occupancy();
        }
        // Buffering routers (AFC's adaptive one stays deflecting at this
        // load) must have held flits in their rings across cycles.
        let buffering = routers[0].mode() == RouterMode::Backpressured;
        assert!(
            sent > 400 && (held > 0 || !buffering),
            "{}: the drive moved {sent} flits and buffered {held} flit-cycles",
            id.label()
        );
        assert_eq!(
            state_bytes(routers[0].as_ref()),
            state_bytes(routers[1].as_ref()),
            "{}: standalone and caller-ringed routers diverged",
            id.label()
        );

        if flits_per_port > 0 {
            let expected = PORTS * flits_per_port;
            let wrong = alloc_rings(flits_per_port + 1);
            let Err(err) = catch_unwind(AssertUnwindSafe(|| {
                factory.build_with(node, &mesh, &cfg, wrong)
            })) else {
                panic!("{}: a ring of the wrong length was accepted", id.label());
            };
            let msg = err
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(
                msg.contains(&format!("must hold {expected} flits")),
                "{}: the panic must name the expected {expected} flits: {msg}",
                id.label()
            );
        }
    }
}
