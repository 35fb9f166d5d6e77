//! Router state placement (DESIGN.md §16.2): `Network::new` allocates every
//! node's flit rings first and then the network's router bank — every
//! router struct by value, in one slab — so a large mesh packs the small,
//! hot control state densely instead of giving each buffered router a page
//! between two rings. And `RouterFactory::build` (the standalone path
//! afc-perf's router probe uses) returns exactly the router a network of
//! that factory holds at that node.
//!
//! A recording [`GlobalAlloc`] logs the size of every request the test
//! thread makes inside `Network::new`. The assertions are about *order*,
//! not addresses, so they hold under any allocator.
//!
//! The buffered routers' per-node footprint is pinned too: word-wise
//! arbitration (DESIGN.md §16.1–16.3) may not cost a 32×32 network more
//! router bytes than the per-lane and per-slot designs it replaced.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use afc_bench::MechanismId;
use afc_core::AfcRouter;
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

fn state_bytes(r: &dyn Router) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    r.save_state(&mut w).expect("every mechanism snapshots");
    w.into_bytes()
}

#[test]
fn build_returns_the_router_a_network_holds() {
    let cfg = NetworkConfig::paper_3x3();
    let mesh = cfg.mesh().expect("3x3 mesh");
    let at = |x, y| mesh.node_at(Coord::new(x, y)).expect("on the mesh");
    for id in MechanismId::ALL {
        let factory = id.mechanism().factory;
        let net = Network::new(cfg.clone(), factory.as_ref(), 1).expect("valid configuration");
        let mut seen = Vec::new();
        for (place, node) in [
            ("corner", at(0, 0)),
            ("edge", at(1, 0)),
            ("centre", at(1, 1)),
        ] {
            let built = state_bytes(factory.build(node, &mesh, &cfg).as_ref());
            assert!(
                built == state_bytes(net.router(node)),
                "{}: the {place} router differs from the network's",
                id.label()
            );
            seen.push(built);
        }

        let flits_per_port = factory.buffer_flits_per_port(&cfg);
        if flits_per_port > 0 {
            // A buffered router's bytes list its ports: the comparison
            // above tells a corner router from the centre one.
            assert!(seen[0] != seen[2], "{}: corner = centre", id.label());
            let expected = PORTS * flits_per_port;
            let mut rings: Vec<_> = mesh.nodes().map(|_| alloc_rings(flits_per_port)).collect();
            rings[4] = alloc_rings(flits_per_port + 1);
            let Err(err) =
                catch_unwind(AssertUnwindSafe(|| factory.build_bank(&mesh, &cfg, rings)))
            else {
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

/// Per-node `memory_footprint().router_bytes` of a fault-free 32×32 paper
/// network under the one-pass backpressured allocator and AFC's per-slot
/// stage 1 (each router struct plus its heap). Without a fault plan the
/// backpressured router keeps no per-lane route-owner column.
const ROUTER_BYTES_PER_NODE_PIN: [(MechanismId, usize); 2] = [
    (MechanismId::Backpressured, 11_784),
    (MechanismId::Afc, 7_144),
];

#[test]
fn buffered_router_footprint_stays_within_its_pin() {
    let cfg = NetworkConfig {
        width: 32,
        height: 32,
        ..NetworkConfig::paper_8x8()
    };
    for (id, pin) in ROUTER_BYTES_PER_NODE_PIN {
        let factory = id.mechanism().factory;
        let mut net = Network::new(cfg.clone(), factory.as_ref(), 1).expect("valid configuration");
        let fp = net.memory_footprint();
        let per_node = fp.router_bytes / fp.nodes;
        assert!(
            per_node <= pin,
            "{}: {per_node} router bytes per node exceed the {pin}-byte pin",
            id.label()
        );
    }
}
