//! The canonical input-queued, credit-based **backpressured** virtual-channel
//! router (the paper's primary baseline).
//!
//! Pipeline (Table I, row 1): a generous two-stage router — stage 1 performs
//! switch arbitration with lookahead routing in parallel and an *idealized
//! zero-cycle* VC allocation; stage 2 is switch traversal overlapping the
//! start of link traversal. The buffer write overlaps the end of link
//! traversal. Route computation, VC allocation and both arbitration stages
//! therefore all happen within one simulated cycle, and a flit's per-hop
//! latency is `2 + L`.
//!
//! Datapath per input port (one of five: N/S/E/W/Local):
//!
//! ```text
//!             ┌─ input VCs (per vnet: paper config 2+2+4, 8 deep) ─┐
//!  link ──BW──► vc0 ─┐                                             │
//!             │ vc1 ─┼─ input arb (RR) ──► candidate ─┐            │
//!             │ ...  ┘   eligibility:                 │ output arb │
//!             └────────  route + out-VC + credits ────┼──(RR/port)─┼──► ST ─► link
//!                                                     │            │
//!  credits ◄── one per flit leaving an input VC ◄─────┘            │
//! ```
//!
//! # Data-oriented layout (DESIGN.md §16)
//!
//! All per-port/per-VC state lives in flat structure-of-arrays slabs rather
//! than a `Vec` of per-VC structs: one contiguous flit ring slab for all
//! `5 × total` lanes (`lane = port_index * total + vc`), parallel
//! `head`/`len` ring indices, `route`/`out_vc` byte arrays (`0xFF` = none),
//! a flat `credits` array for the four network output ports, and one
//! occupancy bitword per input port (bit `vc` set ⇔ lane non-empty) plus an
//! allocation bitword per output port. Stage-1 eligibility and both
//! round-robin stages are mask kernels ([`RoundRobin::grant_masked`])
//! walking those bitwords, so an arbitration cycle touches a handful of
//! cache lines instead of chasing `VecDeque` headers across the heap.
//! Snapshot bytes, arbitration outcomes and counters are bit-identical to
//! the previous array-of-structs layout: every loop below visits lanes in
//! the same ascending (port, vc) order the old per-VC vectors did.
//!
//! Key properties:
//!
//! * VCs are allocated per **packet**: a packet holds its downstream VC from
//!   head to tail so its flits are never intermingled with another packet's
//!   (rules R1/R2 of Section III-E).
//! * Credits are tracked per (output port, VC); a flit may only be sent when
//!   its packet's allocated VC has a free downstream slot. Buffer writes
//!   assert the credit invariant: an overflow indicates an upstream bug and
//!   panics the simulation.
//! * VC reallocation is back-to-back by default (a freed VC may host the
//!   next packet while the previous one's flits still drain downstream, in
//!   FIFO order); [`BackpressuredOptions::atomic_vc_reallocation`] selects
//!   the conservative policy instead.
//! * Dimension-ordered (XY by default, YX optional) routing gives
//!   deadlock freedom; virtual networks separate request/reply traffic for
//!   protocol-level deadlock freedom.
//! * Arbitration is separable and round-robin at both stages, so no input
//!   port or VC can be starved while it keeps requesting (asserted by the
//!   fairness unit test).

use afc_netsim::channel::{ControlSignal, Credit};
use afc_netsim::config::NetworkConfig;
use afc_netsim::counters::ActivityCounters;
use afc_netsim::fault_aware::{FaultAwareness, LinkUpdate, ResyncHandshake, RouteOutcome};
use afc_netsim::flit::{Cycle, Flit, PacketId, VcId};
use afc_netsim::geom::Direction;
use afc_netsim::geom::{Coord, NodeId, PortId, PortMap};
use afc_netsim::rng::SimRng;
use afc_netsim::router::{
    alloc_rings, Router, RouterBank, RouterFactory, RouterMode, RouterOutputs,
};
use afc_netsim::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use afc_netsim::topology::Mesh;

use crate::arbiter::RoundRobin;

/// Flit width in bits for this mechanism (32-bit payload + 9 control bits,
/// Section IV).
pub const FLIT_WIDTH_BITS: u32 = 41;

/// Sentinel for "no route" / "no output VC" in the flat byte arrays.
const NONE8: u8 = 0xFF;

/// Number of ports (N/S/E/W/Local) and of network directions.
const PORTS: usize = 5;
const DIRS: usize = 4;

/// Deterministic dimension-ordered routing algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingAlgorithm {
    /// Correct X before Y (the paper's DOR).
    #[default]
    XFirst,
    /// Correct Y before X (ablation alternative).
    YFirst,
}

/// Tunable design choices of the backpressured router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackpressuredOptions {
    /// Which dimension order to route in.
    pub routing: RoutingAlgorithm,
    /// When true, a downstream VC may be reallocated to a new packet only
    /// once it has fully drained (conservative/atomic buffers). When false
    /// (default, and what this implementation models as the baseline), the
    /// VC is reallocatable as soon as the previous packet's tail has been
    /// *sent*, letting packets queue back-to-back.
    pub atomic_vc_reallocation: bool,
    /// Wang et al.'s buffer-read bypass (the paper's reference \[1\]): when a
    /// departing flit is alone in its VC, the read comes from the bypass
    /// latch instead of the SRAM, eliding the buffer-read energy. Timing is
    /// unchanged; only the energy accounting differs.
    pub read_bypass: bool,
}

/// Maps global VC indices to virtual networks (VCs are laid out vnet by
/// vnet, in configuration order).
#[derive(Debug, Clone)]
pub(crate) struct VcLayout {
    /// Vnet index of each global VC.
    pub vnet_of: Vec<u8>,
    /// Buffer depth of each global VC.
    pub depth_of: Vec<usize>,
    /// `[start, end)` global-VC range of each vnet.
    pub range_of: Vec<std::ops::Range<usize>>,
}

impl VcLayout {
    pub fn new(config: &NetworkConfig) -> VcLayout {
        let mut vnet_of = Vec::new();
        let mut depth_of = Vec::new();
        let mut range_of = Vec::new();
        for (v, vc) in config.vnets.iter().enumerate() {
            let start = vnet_of.len();
            for _ in 0..vc.vcs {
                vnet_of.push(v as u8);
                depth_of.push(vc.buffer_depth);
            }
            range_of.push(start..vnet_of.len());
        }
        VcLayout {
            vnet_of,
            depth_of,
            range_of,
        }
    }

    pub fn total(&self) -> usize {
        self.vnet_of.len()
    }
}

/// Bit mask covering a contiguous VC range (for the ≤64-lane bitwords).
#[inline]
fn range_mask(range: &std::ops::Range<usize>) -> u64 {
    debug_assert!(range.end <= 64);
    let hi = if range.end == 64 {
        u64::MAX
    } else {
        (1u64 << range.end) - 1
    };
    hi & !((1u64 << range.start) - 1)
}

/// The backpressured virtual-channel router.
pub struct BackpressuredRouter {
    node: NodeId,
    /// `node`'s coordinate, cached for route computation.
    at: Coord,
    mesh: Mesh,
    layout: VcLayout,
    eject_bandwidth: usize,
    /// `layout.total()`, cached for lane index math.
    total: usize,
    /// Sum of all VC depths — the flit-slab span of one port.
    port_span: usize,
    /// Slab offset of each VC's ring within a port span (prefix sums of
    /// `layout.depth_of`).
    vc_base: Box<[u32]>,
    /// Which input ports exist (Local always; `Net(d)` iff neighbor).
    in_present: [bool; PORTS],
    /// Which network output directions exist.
    out_present: [bool; DIRS],
    /// Flit ring storage for all lanes: port `p`, VC `v` occupies
    /// `[p * port_span + vc_base[v] ..][..depth_of[v]]`.
    flits: Box<[Flit]>,
    /// Per-lane ring head index (into the lane's own ring).
    head: Box<[u16]>,
    /// Per-lane ring occupancy.
    len: Box<[u16]>,
    /// Per-lane output port of the packet at the head of the queue
    /// ([`PortId`] index, [`NONE8`] when unrouted).
    route: Box<[u8]>,
    /// Per-lane downstream VC allocated to that packet (network routes
    /// only; [`NONE8`] when unallocated).
    out_vc: Box<[u8]>,
    /// Packet that owns the open route. In a fault-free run the tail always
    /// closes the route, so ownership is implied; under fault injection a
    /// dropped tail leaves the route open, and the mismatch with the packet
    /// now at HoQ is how the stale hold is detected.
    route_packet: Box<[Option<PacketId>]>,
    /// Per-input-port occupancy word: bit `vc` set ⇔ that lane is
    /// non-empty. The stage-1/route kernels walk set bits instead of
    /// iterating every VC.
    occ_bits: [u64; PORTS],
    /// Per-output-direction allocation word: bit `vc` set ⇔ some packet
    /// holds that downstream VC.
    alloc_bits: [u64; DIRS],
    /// Flat downstream credit counters, `credits[dir * total + vc]`.
    credits: Box<[u16]>,
    /// Per-input-port VC-selection arbiters.
    input_arb: PortMap<Option<RoundRobin>>,
    /// Per-output-port (and Local) input-selection arbiters.
    output_arb: PortMap<RoundRobin>,
    /// Local input VC currently open for each vnet's mid-flight packet.
    inject_vc: Vec<Option<usize>>,
    /// Round-robin start for choosing a local VC for new packets, per vnet.
    inject_rr: Vec<usize>,
    options: BackpressuredOptions,
    /// Set when the network injects link faults: a dropped head or tail
    /// orphans the rest of its wormhole, so HoQ body flits may legally
    /// need a fresh route (every flit carries its destination).
    tolerate_orphans: bool,
    /// Buffered flits across all input VCs, maintained incrementally so
    /// [`Router::occupancy`] and the per-step occupancy integral are O(1).
    occ: usize,
    /// Buffered flits per input port, maintained alongside `occ` so route
    /// allocation and stage-1 nomination skip empty ports entirely (the
    /// dominant case at low load, where most cycles see one busy port).
    port_occ: PortMap<usize>,
    /// Reusable stage-2 winner list `(in, vc, out)`.
    winners_scratch: Vec<(PortId, usize, PortId)>,
    /// Fault mask, gossip queue and alive-graph routing table (DESIGN.md
    /// §13). While clean, routing stays on the historical DOR path.
    fa: FaultAwareness,
    /// Credit re-sync handshake for revived links (DESIGN.md §15.3): a
    /// held output's pool was zeroed at the revival and returns to full
    /// depth only on the downstream endpoint's confirmation.
    resync: ResyncHandshake,
    counters: ActivityCounters,
}

impl BackpressuredRouter {
    /// Builds the router for `node` with default options.
    pub fn new(node: NodeId, mesh: &Mesh, config: &NetworkConfig) -> BackpressuredRouter {
        BackpressuredRouter::with_options(node, mesh, config, BackpressuredOptions::default())
    }

    /// Builds the router for `node` with explicit design options.
    pub fn with_options(
        node: NodeId,
        mesh: &Mesh,
        config: &NetworkConfig,
        options: BackpressuredOptions,
    ) -> BackpressuredRouter {
        let rings = alloc_rings(config.buffer_flits_per_port());
        Self::with_rings(node, mesh, config, options, rings)
    }

    /// [`Self::with_options`] around caller-allocated `flits`.
    fn with_rings(
        node: NodeId,
        mesh: &Mesh,
        config: &NetworkConfig,
        options: BackpressuredOptions,
        flits: Box<[Flit]>,
    ) -> BackpressuredRouter {
        let layout = VcLayout::new(config);
        let total = layout.total();
        assert!(
            total <= 64,
            "occupancy bitwords hold at most 64 VCs per port"
        );
        let mut vc_base = Vec::with_capacity(total);
        let mut span = 0u32;
        for d in &layout.depth_of {
            assert!(*d <= u16::MAX as usize, "ring indices are u16");
            vc_base.push(span);
            span += *d as u32;
        }
        let port_span = span as usize;
        let in_present: [bool; PORTS] =
            std::array::from_fn(|i| match PortId::from_index(i).expect("port index") {
                PortId::Local => true,
                PortId::Net(d) => mesh.neighbor(node, d).is_some(),
            });
        let out_present: [bool; DIRS] =
            std::array::from_fn(|i| mesh.neighbor(node, Direction::ALL[i]).is_some());
        let lanes = PORTS * total;
        // The slab is sized for all five ports even on edge routers whose
        // boundary ports are absent: the waste is a few KiB per edge node
        // and keeps lane addressing a single multiply-add everywhere.
        let expected = PORTS * port_span;
        assert_eq!(flits.len(), expected, "rings must hold {expected} flits");
        let mut credits = vec![0u16; DIRS * total];
        for di in 0..DIRS {
            if out_present[di] {
                for (v, d) in layout.depth_of.iter().enumerate() {
                    credits[di * total + v] = *d as u16;
                }
            }
        }
        let input_arb = PortMap::from_fn(|p| match p {
            PortId::Local => Some(RoundRobin::new(total)),
            PortId::Net(d) => mesh.neighbor(node, d).map(|_| RoundRobin::new(total)),
        });
        let output_arb = PortMap::from_fn(|_| RoundRobin::new(PortId::ALL.len()));
        BackpressuredRouter {
            node,
            at: mesh.coord(node),
            mesh: mesh.clone(),
            eject_bandwidth: config.eject_bandwidth,
            total,
            port_span,
            vc_base: vc_base.into_boxed_slice(),
            in_present,
            out_present,
            flits,
            head: vec![0; lanes].into_boxed_slice(),
            len: vec![0; lanes].into_boxed_slice(),
            route: vec![NONE8; lanes].into_boxed_slice(),
            out_vc: vec![NONE8; lanes].into_boxed_slice(),
            route_packet: vec![None; lanes].into_boxed_slice(),
            occ_bits: [0; PORTS],
            alloc_bits: [0; DIRS],
            credits: credits.into_boxed_slice(),
            input_arb,
            output_arb,
            inject_vc: vec![None; config.vnet_count()],
            inject_rr: vec![0; config.vnet_count()],
            options,
            tolerate_orphans: !config.faults.is_empty(),
            occ: 0,
            port_occ: PortMap::default(),
            winners_scratch: Vec::with_capacity(PortId::ALL.len() + 4),
            fa: FaultAwareness::new(node, mesh.clone()),
            resync: ResyncHandshake::default(),
            counters: ActivityCounters::new(),
            layout,
        }
    }

    /// The node this router serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Slab offset of lane `(port, vc)`'s ring plus its capacity.
    #[inline]
    fn ring(&self, pi: usize, vc: usize) -> (usize, usize) {
        (
            pi * self.port_span + self.vc_base[vc] as usize,
            self.layout.depth_of[vc],
        )
    }

    /// Copy of the head-of-queue flit of a non-empty lane.
    #[inline]
    fn front(&self, pi: usize, vc: usize) -> Flit {
        let lane = pi * self.total + vc;
        debug_assert!(self.len[lane] > 0, "front of empty lane");
        let (base, _) = self.ring(pi, vc);
        self.flits[base + self.head[lane] as usize]
    }

    /// Appends to a lane's ring; the caller has already checked depth.
    #[inline]
    fn push_lane(&mut self, pi: usize, vc: usize, flit: Flit) {
        let lane = pi * self.total + vc;
        let (base, depth) = self.ring(pi, vc);
        let l = self.len[lane] as usize;
        debug_assert!(l < depth, "lane overflow");
        let mut idx = self.head[lane] as usize + l;
        if idx >= depth {
            idx -= depth;
        }
        self.flits[base + idx] = flit;
        self.len[lane] = (l + 1) as u16;
        self.occ_bits[pi] |= 1 << vc;
    }

    /// Pops a lane's head flit, maintaining the occupancy bitword.
    #[inline]
    fn pop_lane(&mut self, pi: usize, vc: usize) -> Flit {
        let lane = pi * self.total + vc;
        let (base, depth) = self.ring(pi, vc);
        let h = self.head[lane] as usize;
        let f = self.flits[base + h];
        self.head[lane] = if h + 1 >= depth { 0 } else { (h + 1) as u16 };
        let l = self.len[lane] as usize - 1;
        self.len[lane] = l as u16;
        if l == 0 {
            self.occ_bits[pi] &= !(1u64 << vc);
        }
        f
    }

    /// Releases a lane's open route: frees the downstream VC allocation (if
    /// any) and clears the route/out-VC/owner fields.
    #[inline]
    fn release_lane_route(&mut self, lane: usize) {
        let r = self.route[lane];
        if (r as usize) < DIRS {
            let ovc = self.out_vc[lane];
            if ovc != NONE8 {
                self.alloc_bits[r as usize] &= !(1u64 << ovc);
            }
        }
        self.route[lane] = NONE8;
        self.out_vc[lane] = NONE8;
        self.route_packet[lane] = None;
    }

    /// Zero-cycle VC allocation + route computation for every head-of-queue
    /// flit; returns nothing, marks route/out-VC state in the lane arrays.
    fn allocate_routes_and_vcs(&mut self) {
        let clean = self.fa.is_clean();
        let total = self.total;
        for pi in 0..PORTS {
            // A zero occupancy word ⇔ every VC queue of this port is empty:
            // the body below only visits set bits, so the skip (and the
            // bit-walk itself) is byte-identical to the dense VC loop the
            // old layout ran, which `continue`d on every `None` head.
            let mut occ = self.occ_bits[pi];
            while occ != 0 {
                let vc = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let lane = pi * total + vc;
                let hoq = self.front(pi, vc);
                if self.tolerate_orphans
                    && self.route[lane] != NONE8
                    && self.route_packet[lane] != Some(hoq.packet)
                {
                    // A dropped tail left the route open for a packet that
                    // has already drained: release the stale downstream VC
                    // (otherwise the next packet would follow the old route,
                    // possibly into a wrong Local ejection) and re-route by
                    // the flit now at HoQ.
                    self.release_lane_route(lane);
                }
                if !clean {
                    let r = self.route[lane];
                    if (r as usize) < DIRS && self.fa.dead_out(Direction::ALL[r as usize]) {
                        // The packet's allocated output link died under
                        // it: release the downstream VC (its credits are
                        // lost with the link anyway) and re-route the
                        // remaining flits around the fault.
                        self.release_lane_route(lane);
                    }
                }
                if self.route[lane] == NONE8 {
                    debug_assert!(
                        self.tolerate_orphans || hoq.is_head(),
                        "non-head flit {hoq} at HoQ without a route (VC hold violated)"
                    );
                    let dor = match hoq.dest == self.node {
                        true => None,
                        false => Some(match self.options.routing {
                            RoutingAlgorithm::XFirst => self
                                .mesh
                                .dor_route_from(self.at, hoq.dest)
                                .expect("non-local destination has a DOR direction"),
                            RoutingAlgorithm::YFirst => self
                                .mesh
                                .dor_route_yx(self.node, hoq.dest)
                                .expect("non-local destination has a DOR direction"),
                        }),
                    };
                    let dir = if clean {
                        dor
                    } else {
                        match self.fa.route(hoq.dest) {
                            RouteOutcome::Local => None,
                            RouteOutcome::Dir(d) => {
                                if Some(d) != dor {
                                    self.counters.reroutes += 1;
                                }
                                Some(d)
                            }
                            // No alive path: leave the route unset so the
                            // VC stays ineligible; the unreachable sweep at
                            // the top of the next step drops the packet into
                            // the structured NACK/retransmit path.
                            RouteOutcome::Unreachable => continue,
                        }
                    };
                    self.route[lane] = match dir {
                        Some(d) => d.index() as u8,
                        None => PortId::Local.index() as u8,
                    };
                    self.route_packet[lane] = Some(hoq.packet);
                }
                let r = self.route[lane] as usize;
                if r < DIRS && self.out_vc[lane] == NONE8 {
                    let vnet = hoq.vnet.index();
                    let range = &self.layout.range_of[vnet];
                    debug_assert!(self.out_present[r], "route goes to an existing neighbor");
                    // First unallocated VC of the vnet range (ascending, the
                    // order the old `range.find` scanned); atomic buffers
                    // additionally require a full credit pool.
                    let mut free = !self.alloc_bits[r] & range_mask(range);
                    let found = if self.options.atomic_vc_reallocation {
                        let mut found = None;
                        while free != 0 {
                            let i = free.trailing_zeros() as usize;
                            free &= free - 1;
                            if self.credits[r * total + i] as usize == self.layout.depth_of[i] {
                                found = Some(i);
                                break;
                            }
                        }
                        found
                    } else if free != 0 {
                        Some(free.trailing_zeros() as usize)
                    } else {
                        None
                    };
                    if let Some(i) = found {
                        self.alloc_bits[r] |= 1u64 << i;
                        self.out_vc[lane] = i as u8;
                        self.counters.vc_allocations += 1;
                    }
                }
            }
        }
    }

    /// Drops head-of-queue packets whose destinations have no alive path
    /// (degraded mode only). Each dropped flit returns its buffer credit
    /// upstream and lands in `out.dropped`, which the engine converts into
    /// a NACK; the source NI's bounded retransmit then terminates the packet
    /// with a structured `Unreachable` record instead of wedging the VC.
    ///
    /// At most two credits per network port per cycle: the reverse lane is
    /// one wire bundle ([`LANE_CAP`](afc_netsim::channel::LANE_CAP) slots)
    /// that must also carry this cycle's switch-traversal credit, so a
    /// multi-flit packet drains over several cycles instead of bursting.
    fn sweep_unreachable(&mut self, out: &mut RouterOutputs) {
        let total = self.total;
        for port in PortId::ALL {
            if self.port_occ[port] == 0 {
                continue;
            }
            let pi = port.index();
            if !self.in_present[pi] {
                continue;
            }
            let mut budget = if port.is_network() {
                2usize
            } else {
                usize::MAX
            };
            'port: for vci in 0..total {
                let lane = pi * total + vci;
                while self.len[lane] > 0 {
                    if budget == 0 {
                        break 'port;
                    }
                    let front = self.front(pi, vci);
                    if !matches!(self.fa.route(front.dest), RouteOutcome::Unreachable) {
                        break;
                    }
                    let packet = front.packet;
                    if self.route_packet[lane] == Some(packet) {
                        self.release_lane_route(lane);
                    }
                    while self.len[lane] > 0 && self.front(pi, vci).packet == packet {
                        if budget == 0 {
                            // Mid-packet cutoff is safe: the remaining body
                            // flits stay unreachable and drain next cycle.
                            break 'port;
                        }
                        let f = self.pop_lane(pi, vci);
                        self.occ -= 1;
                        self.port_occ[port] -= 1;
                        self.counters.buffer_reads += 1;
                        if port.is_network() {
                            out.credits[port].push(Credit::Vc(VcId(vci as u8)));
                            self.counters.credits_sent += 1;
                            budget -= 1;
                        }
                        out.dropped.push(f);
                    }
                }
            }
        }
    }

    /// Reacts to an alive-state transition of a link incident to this
    /// router (learned locally from the engine's detector or remotely via
    /// gossip). Mask updates and route rebuilds already happened inside
    /// [`FaultAwareness`]; an own output link that revived starts the
    /// credit re-sync handshake with an empty pool.
    fn apply_link_update(&mut self, update: &LinkUpdate) {
        if let Some(d) = self.resync.on_link_update(update, |_| true) {
            let di = d.index();
            if self.out_present[di] {
                self.credits[di * self.total..(di + 1) * self.total].fill(0);
            }
        }
    }

    /// Stage-1 eligibility word for input port `pi`: bit `vc` set ⇔ that
    /// lane may compete for the switch this cycle. A lane is eligible when
    /// it is non-empty and its head packet's route is Local, or a network
    /// route whose allocated downstream VC has credits — unless the output
    /// port is mid-resync-handshake, where sending before the CreditResync
    /// lands would break its nothing-in-flight precondition.
    #[inline]
    fn eligible_mask(&self, pi: usize) -> u64 {
        let total = self.total;
        let mut mask = 0u64;
        let mut occ = self.occ_bits[pi];
        while occ != 0 {
            let vc = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let lane = pi * total + vc;
            let r = self.route[lane] as usize;
            if r < DIRS {
                if self.resync.wait_mask() >> r & 1 != 0 {
                    continue;
                }
                let ovc = self.out_vc[lane];
                if ovc != NONE8 && self.credits[r * total + ovc as usize] > 0 {
                    mask |= 1u64 << vc;
                }
            } else if r == PortId::Local.index() {
                mask |= 1u64 << vc;
            }
        }
        mask
    }
}

impl Router for BackpressuredRouter {
    fn receive_flit(&mut self, input: PortId, flit: Flit, _now: Cycle) {
        let vc = flit
            .vc
            .expect("backpressured arrivals carry their VC id")
            .index();
        let pi = input.index();
        if !self.in_present[pi] {
            panic!("flit {flit} arrived on absent port {input}");
        }
        let lane = pi * self.total + vc;
        assert!(
            (self.len[lane] as usize) < self.layout.depth_of[vc],
            "credit violation: VC {vc} overflow at {} port {input}",
            self.node
        );
        self.push_lane(pi, vc, flit);
        self.occ += 1;
        self.port_occ[input] += 1;
        self.counters.buffer_writes += 1;
    }

    fn receive_credit(&mut self, output: PortId, credit: Credit, _now: Cycle) {
        let Credit::Vc(vc) = credit else {
            panic!("backpressured router expects per-VC credits");
        };
        let di = match output {
            PortId::Net(d) if self.out_present[d.index()] => d.index(),
            _ => panic!("credit on absent port {output}"),
        };
        let i = di * self.total + vc.index();
        self.credits[i] += 1;
        assert!(
            self.credits[i] as usize <= self.layout.depth_of[vc.index()],
            "credit overflow on {output} {vc}"
        );
    }

    fn receive_control(&mut self, _output: PortId, signal: ControlSignal, now: Cycle) {
        // Credit-tracking control lines are an AFC mechanism; a homogeneous
        // backpressured network never sees them. Fault gossip and the
        // credit re-sync handshake, however, are mechanism-independent.
        if let ControlSignal::CreditResync { node, dir, epoch } = signal {
            if self.resync.confirm(&self.fa, node, dir, epoch) {
                // The downstream buffers are empty and nothing is in
                // flight (the port was ineligible throughout the wait), so
                // a full credit pool is exactly correct.
                let di = dir.index();
                if self.out_present[di] {
                    for (v, depth) in self.layout.depth_of.iter().enumerate() {
                        self.credits[di * self.total + v] = *depth as u16;
                    }
                }
            }
            return;
        }
        if let Some(update) = self.fa.on_control(signal, now) {
            self.counters.fault_notices += 1;
            self.apply_link_update(&update);
        }
    }

    fn note_link_event(
        &mut self,
        node: NodeId,
        dir: Direction,
        epoch: u32,
        alive: bool,
        now: Cycle,
    ) {
        if let Some(update) = self.fa.learn(node, dir, epoch, alive, now) {
            self.apply_link_update(&update);
        }
    }

    fn injection_ready(&self, flit: &Flit, _now: Cycle) -> bool {
        let pi = PortId::Local.index();
        let vnet = flit.vnet.index();
        let lane_free =
            |vc: usize| (self.len[pi * self.total + vc] as usize) < self.layout.depth_of[vc];
        match self.inject_vc[vnet] {
            Some(vc) => lane_free(vc),
            None => {
                // Under fault injection, a corruption NACK without recovery
                // configured re-injects a lone mid-packet flit; it routes by
                // its own destination like any other orphan.
                debug_assert!(
                    flit.is_head() || self.tolerate_orphans,
                    "mid-packet injection without open VC"
                );
                self.layout.range_of[vnet].clone().any(lane_free)
            }
        }
    }

    fn inject(&mut self, mut flit: Flit, _now: Cycle) {
        let pi = PortId::Local.index();
        let vnet = flit.vnet.index();
        let vc = match self.inject_vc[vnet] {
            Some(vc) => vc,
            None => {
                let range = self.layout.range_of[vnet].clone();
                let n = range.len();
                let start = self.inject_rr[vnet];
                let vc = (0..n)
                    .map(|i| range.start + (start + i) % n)
                    .find(|vc| {
                        (self.len[pi * self.total + vc] as usize) < self.layout.depth_of[*vc]
                    })
                    .expect("injection_ready checked");
                self.inject_rr[vnet] = (vc - range.start + 1) % n;
                vc
            }
        };
        self.inject_vc[vnet] = if flit.is_tail() { None } else { Some(vc) };
        flit.vc = Some(VcId(vc as u8));
        self.push_lane(pi, vc, flit);
        self.occ += 1;
        self.port_occ[PortId::Local] += 1;
        self.counters.buffer_writes += 1;
        self.counters.injections += 1;
    }

    fn step(&mut self, _now: Cycle, _rng: &mut SimRng, out: &mut RouterOutputs) {
        self.counters.cycles += 1;
        self.counters.buffer_occupancy_sum += self.occupancy() as u64;
        if !self.fa.is_clean() {
            self.sweep_unreachable(out);
        }
        if self.fa.has_pending_gossip() {
            // Gossip is gated on the queue, not on cleanliness: revival
            // facts must keep flooding after the fault view empties (the
            // router is already clean again when it re-gossips them).
            self.fa.drain_gossip(out);
        }
        if self.resync.has_pending() {
            let port_occ = &self.port_occ;
            let drained = |d| port_occ[PortId::Net(d)] == 0;
            self.resync.emit(&self.fa, drained, out, &mut self.counters);
        }
        self.allocate_routes_and_vcs();

        // Stage 1 of separable switch allocation: each input port nominates
        // one eligible VC (a mask kernel over the occupancy bitword).
        let total = self.total;
        let mut any_candidate = false;
        let mut candidates: PortMap<Option<usize>> = PortMap::default();
        for port in PortId::ALL {
            let pi = port.index();
            if self.occ_bits[pi] == 0 {
                // An empty (or absent) port nominates nothing: eligibility
                // is zero for every VC, which would `continue` before the
                // arbiter is consulted or the arbitration counter bumped —
                // so the skip is byte-identical to evaluating it.
                continue;
            }
            let mask = self.eligible_mask(pi);
            if mask == 0 {
                continue;
            }
            let arb = self.input_arb[port].as_mut().expect("arb exists with port");
            candidates[port] = arb.grant_masked(mask);
            any_candidate |= candidates[port].is_some();
            self.counters.arbitrations += 1;
        }
        if !any_candidate && self.occupancy() > 0 {
            // Flits are buffered, but every one of them is blocked on
            // downstream credits.
            self.counters.credit_stall_cycles += 1;
        }

        // Stage 2: each output port grants among nominating input ports.
        // Each input's candidate requests exactly its routed output, so the
        // per-output request sets are 5-bit words built once; a grant
        // clears the winner's bit (the old `candidates.take()`).
        let mut requests = [0u64; PORTS];
        for port in PortId::ALL {
            if let Some(vc) = candidates[port] {
                let r = self.route[port.index() * total + vc] as usize;
                debug_assert!(r < PORTS, "candidate lane has a route");
                requests[r] |= 1u64 << port.index();
            }
        }
        // The local (ejection) port can grant up to `eject_bandwidth` times.
        let mut winners = std::mem::take(&mut self.winners_scratch); // (in, vc, out)
        for out_port in PortId::ALL {
            let oi = out_port.index();
            if out_port.is_network() && !self.out_present[oi] {
                continue;
            }
            let grants = if out_port == PortId::Local {
                self.eject_bandwidth
            } else {
                1
            };
            for _ in 0..grants {
                let granted = self.output_arb[out_port].grant_masked(requests[oi]);
                let Some(i) = granted else { break };
                self.counters.arbitrations += 1;
                requests[oi] &= !(1u64 << i);
                let in_port = PortId::from_index(i).expect("valid index");
                let vc = candidates[in_port]
                    .take()
                    .expect("granted implies candidate");
                winners.push((in_port, vc, out_port));
            }
        }

        // Traversal: pop winners, emit flits/credits, update VC state.
        for &(in_port, vc, out_port) in &winners {
            let pi = in_port.index();
            let lane = pi * total + vc;
            let was_alone = self.len[lane] == 1;
            let mut flit = self.pop_lane(pi, vc);
            self.occ -= 1;
            self.port_occ[in_port] -= 1;
            let out_vc = self.out_vc[lane];
            if flit.is_tail() {
                self.route[lane] = NONE8;
                self.out_vc[lane] = NONE8;
                self.route_packet[lane] = None;
            }
            if self.options.read_bypass && was_alone {
                // Lone flit: served from the bypass latch, SRAM read elided.
                self.counters.latch_writes += 1;
            } else {
                self.counters.buffer_reads += 1;
            }
            self.counters.crossbar_traversals += 1;
            if in_port.is_network() {
                out.credits[in_port].push(Credit::Vc(VcId(vc as u8)));
                self.counters.credits_sent += 1;
            }
            match out_port {
                PortId::Local => {
                    out.ejected.push(flit);
                    self.counters.ejections += 1;
                }
                PortId::Net(d) => {
                    debug_assert!(out_vc != NONE8, "network route has an allocated VC");
                    let di = d.index();
                    let ci = di * total + out_vc as usize;
                    debug_assert!(self.credits[ci] > 0, "eligibility checked credits");
                    self.credits[ci] -= 1;
                    if flit.is_tail() {
                        self.alloc_bits[di] &= !(1u64 << out_vc);
                    }
                    flit.vc = Some(VcId(out_vc));
                    flit.hops += 1;
                    out.flits[out_port] = Some(flit);
                    self.counters.link_traversals += 1;
                }
            }
        }
        winners.clear();
        self.winners_scratch = winners;
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.layout.vnet_of.capacity()
            + self.layout.depth_of.capacity() * size_of::<usize>()
            + self.layout.range_of.capacity() * size_of::<std::ops::Range<usize>>()
            + self.vc_base.len() * size_of::<u32>()
            + self.flits.len() * size_of::<Flit>()
            + self.head.len() * size_of::<u16>()
            + self.len.len() * size_of::<u16>()
            + self.route.len()
            + self.out_vc.len()
            + self.route_packet.len() * size_of::<Option<PacketId>>()
            + self.credits.len() * size_of::<u16>()
            + self.inject_vc.capacity() * size_of::<Option<usize>>()
            + self.inject_rr.capacity() * size_of::<usize>()
            + self.winners_scratch.capacity() * size_of::<(PortId, usize, PortId)>()
            + self.fa.heap_bytes()
    }

    fn counters(&self) -> &ActivityCounters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut ActivityCounters {
        &mut self.counters
    }

    fn mode(&self) -> RouterMode {
        RouterMode::Backpressured
    }

    fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.occ,
            self.len.iter().map(|l| *l as usize).sum::<usize>(),
            "incremental occupancy out of sync at {}",
            self.node
        );
        debug_assert!(
            PortId::ALL.into_iter().all(|p| {
                let pi = p.index();
                self.port_occ[p]
                    == self.len[pi * self.total..(pi + 1) * self.total]
                        .iter()
                        .map(|l| *l as usize)
                        .sum::<usize>()
            }),
            "incremental per-port occupancy out of sync at {}",
            self.node
        );
        debug_assert!(
            (0..PORTS).all(|pi| {
                (0..self.total).all(|vc| {
                    (self.occ_bits[pi] >> vc & 1 != 0) == (self.len[pi * self.total + vc] > 0)
                })
            }),
            "occupancy bitword out of sync at {}",
            self.node
        );
        self.occ
    }

    fn is_quiescent(&self) -> bool {
        // With no buffered flits, a step only counts the cycle and adds a
        // zero occupancy sample: route allocation skips empty queues, no
        // VC is eligible, and no arbiter rotates (RoundRobin holds its
        // pointer when nothing requests). Open inject-VC wormholes and
        // credit state are untouched by an idle step, so the default
        // `note_idle_cycles` replays it exactly. Pending fault gossip keeps
        // the router live: an idle step still drains the flood queue. A
        // pending credit re-sync likewise: the step must emit the signal.
        self.occ == 0 && !self.fa.has_pending_gossip() && !self.resync.has_pending()
    }

    fn reset(&mut self) -> bool {
        // Everything below is either cleared in place or config-derived
        // (layout, options, eject bandwidth, tolerate_orphans), so the
        // result is indistinguishable from `with_options` on the same
        // configuration — and no backing storage is freed.
        self.head.fill(0);
        self.len.fill(0);
        self.route.fill(NONE8);
        self.out_vc.fill(NONE8);
        self.route_packet.fill(None);
        self.occ_bits = [0; PORTS];
        self.alloc_bits = [0; DIRS];
        for di in 0..DIRS {
            for v in 0..self.total {
                self.credits[di * self.total + v] = if self.out_present[di] {
                    self.layout.depth_of[v] as u16
                } else {
                    0
                };
            }
        }
        for port in PortId::ALL {
            if let Some(arb) = self.input_arb[port].as_mut() {
                arb.set_cursor(0);
            }
            self.output_arb[port].set_cursor(0);
        }
        self.inject_vc.fill(None);
        self.inject_rr.fill(0);
        self.occ = 0;
        self.port_occ = PortMap::default();
        self.winners_scratch.clear();
        self.fa.reset();
        self.resync.reset();
        self.counters = ActivityCounters::new();
        true
    }

    fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        // Identical byte stream to the pre-slab layout: lanes visit in the
        // same (port, vc) order the per-VC vectors iterated, flits in FIFO
        // order from each ring's head.
        let some = |v: u8| (v != NONE8).then_some(v);
        for pi in (0..PORTS).filter(|&pi| self.in_present[pi]) {
            for vc in 0..self.total {
                let lane = pi * self.total + vc;
                let (base, depth) = self.ring(pi, vc);
                let (h, n) = (self.head[lane] as usize, self.len[lane] as usize);
                n.put(w);
                (0..n).for_each(|k| self.flits[base + (h + k) % depth].put(w));
                some(self.route[lane]).put(w);
                some(self.out_vc[lane]).map(u64::from).put(w);
                self.route_packet[lane].put(w);
            }
        }
        for di in (0..DIRS).filter(|&di| self.out_present[di]) {
            for vc in 0..self.total {
                let credits = self.credits[di * self.total + vc] as usize;
                (self.alloc_bits[di] >> vc & 1 != 0, credits).put(w);
            }
        }
        for arb in self.input_arb.iter().flat_map(|(_, arb)| arb) {
            arb.put(w);
        }
        self.output_arb.put(w);
        self.inject_vc[..].put(w);
        self.inject_rr[..].put(w);
        self.resync.put(w);
        self.counters.put(w);
        self.fa.put(w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let total = self.total;
        self.occ = 0;
        self.port_occ = PortMap::default();
        self.occ_bits = [0; PORTS];
        for port in PortId::ALL
            .into_iter()
            .filter(|p| self.in_present[p.index()])
        {
            let pi = port.index();
            for vc in 0..total {
                let lane = pi * total + vc;
                let (base, depth) = self.ring(pi, vc);
                let n = r.get_index(depth + 1, "input vc queue length")?;
                self.flits[base..base + n].load(r)?;
                (self.head[lane], self.len[lane]) = (0, n as u16);
                self.occ_bits[pi] |= ((n > 0) as u64) << vc;
                self.occ += n;
                self.port_occ[port] += n;
                self.route[lane] = match Option::<u8>::get(r)? {
                    None => NONE8,
                    Some(p) if (p as usize) < PORTS => p,
                    Some(_) => {
                        return Err(SnapshotError::Malformed {
                            what: "input vc route",
                        })
                    }
                };
                self.out_vc[lane] = get_vc(r, total, "input vc out-vc")?.map_or(NONE8, |v| v as u8);
                self.route_packet[lane].load(r)?;
            }
        }
        self.alloc_bits = [0; DIRS];
        for di in (0..DIRS).filter(|&di| self.out_present[di]) {
            for vc in 0..total {
                self.alloc_bits[di] |= (r.get_bool("output vc allocated")? as u64) << vc;
                let credits = r.get_index(self.layout.depth_of[vc] + 1, "output vc credits")?;
                self.credits[di * total + vc] = credits as u16;
            }
        }
        for arb in self.input_arb.iter_mut().flat_map(|(_, arb)| arb) {
            arb.load(r)?;
        }
        self.output_arb.load(r)?;
        for vc in &mut self.inject_vc {
            *vc = get_vc(r, total, "inject vc")?;
        }
        for (vnet, rr) in self.inject_rr.iter_mut().enumerate() {
            let vcs = self.layout.range_of[vnet].len();
            *rr = r.get_index(vcs, "inject round-robin cursor")?;
        }
        self.resync.load(r)?;
        self.counters.load(r)?;
        self.fa.load(r)
    }
}

/// A VC index below `total` behind a presence flag (an `Option<usize>`'s
/// encoding, range-checked).
fn get_vc(
    r: &mut SnapshotReader<'_>,
    total: usize,
    what: &'static str,
) -> Result<Option<usize>, SnapshotError> {
    match r.get_bool(what)? {
        true => r.get_index(total, what).map(Some),
        false => Ok(None),
    }
}

impl std::fmt::Debug for BackpressuredRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackpressuredRouter")
            .field("node", &self.node)
            .field("occupancy", &self.occupancy())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
impl BackpressuredRouter {
    /// Buffered flit count of one input lane (test observability — the
    /// slab layout has no per-VC struct to peek at).
    fn lane_len(&self, port: PortId, vc: usize) -> usize {
        self.len[port.index() * self.total + vc] as usize
    }

    /// Ring capacity of VC `vc` (identical across ports).
    fn lane_depth(&self, vc: usize) -> usize {
        self.layout.depth_of[vc]
    }
}

/// Factory for [`BackpressuredRouter`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackpressuredFactory {
    /// Router design options (routing order, VC reallocation policy).
    pub options: BackpressuredOptions,
}

impl BackpressuredFactory {
    /// Creates the standard backpressured factory.
    pub fn new() -> BackpressuredFactory {
        BackpressuredFactory::default()
    }

    /// Creates a factory with explicit design options.
    pub fn with_options(options: BackpressuredOptions) -> BackpressuredFactory {
        BackpressuredFactory { options }
    }

    /// Creates the buffer-read-bypass variant (Wang et al., the paper's
    /// reference \[1\]): lone flits skip the SRAM read. Its routers record
    /// what the plain and ideal-bypass accountings of Figure 2(b) need as
    /// well (`afc_energy::BufferAccounting`), cycle for cycle the same
    /// network — `tests/bypass_lockstep.rs` holds that equivalence.
    pub fn read_bypass() -> BackpressuredFactory {
        BackpressuredFactory::with_options(BackpressuredOptions {
            read_bypass: true,
            ..BackpressuredOptions::default()
        })
    }
}

impl RouterFactory for BackpressuredFactory {
    fn build_bank(
        &self,
        mesh: &Mesh,
        config: &NetworkConfig,
        rings: Vec<Box<[Flit]>>,
    ) -> Box<dyn RouterBank> {
        let bank: Vec<BackpressuredRouter> = (mesh.nodes().zip(rings))
            .map(|(node, rings)| {
                BackpressuredRouter::with_rings(node, mesh, config, self.options, rings)
            })
            .collect();
        Box::new(bank)
    }

    fn name(&self) -> &'static str {
        if self.options.read_bypass {
            "backpressured-read-bypass"
        } else {
            "backpressured"
        }
    }

    fn flit_width_bits(&self) -> u32 {
        FLIT_WIDTH_BITS
    }

    fn buffer_flits_per_port(&self, config: &NetworkConfig) -> usize {
        config.buffer_flits_per_port()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_netsim::config::NetworkConfig;
    use afc_netsim::flit::{PacketId, VirtualNetwork};
    use afc_netsim::geom::{Coord, Direction};

    fn setup() -> (Mesh, NetworkConfig, BackpressuredRouter) {
        let config = NetworkConfig::paper_3x3();
        let mesh = config.mesh().unwrap();
        let node = mesh.node_at(Coord::new(1, 1)).unwrap(); // center
        let router = BackpressuredRouter::new(node, &mesh, &config);
        (mesh, config, router)
    }

    fn flit_to(dest: NodeId, vc: u8, seq: u16, len: u16) -> Flit {
        let mut f = Flit::test_flit(PacketId(1), NodeId::new(0), dest);
        f.vc = Some(VcId(vc));
        f.seq = seq;
        f.len = len;
        f.vnet = VirtualNetwork(0);
        f
    }

    #[test]
    fn forwards_single_flit_along_dor() {
        let (mesh, _cfg, mut r) = setup();
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap(); // east of center
        r.receive_flit(PortId::Net(Direction::West), flit_to(dest, 0, 0, 1), 0);
        let mut out = RouterOutputs::new();
        let mut rng = SimRng::seed_from(0);
        r.step(0, &mut rng, &mut out);
        let sent = out.flits[PortId::Net(Direction::East)].expect("forwarded east");
        assert_eq!(sent.hops, 1);
        assert!(sent.vc.is_some());
        // Credit returned upstream for the freed slot.
        assert_eq!(
            out.credits[PortId::Net(Direction::West)],
            vec![Credit::Vc(VcId(0))]
        );
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn ejects_local_flit() {
        let (_mesh, _cfg, mut r) = setup();
        let node = r.node();
        r.receive_flit(PortId::Net(Direction::North), flit_to(node, 2, 0, 1), 0);
        let mut out = RouterOutputs::new();
        let mut rng = SimRng::seed_from(0);
        r.step(0, &mut rng, &mut out);
        assert_eq!(out.ejected.len(), 1);
        assert_eq!(out.flits_sent(), 0);
        assert_eq!(out.ejected[0].hops, 0);
    }

    #[test]
    fn blocks_without_credits_and_resumes_on_credit() {
        let (mesh, cfg, mut r) = setup();
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        let mut out = RouterOutputs::new();
        let mut rng = SimRng::seed_from(0);
        // vnet 0 eastward has 2 VCs * 8 credits = 16 downstream slots.
        let depth = cfg.vnets[0].buffer_depth;
        let vcs = cfg.vnets[0].vcs;
        let budget = depth * vcs;
        // Phase A: exactly `budget` single-flit packets drain before the
        // downstream credits (never returned here) run out.
        let mut sent = 0;
        let mut next_packet = 100u64;
        let mut offer = |r: &mut BackpressuredRouter, n: usize| {
            for i in 0..n {
                let mut f = flit_to(dest, 0, 0, 1);
                f.packet = PacketId(next_packet);
                next_packet += 1;
                f.vc = Some(VcId((i % vcs) as u8));
                r.receive_flit(PortId::Net(Direction::West), f, 0);
            }
        };
        offer(&mut r, budget.min(vcs * depth));
        for now in 0..100 {
            out.clear();
            r.step(now, &mut rng, &mut out);
            if out.flits[PortId::Net(Direction::East)].is_some() {
                sent += 1;
            }
        }
        assert_eq!(sent, budget, "initial credits bound the flits sent");
        assert_eq!(r.occupancy(), 0);
        // Phase B: two more flits now stall — zero credits remain.
        offer(&mut r, 2);
        for now in 100..110 {
            out.clear();
            r.step(now, &mut rng, &mut out);
            assert!(out.flits[PortId::Net(Direction::East)].is_none());
        }
        assert_eq!(r.occupancy(), 2);
        // Phase C: one credit lets exactly one flit through.
        r.receive_credit(PortId::Net(Direction::East), Credit::Vc(VcId(0)), 110);
        let mut extra = 0;
        for now in 110..120 {
            out.clear();
            r.step(now, &mut rng, &mut out);
            if out.flits[PortId::Net(Direction::East)].is_some() {
                extra += 1;
            }
        }
        assert_eq!(extra, 1);
        assert_eq!(r.occupancy(), 1);
    }

    #[test]
    fn packet_flits_stay_together_on_one_vc() {
        let (mesh, _cfg, mut r) = setup();
        let dest = mesh.node_at(Coord::new(1, 2)).unwrap(); // south
        let mut rng = SimRng::seed_from(0);
        let mut out = RouterOutputs::new();
        // Two interleaved packets on different input VCs of the same port.
        for seq in 0..3u16 {
            let mut a = flit_to(dest, 0, seq, 3);
            a.packet = PacketId(10);
            r.receive_flit(PortId::Net(Direction::North), a, 0);
            let mut b = flit_to(dest, 1, seq, 3);
            b.packet = PacketId(20);
            r.receive_flit(PortId::Net(Direction::North), b, 0);
        }
        let mut sent: Vec<(u64, u8)> = Vec::new();
        for now in 0..20 {
            out.clear();
            r.step(now, &mut rng, &mut out);
            if let Some(f) = out.flits[PortId::Net(Direction::South)] {
                sent.push((f.packet.0, f.vc.unwrap().0));
            }
        }
        assert_eq!(sent.len(), 6);
        // Each packet keeps a single output VC for all its flits.
        let vc_of_10: Vec<u8> = sent
            .iter()
            .filter(|(p, _)| *p == 10)
            .map(|(_, v)| *v)
            .collect();
        let vc_of_20: Vec<u8> = sent
            .iter()
            .filter(|(p, _)| *p == 20)
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(vc_of_10.len(), 3);
        assert!(vc_of_10.windows(2).all(|w| w[0] == w[1]));
        assert!(vc_of_20.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            vc_of_10[0], vc_of_20[0],
            "distinct packets get distinct VCs"
        );
    }

    #[test]
    fn injection_respects_vnet_capacity() {
        let (mesh, cfg, mut r) = setup();
        let dest = mesh.node_at(Coord::new(0, 0)).unwrap();
        let capacity = cfg.vnets[0].vcs * cfg.vnets[0].buffer_depth;
        let mut accepted = 0;
        for i in 0..capacity + 5 {
            let mut f = flit_to(dest, 0, 0, 1);
            f.packet = PacketId(i as u64);
            f.vc = None;
            if r.injection_ready(&f, 0) {
                r.inject(f, 0);
                accepted += 1;
            }
        }
        assert_eq!(accepted, capacity);
    }

    #[test]
    fn multiflit_injection_uses_single_vc() {
        let (mesh, _cfg, mut r) = setup();
        let dest = mesh.node_at(Coord::new(0, 1)).unwrap();
        for seq in 0..4u16 {
            let mut f = flit_to(dest, 0, seq, 4);
            f.vc = None;
            assert!(r.injection_ready(&f, 0));
            r.inject(f, 0);
        }
        let used: Vec<usize> = (0..r.total)
            .filter(|vc| r.lane_len(PortId::Local, *vc) > 0)
            .collect();
        assert_eq!(used.len(), 1, "all four flits share one local VC");
        assert_eq!(r.lane_len(PortId::Local, used[0]), 4);
    }

    #[test]
    #[should_panic(expected = "credit violation")]
    fn buffer_overflow_is_detected() {
        let (mesh, cfg, mut r) = setup();
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        for i in 0..=cfg.vnets[0].buffer_depth {
            let mut f = flit_to(dest, 0, 0, 1);
            f.packet = PacketId(i as u64);
            r.receive_flit(PortId::Net(Direction::West), f, 0);
        }
    }

    #[test]
    fn no_input_port_starves_under_sustained_contention() {
        // Two input ports fight for the same output forever; round-robin
        // arbitration must split the wins near-evenly.
        let (mesh, _cfg, mut r) = setup();
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        let mut rng = SimRng::seed_from(1);
        let mut out = RouterOutputs::new();
        let mut wins = [0u32; 2];
        let mut next = 0u64;
        for now in 0..400 {
            // Keep both ports' VC 0 topped up.
            for (i, d) in [Direction::West, Direction::North].into_iter().enumerate() {
                if r.lane_len(PortId::Net(d), 0) < r.lane_depth(0) {
                    let mut f = flit_to(dest, 0, 0, 1);
                    f.packet = PacketId(next);
                    f.tag = i as u64;
                    next += 1;
                    r.receive_flit(PortId::Net(d), f, now);
                }
            }
            out.clear();
            r.step(now, &mut rng, &mut out);
            if let Some(f) = out.flits[PortId::Net(Direction::East)] {
                wins[f.tag as usize] += 1;
                // Downstream drains instantly: return the credit.
                r.receive_credit(PortId::Net(Direction::East), Credit::Vc(f.vc.unwrap()), now);
            }
        }
        let total = wins[0] + wins[1];
        assert!(total > 300, "the output port should be busy ({total})");
        let imbalance = wins[0].abs_diff(wins[1]);
        assert!(
            imbalance <= total / 10,
            "round-robin fairness violated: {wins:?}"
        );
    }

    #[test]
    fn yx_routing_corrects_y_first() {
        let config = NetworkConfig::paper_3x3();
        let mesh = config.mesh().unwrap();
        let node = mesh.node_at(Coord::new(1, 1)).unwrap();
        let mut r = BackpressuredRouter::with_options(
            node,
            &mesh,
            &config,
            BackpressuredOptions {
                routing: RoutingAlgorithm::YFirst,
                ..BackpressuredOptions::default()
            },
        );
        // Destination to the south-east: YX goes south first (XY would go
        // east).
        let dest = mesh.node_at(Coord::new(2, 2)).unwrap();
        r.receive_flit(PortId::Net(Direction::North), flit_to(dest, 0, 0, 1), 0);
        let mut out = RouterOutputs::new();
        let mut rng = SimRng::seed_from(0);
        r.step(0, &mut rng, &mut out);
        assert!(out.flits[PortId::Net(Direction::South)].is_some());
        assert!(out.flits[PortId::Net(Direction::East)].is_none());
    }

    #[test]
    fn atomic_vc_reallocation_waits_for_full_drain() {
        let config = NetworkConfig::paper_3x3();
        let mesh = config.mesh().unwrap();
        let node = mesh.node_at(Coord::new(1, 1)).unwrap();
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        let build = |atomic: bool| {
            BackpressuredRouter::with_options(
                node,
                &mesh,
                &config,
                BackpressuredOptions {
                    atomic_vc_reallocation: atomic,
                    ..BackpressuredOptions::default()
                },
            )
        };
        // Send enough single-flit packets on one input VC that VC
        // reallocation matters; downstream returns no credits, so under
        // atomic reallocation only the vnet's VC count can ever leave.
        let run = |mut r: BackpressuredRouter| {
            let mut rng = SimRng::seed_from(0);
            let mut out = RouterOutputs::new();
            for i in 0..8u64 {
                let mut f = flit_to(dest, 0, 0, 1);
                f.packet = PacketId(i);
                r.receive_flit(PortId::Net(Direction::West), f, 0);
            }
            let mut sent = 0;
            for now in 0..50 {
                out.clear();
                r.step(now, &mut rng, &mut out);
                if out.flits[PortId::Net(Direction::East)].is_some() {
                    sent += 1;
                }
            }
            sent
        };
        let vcs = config.vnets[0].vcs;
        assert_eq!(run(build(true)), vcs, "atomic: one packet per pristine VC");
        assert_eq!(
            run(build(false)),
            8,
            "non-atomic: packets queue back-to-back"
        );
    }

    #[test]
    fn read_bypass_elides_sram_reads_for_lone_flits() {
        let config = NetworkConfig::paper_3x3();
        let mesh = config.mesh().unwrap();
        let node = mesh.node_at(Coord::new(1, 1)).unwrap();
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        let run = |bypass: bool, backlog: bool| {
            let mut r = BackpressuredRouter::with_options(
                node,
                &mesh,
                &config,
                BackpressuredOptions {
                    read_bypass: bypass,
                    ..BackpressuredOptions::default()
                },
            );
            let mut rng = SimRng::seed_from(0);
            let mut out = RouterOutputs::new();
            let n = if backlog { 4 } else { 1 };
            for i in 0..n {
                let mut f = flit_to(dest, 0, 0, 1);
                f.packet = PacketId(i);
                r.receive_flit(PortId::Net(Direction::West), f, 0);
            }
            for now in 0..10 {
                out.clear();
                r.step(now, &mut rng, &mut out);
            }
            (r.counters().buffer_reads, r.counters().latch_writes)
        };
        // Lone flit: bypassed under the option, SRAM-read otherwise.
        assert_eq!(run(true, false), (0, 1));
        assert_eq!(run(false, false), (1, 0));
        // A backlog of 4: only the last (alone again) flit bypasses.
        assert_eq!(run(true, true), (3, 1));
        assert_eq!(run(false, true), (4, 0));
    }

    #[test]
    fn wraparound_ring_preserves_fifo_order_and_snapshot_bytes() {
        // Drive one lane through enough push/pop cycles that its ring head
        // wraps, then check FIFO order survives and a snapshot of the
        // wrapped ring round-trips to identical bytes (the snapshot stream
        // is logical FIFO content, independent of head position).
        let (mesh, cfg, mut r) = setup();
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        let depth = cfg.vnets[0].buffer_depth;
        let mut rng = SimRng::seed_from(0);
        let mut out = RouterOutputs::new();
        let mut sent: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for now in 0..(3 * depth as u64) {
            if r.lane_len(PortId::Net(Direction::West), 0) < depth {
                let mut f = flit_to(dest, 0, 0, 1);
                f.packet = PacketId(next);
                next += 1;
                r.receive_flit(PortId::Net(Direction::West), f, now);
            }
            out.clear();
            r.step(now, &mut rng, &mut out);
            if let Some(f) = out.flits[PortId::Net(Direction::East)] {
                sent.push(f.packet.0);
                r.receive_credit(PortId::Net(Direction::East), Credit::Vc(f.vc.unwrap()), now);
            }
        }
        assert!(sent.len() >= depth, "ring must have wrapped");
        assert!(sent.windows(2).all(|w| w[1] == w[0] + 1), "FIFO violated");
        // Leave a partially-filled wrapped lane, then snapshot round-trip.
        for i in 0..3u64 {
            let mut f = flit_to(dest, 1, 0, 1);
            f.packet = PacketId(1000 + i);
            r.receive_flit(PortId::Net(Direction::West), f, 100);
        }
        let mut w = SnapshotWriter::new();
        r.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r2 = BackpressuredRouter::new(r.node(), &mesh, &cfg);
        let mut reader = SnapshotReader::new(&bytes);
        r2.load_state(&mut reader).unwrap();
        let mut w2 = SnapshotWriter::new();
        r2.save_state(&mut w2).unwrap();
        assert_eq!(bytes, w2.into_bytes(), "snapshot bytes must round-trip");
        assert_eq!(r.occupancy(), r2.occupancy());
    }

    #[test]
    fn factory_metadata() {
        let f = BackpressuredFactory::new();
        assert_eq!(f.name(), "backpressured");
        assert_eq!(f.flit_width_bits(), 41);
        assert_eq!(f.buffer_flits_per_port(&NetworkConfig::paper_3x3()), 64);
        assert_eq!(
            BackpressuredFactory::read_bypass().name(),
            "backpressured-read-bypass"
        );
    }
}
