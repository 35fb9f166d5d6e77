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
//! Per-port/per-VC state lives in flat slabs over `5 × total` lanes
//! (`lane = port_index * total + vc`): one contiguous flit ring slab, one
//! 8-byte `Lane` record per lane (ring head, length and depth, the head
//! packet's route and downstream VC, `0xFF` = none), a flat `credits`
//! array for the four network output ports, one occupancy bitword per
//! input port (bit `vc` set ⇔ lane non-empty) and one allocation bitword
//! per output port. Stage 1 is **one pass** per input port over its
//! occupancy word: each lane gets its route and downstream VC if it still
//! lacks them — the only time its head flit is read, besides the
//! orphan-tolerant and degraded paths — and sets its request bit when it
//! may compete; the port's round-robin arbiter then grants over that word
//! ([`RoundRobin::grant_masked`]). Stage 2 is the shared
//! [`Nominations::grant`] kernel. Snapshot bytes, arbitration outcomes and
//! counters are bit-identical to the two-pass allocator (allocate every
//! lane, then test eligibility): a lane's eligibility reads only its own
//! route, its own VC's credits and the re-sync wait mask, none of which a
//! later lane's allocation changes.
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

use crate::arbiter::{Nominations, RoundRobin};

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

/// One input lane's ring indices and its head packet's allocation.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// Ring position of the head flit (`0..depth`); rewound to 0 whenever
    /// the lane empties.
    head: u16,
    /// Buffered flits.
    len: u16,
    /// The VC's buffer depth (ring capacity).
    depth: u16,
    /// Output port of the packet at the head of the queue ([`PortId`]
    /// index, [`NONE8`] when unrouted).
    route: u8,
    /// Downstream VC allocated to that packet (network routes only;
    /// [`NONE8`] when unallocated).
    out_vc: u8,
}

impl Lane {
    /// An empty, unrouted lane of a `depth`-deep VC.
    fn empty(depth: usize) -> Lane {
        Lane {
            head: 0,
            len: 0,
            depth: depth as u16,
            route: NONE8,
            out_vc: NONE8,
        }
    }

    /// Whether allocation still has work here: no route yet, or a network
    /// route without a downstream VC.
    #[inline]
    fn unallocated(&self) -> bool {
        self.route == NONE8 || ((self.route as usize) < DIRS && self.out_vc == NONE8)
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
    /// Shallowest VC depth: the number of slab rows every lane owns a slot
    /// in (see [`Self::slot`]).
    d_min: u16,
    /// Flits in one port's tail region: `Σ (depth_of[v] - d_min)`, zero
    /// under uniform depth.
    tail_span: u32,
    /// Offset of each VC's tail (its positions `d_min..depth`) within its
    /// port's tail region: prefix sums of `depth_of[v] - d_min`.
    tail_off: Box<[u32]>,
    /// Which input ports exist (Local always; `Net(d)` iff neighbor).
    in_present: [bool; PORTS],
    /// Which network output directions exist.
    out_present: [bool; DIRS],
    /// Flit ring storage for all lanes, addressed by [`Self::slot`]: row
    /// `k` holds slot `k` of every lane, deeper VCs' extra slots follow.
    flits: Box<[Flit]>,
    /// Per-lane ring indices and head-packet allocation.
    lanes: Box<[Lane]>,
    /// Packet that owns each lane's open route, kept only when the network
    /// injects link faults (empty otherwise; see
    /// [`Self::tolerate_orphans`]). In a fault-free run the tail always
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
    /// Buffered flits across all input VCs, maintained incrementally so
    /// [`Router::occupancy`] and the per-step occupancy integral are O(1).
    occ: usize,
    /// Buffered flits per input port, maintained alongside `occ` so route
    /// allocation and stage-1 nomination skip empty ports entirely (the
    /// dominant case at low load, where most cycles see one busy port).
    port_occ: PortMap<usize>,
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
        assert!(
            layout.depth_of.iter().all(|&d| d <= u16::MAX as usize),
            "ring indices are u16"
        );
        let d_min = layout.depth_of.iter().copied().min().unwrap_or(0);
        let mut tail_off = Vec::with_capacity(total);
        let mut tail_span = 0u32;
        for d in &layout.depth_of {
            tail_off.push(tail_span);
            tail_span += (*d - d_min) as u32;
        }
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
        let expected = lanes * d_min + PORTS * tail_span as usize;
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
            d_min: d_min as u16,
            tail_span,
            tail_off: tail_off.into_boxed_slice(),
            in_present,
            out_present,
            flits,
            lanes: (0..lanes)
                .map(|l| Lane::empty(layout.depth_of[l % total]))
                .collect(),
            route_packet: vec![None; if config.faults.is_empty() { 0 } else { lanes }]
                .into_boxed_slice(),
            occ_bits: [0; PORTS],
            alloc_bits: [0; DIRS],
            credits: credits.into_boxed_slice(),
            input_arb,
            output_arb,
            inject_vc: vec![None; config.vnet_count()],
            inject_rr: vec![0; config.vnet_count()],
            options,
            occ: 0,
            port_occ: PortMap::default(),
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

    /// Slab index of ring position `k` of lane `lane` (DESIGN.md §16.1).
    /// The first `d_min` positions of every lane are row-major — position
    /// `k` of all `L = 5·total` lanes forms row `k` — so the live flits of
    /// a lightly loaded router share the first rows. A deeper VC's
    /// positions `d_min..` sit in its port's tail region after the rows.
    #[inline]
    fn slot(&self, lane: usize, k: usize) -> usize {
        let d_min = self.d_min as usize;
        if k < d_min {
            k * PORTS * self.total + lane
        } else {
            let (pi, vc) = (lane / self.total, lane % self.total);
            let rows = d_min * PORTS * self.total;
            rows + pi * self.tail_span as usize + self.tail_off[vc] as usize + (k - d_min)
        }
    }

    /// Copy of the head-of-queue flit of a non-empty lane.
    #[inline]
    fn front(&self, pi: usize, vc: usize) -> Flit {
        let lane = pi * self.total + vc;
        debug_assert!(self.lanes[lane].len > 0, "front of empty lane");
        self.flits[self.slot(lane, self.lanes[lane].head as usize)]
    }

    /// Appends to a lane's ring; the caller has already checked depth.
    #[inline]
    fn push_lane(&mut self, pi: usize, vc: usize, flit: Flit) {
        let lane = pi * self.total + vc;
        let Lane {
            head, len, depth, ..
        } = self.lanes[lane];
        debug_assert!(len < depth, "lane overflow");
        let mut k = (head + len) as usize;
        if k >= depth as usize {
            k -= depth as usize;
        }
        let i = self.slot(lane, k);
        self.flits[i] = flit;
        self.lanes[lane].len = len + 1;
        self.occ_bits[pi] |= 1 << vc;
    }

    /// Pops a lane's head flit, maintaining the occupancy bitword. A lane
    /// that empties rewinds its head to position 0, the first row.
    #[inline]
    fn pop_lane(&mut self, pi: usize, vc: usize) -> Flit {
        let lane = pi * self.total + vc;
        let Lane {
            head, len, depth, ..
        } = self.lanes[lane];
        let f = self.flits[self.slot(lane, head as usize)];
        let l = &mut self.lanes[lane];
        l.len = len - 1;
        if l.len == 0 {
            l.head = 0;
            self.occ_bits[pi] &= !(1u64 << vc);
        } else {
            l.head = if head + 1 >= depth { 0 } else { head + 1 };
        }
        f
    }

    /// Whether the network injects link faults: a dropped head or tail
    /// orphans the rest of its wormhole, so HoQ body flits may legally
    /// need a fresh route (every flit carries its destination), and each
    /// lane's route owner is kept to detect the stale hold a dropped tail
    /// leaves. Faults are also the only way into the degraded paths.
    #[inline]
    fn tolerate_orphans(&self) -> bool {
        !self.route_packet.is_empty()
    }

    /// Records `owner` as the packet holding `lane`'s route (a no-op
    /// without faults, where no owner is kept).
    #[inline]
    fn set_route_owner(&mut self, lane: usize, owner: Option<PacketId>) {
        if let Some(slot) = self.route_packet.get_mut(lane) {
            *slot = owner;
        }
    }

    /// Releases a lane's open route: frees the downstream VC allocation (if
    /// any) and clears the route/out-VC/owner fields.
    #[inline]
    fn release_lane_route(&mut self, lane: usize) {
        let Lane { route, out_vc, .. } = self.lanes[lane];
        if (route as usize) < DIRS && out_vc != NONE8 {
            self.alloc_bits[route as usize] &= !(1u64 << out_vc);
        }
        self.lanes[lane].route = NONE8;
        self.lanes[lane].out_vc = NONE8;
        self.set_route_owner(lane, None);
    }

    /// Stage 1 of separable switch allocation, one pass per input port
    /// over its occupancy word. Each occupied lane that lacks a route or a
    /// downstream VC gets them here (zero-cycle VC allocation); off the
    /// clean, orphan-free path every lane re-checks its open route. A lane
    /// then requests the switch when its route is Local, or a network route
    /// whose allocated downstream VC has credits — unless that output is
    /// mid-resync-handshake, where sending before the CreditResync lands
    /// would break its nothing-in-flight precondition. Each port with a
    /// request nominates one lane through its round-robin arbiter.
    fn nominate(&mut self) -> Nominations {
        let clean = self.fa.is_clean();
        let recheck = self.tolerate_orphans() || !clean;
        let wait = self.resync.wait_mask();
        let total = self.total;
        let mut noms = Nominations::default();
        for (pi, port) in PortId::ALL.into_iter().enumerate() {
            let mut occ = self.occ_bits[pi];
            let mut mask = 0u64;
            while occ != 0 {
                let vc = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let l = pi * total + vc;
                if (recheck || self.lanes[l].unallocated()) && !self.allocate_lane(pi, vc, clean) {
                    continue;
                }
                let Lane { route, out_vc, .. } = self.lanes[l];
                let r = route as usize;
                let request = if r < DIRS {
                    wait >> r & 1 == 0
                        && out_vc != NONE8
                        && self.credits[r * total + out_vc as usize] > 0
                } else {
                    debug_assert_eq!(r, PortId::Local.index(), "an allocated lane has a route");
                    true
                };
                mask |= (request as u64) << vc;
            }
            if mask != 0 {
                let arb = self.input_arb[port].as_mut().expect("arb exists with port");
                let vc = arb.grant_masked(mask).expect("a lane requests");
                self.counters.arbitrations += 1;
                noms.nominate(pi, vc, self.lanes[pi * total + vc].route as usize);
            }
        }
        noms
    }

    /// Route computation and zero-cycle VC allocation for one occupied
    /// lane, from the flit at its head. False when that flit's destination
    /// has no alive path: the lane stays unrouted, out of arbitration,
    /// until the unreachable sweep at the top of a later step drops the
    /// packet into the structured NACK/retransmit path.
    fn allocate_lane(&mut self, pi: usize, vc: usize, clean: bool) -> bool {
        let lane = pi * self.total + vc;
        let hoq = self.front(pi, vc);
        if self.tolerate_orphans()
            && self.lanes[lane].route != NONE8
            && self.route_packet[lane] != Some(hoq.packet)
        {
            // A dropped tail left the route open for a packet that has
            // already drained: release the stale downstream VC (otherwise
            // the next packet would follow the old route, possibly into a
            // wrong Local ejection) and re-route by the flit now at HoQ.
            self.release_lane_route(lane);
        }
        if !clean {
            let r = self.lanes[lane].route;
            if (r as usize) < DIRS && self.fa.dead_out(Direction::ALL[r as usize]) {
                // The packet's allocated output link died under it:
                // release the downstream VC (its credits are lost with the
                // link anyway) and re-route the remaining flits around the
                // fault.
                self.release_lane_route(lane);
            }
        }
        if self.lanes[lane].route == NONE8 {
            debug_assert!(
                self.tolerate_orphans() || hoq.is_head(),
                "non-head flit {hoq} at HoQ without a route (VC hold violated)"
            );
            let Some(route) = self.route_of(&hoq, clean) else {
                return false;
            };
            self.lanes[lane].route = route;
            self.set_route_owner(lane, Some(hoq.packet));
        }
        let r = self.lanes[lane].route as usize;
        if r < DIRS && self.lanes[lane].out_vc == NONE8 {
            debug_assert!(self.out_present[r], "route goes to an existing neighbor");
            if let Some(i) = self.free_out_vc(r, hoq.vnet.index()) {
                self.alloc_bits[r] |= 1u64 << i;
                self.lanes[lane].out_vc = i as u8;
                self.counters.vc_allocations += 1;
            }
        }
        true
    }

    /// Output port ([`PortId`] index) of `flit` from this node: DOR while
    /// the fault view is clean, the alive-graph table otherwise (counting a
    /// detour off DOR as a reroute); `None` when no alive path exists.
    fn route_of(&mut self, flit: &Flit, clean: bool) -> Option<u8> {
        let dor = match flit.dest == self.node {
            true => None,
            false => Some(match self.options.routing {
                RoutingAlgorithm::XFirst => self
                    .mesh
                    .dor_route_from(self.at, flit.dest)
                    .expect("non-local destination has a DOR direction"),
                RoutingAlgorithm::YFirst => self
                    .mesh
                    .dor_route_yx(self.node, flit.dest)
                    .expect("non-local destination has a DOR direction"),
            }),
        };
        let dir = if clean {
            dor
        } else {
            match self.fa.route(flit.dest) {
                RouteOutcome::Local => None,
                RouteOutcome::Dir(d) => {
                    if Some(d) != dor {
                        self.counters.reroutes += 1;
                    }
                    Some(d)
                }
                RouteOutcome::Unreachable => return None,
            }
        };
        Some(dir.map_or(PortId::Local.index(), Direction::index) as u8)
    }

    /// First unallocated downstream VC of `vnet`'s range toward output
    /// direction `r` (ascending); atomic buffers additionally require a
    /// full credit pool.
    fn free_out_vc(&self, r: usize, vnet: usize) -> Option<usize> {
        let mut free = !self.alloc_bits[r] & range_mask(&self.layout.range_of[vnet]);
        if !self.options.atomic_vc_reallocation {
            return (free != 0).then(|| free.trailing_zeros() as usize);
        }
        while free != 0 {
            let i = free.trailing_zeros() as usize;
            free &= free - 1;
            if self.credits[r * self.total + i] as usize == self.layout.depth_of[i] {
                return Some(i);
            }
        }
        None
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
                while self.lanes[lane].len > 0 {
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
                    while self.lanes[lane].len > 0 && self.front(pi, vci).packet == packet {
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

    /// One router cycle around the stage-1 kernel `nominate` (the lockstep
    /// tests swap in the two-pass reference): the fault prologue, stage 1,
    /// the shared stage-2 kernel, then switch traversal of the winners.
    #[inline]
    fn step_with(
        &mut self,
        out: &mut RouterOutputs,
        nominate: impl FnOnce(&mut Self) -> Nominations,
    ) {
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

        let noms = nominate(self);
        if noms.is_empty() && self.occupancy() > 0 {
            // Flits are buffered, but every one of them is blocked on
            // downstream credits.
            self.counters.credit_stall_cycles += 1;
        }
        let present = (0..DIRS).fold(1 << PortId::Local.index(), |m, di| {
            m | (self.out_present[di] as u8) << di
        });
        let grants = noms.grant(&mut self.output_arb, present, self.eject_bandwidth);
        self.counters.arbitrations += grants.as_slice().len() as u64;

        // Traversal: pop winners, emit flits/credits, update VC state.
        let total = self.total;
        for &(i, vc, o) in grants.as_slice() {
            let (pi, vc) = (i as usize, vc as usize);
            let in_port = PortId::ALL[pi];
            let lane = pi * total + vc;
            let was_alone = self.lanes[lane].len == 1;
            let mut flit = self.pop_lane(pi, vc);
            self.occ -= 1;
            self.port_occ[in_port] -= 1;
            let out_vc = self.lanes[lane].out_vc;
            if flit.is_tail() {
                self.lanes[lane].route = NONE8;
                self.lanes[lane].out_vc = NONE8;
                self.set_route_owner(lane, None);
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
            match PortId::ALL[o as usize] {
                PortId::Local => {
                    out.ejected.push(flit);
                    self.counters.ejections += 1;
                }
                out_port @ PortId::Net(d) => {
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
        let lane = self.lanes[pi * self.total + vc];
        assert!(
            lane.len < lane.depth,
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
        let lane_free = |vc: usize| {
            let lane = self.lanes[pi * self.total + vc];
            lane.len < lane.depth
        };
        match self.inject_vc[vnet] {
            Some(vc) => lane_free(vc),
            None => {
                // Under fault injection, a corruption NACK without recovery
                // configured re-injects a lone mid-packet flit; it routes by
                // its own destination like any other orphan.
                debug_assert!(
                    flit.is_head() || self.tolerate_orphans(),
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
                        let lane = self.lanes[pi * self.total + vc];
                        lane.len < lane.depth
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
        self.step_with(out, Self::nominate);
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.layout.vnet_of.capacity()
            + self.layout.depth_of.capacity() * size_of::<usize>()
            + self.layout.range_of.capacity() * size_of::<std::ops::Range<usize>>()
            + self.tail_off.len() * size_of::<u32>()
            + self.flits.len() * size_of::<Flit>()
            + self.lanes.len() * size_of::<Lane>()
            + self.route_packet.len() * size_of::<Option<PacketId>>()
            + self.credits.len() * size_of::<u16>()
            + self.inject_vc.capacity() * size_of::<Option<usize>>()
            + self.inject_rr.capacity() * size_of::<usize>()
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
            self.lanes.iter().map(|l| l.len as usize).sum::<usize>(),
            "incremental occupancy out of sync at {}",
            self.node
        );
        debug_assert!(
            PortId::ALL.into_iter().all(|p| {
                let pi = p.index();
                self.port_occ[p]
                    == self.lanes[pi * self.total..(pi + 1) * self.total]
                        .iter()
                        .map(|l| l.len as usize)
                        .sum::<usize>()
            }),
            "incremental per-port occupancy out of sync at {}",
            self.node
        );
        debug_assert!(
            (0..PORTS).all(|pi| {
                (0..self.total).all(|vc| {
                    (self.occ_bits[pi] >> vc & 1 != 0) == (self.lanes[pi * self.total + vc].len > 0)
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

    fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        // Identical byte stream to the pre-slab layout: lanes visit in the
        // same (port, vc) order the per-VC vectors iterated, flits in FIFO
        // order from each ring's head.
        let some = |v: u8| (v != NONE8).then_some(v);
        for pi in (0..PORTS).filter(|&pi| self.in_present[pi]) {
            for vc in 0..self.total {
                let lane = pi * self.total + vc;
                let Lane {
                    head,
                    len,
                    depth,
                    route,
                    out_vc,
                } = self.lanes[lane];
                let (h, n, depth) = (head as usize, len as usize, depth as usize);
                n.put(w);
                (0..n).for_each(|k| self.flits[self.slot(lane, (h + k) % depth)].put(w));
                some(route).put(w);
                some(out_vc).map(u64::from).put(w);
                if self.tolerate_orphans() {
                    self.route_packet[lane].put(w);
                }
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
                let depth = self.lanes[lane].depth as usize;
                let n = r.get_index(depth + 1, "input vc queue length")?;
                for k in 0..n {
                    let i = self.slot(lane, k);
                    self.flits[i].load(r)?;
                }
                (self.lanes[lane].head, self.lanes[lane].len) = (0, n as u16);
                self.occ_bits[pi] |= ((n > 0) as u64) << vc;
                self.occ += n;
                self.port_occ[port] += n;
                self.lanes[lane].route = match Option::<u8>::get(r)? {
                    None => NONE8,
                    Some(p) if (p as usize) < PORTS => p,
                    Some(_) => {
                        return Err(SnapshotError::Malformed {
                            what: "input vc route",
                        })
                    }
                };
                self.lanes[lane].out_vc =
                    get_vc(r, total, "input vc out-vc")?.map_or(NONE8, |v| v as u8);
                if let Some(owner) = self.route_packet.get_mut(lane) {
                    owner.load(r)?;
                }
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
        self.lanes[port.index() * self.total + vc].len as usize
    }

    /// Ring capacity of VC `vc` (identical across ports).
    fn lane_depth(&self, vc: usize) -> usize {
        self.layout.depth_of[vc]
    }

    /// Ring position of one input lane's head flit.
    fn lane_head(&self, port: PortId, vc: usize) -> usize {
        self.lanes[port.index() * self.total + vc].head as usize
    }

    /// One input lane's flits in FIFO order, read through [`Self::slot`].
    fn lane_flits(&self, port: PortId, vc: usize) -> Vec<Flit> {
        let lane = port.index() * self.total + vc;
        let Lane {
            head, len, depth, ..
        } = self.lanes[lane];
        (0..len as usize)
            .map(|k| self.flits[self.slot(lane, (head as usize + k) % depth as usize)])
            .collect()
    }

    /// Reference stage 1: the two-pass allocator the one-pass
    /// [`Self::nominate`] replaced — route and VC allocation for every
    /// head-of-queue flit, then an eligibility mask per port — for the
    /// lockstep tests.
    fn nominate_two_pass(&mut self) -> Nominations {
        self.allocate_routes_and_vcs();
        let mut noms = Nominations::default();
        for port in PortId::ALL {
            let pi = port.index();
            if self.occ_bits[pi] == 0 {
                continue;
            }
            let mask = self.eligible_mask(pi);
            if mask == 0 {
                continue;
            }
            let arb = self.input_arb[port].as_mut().expect("arb exists with port");
            if let Some(vc) = arb.grant_masked(mask) {
                noms.nominate(pi, vc, self.lanes[pi * self.total + vc].route as usize);
            }
            self.counters.arbitrations += 1;
        }
        noms
    }

    /// Zero-cycle VC allocation + route computation for every head-of-queue
    /// flit (reference pass 1).
    fn allocate_routes_and_vcs(&mut self) {
        let clean = self.fa.is_clean();
        let total = self.total;
        for pi in 0..PORTS {
            let mut occ = self.occ_bits[pi];
            while occ != 0 {
                let vc = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let lane = pi * total + vc;
                let hoq = self.front(pi, vc);
                if self.tolerate_orphans()
                    && self.lanes[lane].route != NONE8
                    && self.route_packet[lane] != Some(hoq.packet)
                {
                    self.release_lane_route(lane);
                }
                if !clean {
                    let r = self.lanes[lane].route;
                    if (r as usize) < DIRS && self.fa.dead_out(Direction::ALL[r as usize]) {
                        self.release_lane_route(lane);
                    }
                }
                if self.lanes[lane].route == NONE8 {
                    let dor = match hoq.dest == self.node {
                        true => None,
                        false => Some(match self.options.routing {
                            RoutingAlgorithm::XFirst => {
                                self.mesh.dor_route_from(self.at, hoq.dest).unwrap()
                            }
                            RoutingAlgorithm::YFirst => {
                                self.mesh.dor_route_yx(self.node, hoq.dest).unwrap()
                            }
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
                            RouteOutcome::Unreachable => continue,
                        }
                    };
                    self.lanes[lane].route = match dir {
                        Some(d) => d.index() as u8,
                        None => PortId::Local.index() as u8,
                    };
                    self.set_route_owner(lane, Some(hoq.packet));
                }
                let r = self.lanes[lane].route as usize;
                if r < DIRS && self.lanes[lane].out_vc == NONE8 {
                    let range = &self.layout.range_of[hoq.vnet.index()];
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
                        self.lanes[lane].out_vc = i as u8;
                        self.counters.vc_allocations += 1;
                    }
                }
            }
        }
    }

    /// Stage-1 eligibility word for input port `pi` (reference pass 2).
    fn eligible_mask(&self, pi: usize) -> u64 {
        let total = self.total;
        let mut mask = 0u64;
        let mut occ = self.occ_bits[pi];
        while occ != 0 {
            let vc = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let lane = pi * total + vc;
            let r = self.lanes[lane].route as usize;
            if r < DIRS {
                if self.resync.wait_mask() >> r & 1 != 0 {
                    continue;
                }
                let ovc = self.lanes[lane].out_vc;
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
    use std::collections::VecDeque;

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
        // `port_of[id]`: the input port packet `id` arrived on.
        let mut port_of: Vec<usize> = Vec::new();
        for now in 0..400 {
            // Keep both ports' VC 0 topped up.
            for (i, d) in [Direction::West, Direction::North].into_iter().enumerate() {
                if r.lane_len(PortId::Net(d), 0) < r.lane_depth(0) {
                    let mut f = flit_to(dest, 0, 0, 1);
                    f.packet = PacketId(port_of.len() as u64);
                    port_of.push(i);
                    r.receive_flit(PortId::Net(d), f, now);
                }
            }
            out.clear();
            r.step(now, &mut rng, &mut out);
            if let Some(f) = out.flits[PortId::Net(Direction::East)] {
                wins[port_of[f.packet.0 as usize]] += 1;
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
        // wraps while the lane holds flits, then check FIFO order survives
        // and a snapshot of the wrapped ring round-trips to identical bytes
        // (the snapshot stream is logical FIFO content, independent of head
        // position). A lane that empties rewinds its head, so a one-in /
        // one-out stream alone would never wrap: two arrivals per cycle for
        // the first `depth / 2` cycles leave a standing backlog first.
        let (mesh, cfg, mut r) = setup();
        let west = PortId::Net(Direction::West);
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        let depth = cfg.vnets[0].buffer_depth;
        let mut rng = SimRng::seed_from(0);
        let mut out = RouterOutputs::new();
        let mut sent: Vec<u64> = Vec::new();
        let mut next = 0u64;
        let mut wrapped = false;
        for now in 0..(4 * depth as u64) {
            let arrivals = if now < depth as u64 / 2 { 2 } else { 1 };
            for _ in 0..arrivals {
                if r.lane_len(west, 0) < depth {
                    let mut f = flit_to(dest, 0, 0, 1);
                    f.packet = PacketId(next);
                    next += 1;
                    r.receive_flit(west, f, now);
                }
            }
            let before = r.lane_head(west, 0);
            out.clear();
            r.step(now, &mut rng, &mut out);
            if let Some(f) = out.flits[PortId::Net(Direction::East)] {
                sent.push(f.packet.0);
                r.receive_credit(PortId::Net(Direction::East), Credit::Vc(f.vc.unwrap()), now);
            }
            // The head left position `depth - 1` for 0 by a pop that kept
            // the lane non-empty: a true wrap, not a rewind.
            wrapped |= before == depth - 1 && r.lane_head(west, 0) == 0 && r.lane_len(west, 0) > 0;
        }
        assert!(wrapped, "the head must wrap while the lane holds flits");
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

    /// A 3×3 paper configuration whose vnets have these `(vcs, depth)`.
    fn depths_config(vnets: &[(usize, usize)]) -> NetworkConfig {
        use afc_netsim::config::{VnetClass, VnetConfig};
        NetworkConfig {
            vnets: vnets
                .iter()
                .map(|&(vcs, buffer_depth)| VnetConfig {
                    class: VnetClass::Control,
                    vcs,
                    buffer_depth,
                })
                .collect(),
            ..NetworkConfig::paper_3x3()
        }
    }

    /// The lane section of `save_state`'s stream, written from per-lane
    /// reference queues plus the router's route state.
    fn reference_lane_bytes(r: &BackpressuredRouter, reference: &[VecDeque<Flit>]) -> Vec<u8> {
        let some = |v: u8| (v != NONE8).then_some(v);
        let mut w = SnapshotWriter::new();
        for pi in (0..PORTS).filter(|&pi| r.in_present[pi]) {
            for vc in 0..r.total {
                let lane = pi * r.total + vc;
                reference[lane].len().put(&mut w);
                reference[lane].iter().for_each(|f| f.put(&mut w));
                some(r.lanes[lane].route).put(&mut w);
                some(r.lanes[lane].out_vc).map(u64::from).put(&mut w);
                if r.tolerate_orphans() {
                    r.route_packet[lane].put(&mut w);
                }
            }
        }
        w.into_bytes()
    }

    /// Every lane of `r` holds exactly its reference queue, in FIFO order,
    /// with matching length and occupancy bit; a drained lane's head is 0.
    fn assert_lanes_match(r: &BackpressuredRouter, reference: &[VecDeque<Flit>], at: &str) {
        for port in PortId::ALL {
            let pi = port.index();
            for vc in 0..r.total {
                let want = &reference[pi * r.total + vc];
                assert_eq!(
                    r.lane_len(port, vc),
                    want.len(),
                    "{at}: {port} vc {vc} length"
                );
                assert_eq!(
                    r.occ_bits[pi] >> vc & 1 != 0,
                    !want.is_empty(),
                    "{at}: {port} vc {vc} occupancy bit"
                );
                assert_eq!(
                    r.lane_flits(port, vc),
                    want.iter().copied().collect::<Vec<_>>(),
                    "{at}: {port} vc {vc} FIFO content"
                );
                if want.is_empty() {
                    assert_eq!(r.lane_head(port, vc), 0, "{at}: drained lane rewinds");
                }
            }
        }
    }

    #[test]
    fn ring_addressing_matches_per_lane_fifos_under_random_traffic() {
        // Uniform depth 8 (the paper's 2+2+4 VCs), non-uniform 2/5/8 and
        // 1/3 (tail regions), and depth 1 everywhere.
        let configs = [
            NetworkConfig::paper_3x3(),
            depths_config(&[(2, 2), (1, 5), (2, 8)]),
            depths_config(&[(2, 1), (3, 3)]),
            depths_config(&[(2, 1), (2, 1)]),
        ];
        for (ci, cfg) in configs.iter().enumerate() {
            let mesh = cfg.mesh().unwrap();
            let node = mesh.node_at(Coord::new(1, 1)).unwrap();
            let mut r = BackpressuredRouter::new(node, &mesh, cfg);
            let total = r.total;
            let lanes = PORTS * total;

            // Layout pin: position 0 of every lane is row 0, slab index
            // `lane`; under uniform depth every position `k` is row `k`;
            // and the slots of all lanes tile the slab exactly once.
            let mut owner = vec![None; r.flits.len()];
            for lane in 0..lanes {
                assert_eq!(r.slot(lane, 0), lane, "config {ci}: row 0");
                for k in 0..r.layout.depth_of[lane % total] {
                    let i = r.slot(lane, k);
                    if r.tail_span == 0 {
                        assert_eq!(i, k * lanes + lane, "config {ci}: uniform rows");
                    }
                    assert_eq!(
                        owner[i].replace((lane, k)),
                        None,
                        "config {ci}: slot {i} reused"
                    );
                }
            }
            assert!(
                owner.iter().all(Option::is_some),
                "config {ci}: slab has unused slots"
            );

            let mut rng = SimRng::seed_from(0x51_07 + ci as u64);
            let mut out = RouterOutputs::new();
            let mut reference = vec![VecDeque::new(); lanes];
            // Open packet per lane: (packet, next seq, len, dest).
            let mut open: Vec<Option<(u64, u16, u16, NodeId)>> = vec![None; lanes];
            // `lane_of[id]`: the lane packet `id` is written to (ids from 1).
            let mut lane_of: Vec<usize> = vec![usize::MAX];
            let mut received = 0usize;
            let mut withheld: Vec<(Direction, VcId)> = Vec::new();
            let mut next_packet = 0u64;
            // Coverage: some lane's head wrapped while it held flits, and
            // (non-uniform depths) some lane reached its tail region.
            let (mut wrapped, mut deepest) = (false, 0);
            for now in 0..600u64 {
                for _ in 0..rng.gen_index(4) {
                    let port = PortId::ALL[rng.gen_index(PORTS)];
                    let vc = rng.gen_index(total);
                    let lane = port.index() * total + vc;
                    if reference[lane].len() == r.layout.depth_of[vc] {
                        continue;
                    }
                    let (packet, seq, len, dest) = *open[lane].get_or_insert_with(|| {
                        next_packet += 1;
                        lane_of.push(lane);
                        let len = 1 + rng.gen_index(3) as u16;
                        (next_packet, 0, len, NodeId::new(rng.gen_index(9)))
                    });
                    let mut f = Flit::test_flit(PacketId(packet), node, dest);
                    (f.seq, f.len, f.vc) = (seq, len, Some(VcId(vc as u8)));
                    f.vnet = VirtualNetwork(r.layout.vnet_of[vc]);
                    open[lane] = (seq + 1 < len).then_some((packet, seq + 1, len, dest));
                    r.receive_flit(port, f, now);
                    reference[lane].push_back(f);
                    received += 1;
                }
                assert_lanes_match(&r, &reference, &format!("config {ci} cycle {now} arrivals"));

                let heads: Vec<u16> = r.lanes.iter().map(|l| l.head).collect();
                deepest = deepest.max(r.lanes.iter().map(|l| l.len).max().unwrap_or(0) as usize);
                out.clear();
                r.step(now, &mut rng, &mut out);
                wrapped |= (0..lanes).any(|l| r.lanes[l].head < heads[l] && r.lanes[l].len > 0);
                let mut left: Vec<Flit> = out.ejected.clone();
                for d in Direction::ALL {
                    if let Some(f) = out.flits[PortId::Net(d)] {
                        withheld.push((d, f.vc.unwrap()));
                        left.push(f);
                    }
                }
                // A flit is told apart by its packet and sequence number.
                for f in left {
                    let popped = reference[lane_of[f.packet.0 as usize]].pop_front();
                    assert_eq!(
                        popped.map(|p| (p.packet, p.seq)),
                        Some((f.packet, f.seq)),
                        "config {ci}: FIFO order"
                    );
                }
                // Downstream frees slots at random, so lanes back up.
                withheld.retain(|&(d, vc)| {
                    let keep = rng.gen_bool(0.6);
                    if !keep {
                        r.receive_credit(PortId::Net(d), Credit::Vc(vc), now);
                    }
                    keep
                });
                let at = format!("config {ci} cycle {now} step");
                assert_lanes_match(&r, &reference, &at);

                let mut w = SnapshotWriter::new();
                r.save_state(&mut w).unwrap();
                let bytes = w.into_bytes();
                assert!(
                    bytes.starts_with(&reference_lane_bytes(&r, &reference)),
                    "{at}: save_state lane bytes"
                );
                if now % 50 == 0 {
                    let mut back = BackpressuredRouter::new(node, &mesh, cfg);
                    back.load_state(&mut SnapshotReader::new(&bytes)).unwrap();
                    assert_lanes_match(&back, &reference, &format!("{at} restored"));
                    let mut w = SnapshotWriter::new();
                    back.save_state(&mut w).unwrap();
                    assert_eq!(w.into_bytes(), bytes, "{at}: restored bytes");
                }
            }
            assert!(received > 300, "config {ci}: too little traffic");
            let max_depth = r.layout.depth_of.iter().copied().max().unwrap_or(0);
            assert!(wrapped || max_depth == 1, "config {ci}: no head wrapped");
            assert!(
                deepest > r.d_min as usize || r.tail_span == 0,
                "config {ci}: tails unused"
            );
        }
    }

    /// `a` and `b` emitted the same outputs this cycle.
    fn assert_outputs_eq(a: &RouterOutputs, b: &RouterOutputs, at: &str) {
        assert_eq!(a.flits, b.flits, "{at}: flits");
        assert_eq!(a.credits, b.credits, "{at}: credits");
        assert_eq!(a.control, b.control, "{at}: control");
        assert_eq!(a.ejected, b.ejected, "{at}: ejected");
        assert_eq!(a.dropped, b.dropped, "{at}: dropped");
    }

    fn state_bytes(r: &BackpressuredRouter) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        r.save_state(&mut w).unwrap();
        w.into_bytes()
    }

    /// What one lockstep run exercised.
    #[derive(Debug, Default)]
    struct Coverage {
        grants: u64,
        stalls: u64,
        reroutes: u64,
        dropped: usize,
        resync_waits: u64,
        stale_routes: u64,
    }

    /// Drives a router stepping with the one-pass [`BackpressuredRouter::nominate`]
    /// beside a twin stepping with the two-pass reference, through the same
    /// random arrivals, injections, withheld credits and (with `faults`)
    /// link kills and revivals with their re-sync handshakes, orphaned
    /// body flits and abandoned packets. Every step's outputs, counters
    /// and `save_state` bytes must be equal.
    fn lockstep_one_pass(
        cfg: &NetworkConfig,
        at: Coord,
        options: BackpressuredOptions,
        faults: bool,
        seed: u64,
    ) -> Coverage {
        let mesh = cfg.mesh().unwrap();
        let node = mesh.node_at(at).unwrap();
        let build = || {
            let mut r = BackpressuredRouter::with_options(node, &mesh, cfg, options);
            // Fault handling as the network's fault plan would switch it on.
            let owners = if faults { r.lanes.len() } else { 0 };
            r.route_packet = vec![None; owners].into_boxed_slice();
            r
        };
        let (mut a, mut b) = (build(), build());
        let total = a.total;
        // Local lanes fill through `inject`, which picks their VCs.
        let ports: Vec<PortId> = PortId::ALL
            .into_iter()
            .filter(|p| p.is_network() && a.in_present[p.index()])
            .collect();
        let links: Vec<(NodeId, Direction)> = mesh
            .nodes()
            .flat_map(|n| Direction::ALL.map(|d| (n, d)))
            .filter(|&(n, d)| mesh.neighbor(n, d).is_some())
            .collect();
        // Kills hit this router's own outputs or the links into the far
        // corner, whose loss cuts it off.
        let far = mesh.node_at(Coord::new(2, 2)).unwrap();
        let own: Vec<usize> = (0..links.len()).filter(|&i| links[i].0 == node).collect();
        let into_far: Vec<usize> = (0..links.len())
            .filter(|&i| mesh.neighbor(links[i].0, links[i].1) == Some(far))
            .collect();
        let mut epoch = vec![0u32; links.len()];
        let mut rng = SimRng::seed_from(seed);
        let (mut out_a, mut out_b) = (RouterOutputs::new(), RouterOutputs::new());
        // Open packet per input lane and per injection vnet: (packet, next
        // seq, len, dest).
        let mut open: Vec<Option<(u64, u16, u16, NodeId)>> = vec![None; PORTS * total];
        let mut inject_open: Vec<Option<(u64, u16, u16, NodeId)>> = vec![None; cfg.vnets.len()];
        let mut next_packet = 0u64;
        let mut withheld: Vec<(Direction, VcId)> = Vec::new();
        let mut cov = Coverage::default();
        let mut new_packet = |rng: &mut SimRng| {
            next_packet += 1;
            let len = 1 + rng.gen_index(4) as u16;
            (
                next_packet,
                0,
                len,
                NodeId::new(rng.gen_index(mesh.node_count())),
            )
        };
        let flit_of = |(packet, seq, len, dest): (u64, u16, u16, NodeId)| {
            let mut f = Flit::test_flit(PacketId(packet), node, dest);
            (f.seq, f.len) = (seq, len);
            f
        };
        for now in 0..3000u64 {
            let at = format!("{at:?} {options:?} faults={faults} cycle {now}");
            for _ in 0..rng.gen_index(5) {
                let port = ports[rng.gen_index(ports.len())];
                let vc = rng.gen_index(total);
                let lane = port.index() * total + vc;
                if a.lanes[lane].len == a.lanes[lane].depth {
                    continue;
                }
                if faults && open[lane].is_some() && rng.gen_bool(0.1) {
                    // The rest of this packet was lost upstream: its route
                    // stays open behind the next packet.
                    open[lane] = None;
                }
                let mut p = *open[lane].get_or_insert_with(|| new_packet(&mut rng));
                if faults && p.1 == 0 && rng.gen_bool(0.05) {
                    // A lost head: the packet arrives as an orphan body.
                    p.1 = 1;
                    p.2 = p.2.max(2);
                }
                let mut f = flit_of(p);
                (f.vc, f.vnet) = (Some(VcId(vc as u8)), VirtualNetwork(a.layout.vnet_of[vc]));
                open[lane] = (p.1 + 1 < p.2).then_some((p.0, p.1 + 1, p.2, p.3));
                a.receive_flit(port, f, now);
                b.receive_flit(port, f, now);
            }
            for (vnet, slot) in inject_open.iter_mut().enumerate() {
                if !rng.gen_bool(0.3) {
                    continue;
                }
                let p = slot.unwrap_or_else(|| new_packet(&mut rng));
                let mut f = flit_of(p);
                f.vnet = VirtualNetwork(vnet as u8);
                let ready = a.injection_ready(&f, now);
                assert_eq!(ready, b.injection_ready(&f, now), "{at}: injection_ready");
                if ready {
                    a.inject(f, now);
                    b.inject(f, now);
                    *slot = (p.1 + 1 < p.2).then_some((p.0, p.1 + 1, p.2, p.3));
                } else {
                    *slot = Some(p);
                }
            }
            if faults {
                // Up to three links are down at once, each revived at 1.5 % a
                // cycle, so clean spells follow every revival. Odd epochs
                // kill, even ones revive.
                let dead: Vec<usize> = (0..links.len())
                    .filter(|&i| !epoch[i].is_multiple_of(2))
                    .collect();
                let mut flips: Vec<usize> = dead
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(0.015))
                    .collect();
                if dead.len() < 3 && rng.gen_bool(0.02) {
                    let i = match rng.gen_bool(0.5) {
                        true => own[rng.gen_index(own.len())],
                        false => into_far[rng.gen_index(into_far.len())],
                    };
                    if epoch[i].is_multiple_of(2) {
                        flips.push(i);
                    }
                }
                for i in flips {
                    let (n, d) = links[i];
                    epoch[i] += 1;
                    let alive = epoch[i].is_multiple_of(2);
                    a.note_link_event(n, d, epoch[i], alive, now);
                    b.note_link_event(n, d, epoch[i], alive, now);
                }
            }
            for d in Direction::ALL {
                if a.resync.waiting(d) {
                    cov.resync_waits += 1;
                    if rng.gen_bool(0.1) {
                        let i = links.iter().position(|&l| l == (node, d)).unwrap();
                        let signal = ControlSignal::CreditResync {
                            node,
                            dir: d,
                            epoch: epoch[i],
                        };
                        a.receive_control(PortId::Net(d), signal, now);
                        b.receive_control(PortId::Net(d), signal, now);
                        // Credits still owed from before the revival trickle
                        // in during the wait; the confirmation refills the
                        // pool instead.
                        withheld.retain(|&(w, _)| w != d);
                    }
                }
            }
            cov.stale_routes += (0..PORTS * total)
                .filter(|&l| {
                    let (pi, vc) = (l / total, l % total);
                    let owner = a.route_packet.get(l).copied();
                    a.lanes[l].len > 0
                        && a.lanes[l].route != NONE8
                        && owner.is_some_and(|p| p != Some(a.front(pi, vc).packet))
                })
                .count() as u64;

            out_a.clear();
            out_b.clear();
            a.step_with(&mut out_a, BackpressuredRouter::nominate);
            b.step_with(&mut out_b, BackpressuredRouter::nominate_two_pass);
            assert_outputs_eq(&out_a, &out_b, &at);
            assert_eq!(a.counters(), b.counters(), "{at}: counters");
            assert_eq!(state_bytes(&a), state_bytes(&b), "{at}: state bytes");
            cov.dropped += out_a.dropped.len();
            for d in Direction::ALL {
                if let Some(f) = out_a.flits[PortId::Net(d)] {
                    withheld.push((d, f.vc.unwrap()));
                }
            }
            // Downstream frees slots at random, and not at all in every
            // third hundred-cycle window, so lanes back up to stalls.
            let starved = now % 300 >= 200;
            withheld.retain(|&(d, vc)| {
                // A dead link's reverse wire carries no credits.
                let keep = starved || a.fa.dead_out(d) || rng.gen_bool(0.6);
                if !keep {
                    a.receive_credit(PortId::Net(d), Credit::Vc(vc), now);
                    b.receive_credit(PortId::Net(d), Credit::Vc(vc), now);
                }
                keep
            });
        }
        let c = a.counters();
        (cov.grants, cov.stalls, cov.reroutes) =
            (c.crossbar_traversals, c.credit_stall_cycles, c.reroutes);
        cov
    }

    #[test]
    fn one_pass_allocator_matches_two_pass_reference() {
        let uneven = depths_config(&[(2, 2), (1, 5), (2, 8)]);
        let paper = NetworkConfig::paper_3x3();
        let atomic = BackpressuredOptions {
            atomic_vc_reallocation: true,
            ..BackpressuredOptions::default()
        };
        let yx = BackpressuredOptions {
            routing: RoutingAlgorithm::YFirst,
            ..BackpressuredOptions::default()
        };
        let centre = Coord::new(1, 1);
        let cases = [
            (&paper, centre, BackpressuredOptions::default(), false),
            (&paper, Coord::new(0, 0), atomic, false),
            (&paper, centre, yx, false),
            (
                &uneven,
                Coord::new(2, 1),
                BackpressuredOptions::default(),
                false,
            ),
            (&uneven, centre, atomic, true),
            (&paper, centre, yx, true),
            (
                &paper,
                Coord::new(1, 0),
                BackpressuredOptions::default(),
                true,
            ),
        ];
        for (i, &(cfg, at, options, faults)) in cases.iter().enumerate() {
            let cov = lockstep_one_pass(cfg, at, options, faults, 0x1a_5e + i as u64);
            let label = format!("case {i}: {cov:?}");
            assert!(cov.grants > 1000 && cov.stalls > 0, "{label}");
            if faults {
                assert!(cov.reroutes > 0 && cov.dropped > 0, "{label}");
                assert!(cov.resync_waits > 0 && cov.stale_routes > 0, "{label}");
            } else {
                assert_eq!(
                    cov.stale_routes, 0,
                    "{label}: a clean router keeps no route owner to go stale"
                );
            }
        }
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
