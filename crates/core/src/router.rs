//! The AFC router: dual-mode flow control with gossip-induced switching and
//! lazy VC allocation.
//!
//! ## Mode machine (Figure 1 of the paper)
//!
//! ```text
//!                 EWMA > forward threshold ──────────────┐
//!                 (notify neighbors: track credits)      │
//!   ┌──────────────────┐                        ┌────────▼─────────┐
//!   │ Backpressureless │  tracked neighbor's    │  Backpressured   │
//!   │ (deflection,     │  free slots <= X       │  (lazy VCs,      │
//!   │  buffers gated)  │ ─────────────────────► │   per-vnet       │
//!   └────────▲─────────┘  (gossip switch)       │   credits)       │
//!            │                                  └────────┬─────────┘
//!            └── EWMA < reverse threshold and buffers empty
//!                (notify neighbors: stop tracking credits)
//! ```
//!
//! A forward switch initiated at cycle `T` broadcasts the credit-tracking
//! control signal (arriving at the neighbors at `T + L`), keeps deflecting
//! through `T + 2L + 1`, and operates backpressured from `T + 2L + 2` —
//! the `2L`-window of Section III-B widened by the simulator's two cycles
//! of switch-traversal/buffer-write overhead (see the crate-level timing
//! note). Flits a neighbor arbitrates from `T + L` onward arrive at
//! `T + 2L + 2` or later and are therefore exactly the ones covered by
//! credit accounting; the gossip threshold `X = 2L + 2` bounds the flits a
//! still-deflecting neighbor can send before its own forced switch
//! completes, so buffered flits are never overwritten.

use afc_netsim::channel::{ControlSignal, Credit};
use afc_netsim::config::NetworkConfig;
use afc_netsim::counters::ActivityCounters;
use afc_netsim::error::ConfigError;
use afc_netsim::fault_aware::{
    FaultAwareness, FaultBits, LinkUpdate, ResyncHandshake, RouteOutcome,
};
use afc_netsim::flit::{Cycle, Flit, VcId};
use afc_netsim::geom::{Coord, DirMap, Direction, NodeId, PortId, PortMap};
use afc_netsim::rng::SimRng;
use afc_netsim::router::{
    alloc_rings, Router, RouterBank, RouterFactory, RouterMode, RouterOutputs,
};
use afc_netsim::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use afc_netsim::topology::Mesh;
use afc_routers::arbiter::{Nominations, RoundRobin};
use afc_routers::deflection::{LatchBank, Loser};

use crate::config::AfcConfig;
use crate::contention::{ContentionMonitor, LoadLevel};

/// Flit width in bits (32-bit payload + 17 control bits, Section IV).
pub const FLIT_WIDTH_BITS: u32 = 49;

/// Port count (4 directions + local); slab stripes are sized for all five
/// even on edge routers whose boundary ports are absent.
const PORTS: usize = PortId::ALL.len();
const DIRS: usize = Direction::ALL.len();
const LOCAL: usize = PortId::Local.index();

/// The AFC-internal mode, including the forward-transition window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AfcMode {
    /// Deflection routing; buffers power-gated.
    Backpressureless,
    /// Forward switch in progress: still deflecting, neighbors are being
    /// told to start credit tracking.
    SwitchingForward {
        /// Cycle the switch was initiated.
        since: Cycle,
        /// First cycle of backpressured operation.
        complete_at: Cycle,
    },
    /// Credit-based operation over lazy one-flit VCs.
    Backpressured,
}

impl Codec for AfcMode {
    fn put(&self, w: &mut SnapshotWriter) {
        match *self {
            AfcMode::Backpressureless => 0u8.put(w),
            AfcMode::SwitchingForward { since, complete_at } => (1u8, since, complete_at).put(w),
            AfcMode::Backpressured => 2u8.put(w),
        }
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self = match r.get_u8("afc mode tag")? {
            0 => AfcMode::Backpressureless,
            1 => {
                let (since, complete_at) = Codec::get(r)?;
                AfcMode::SwitchingForward { since, complete_at }
            }
            2 => AfcMode::Backpressured,
            _ => {
                return Err(SnapshotError::Malformed {
                    what: "afc mode tag",
                })
            }
        };
        Ok(())
    }
}

/// A point-in-time view of an AFC router's adaptive state, for tooling and
/// debugging.
#[derive(Debug, Clone, PartialEq)]
pub struct AfcSnapshot {
    /// Current mode.
    pub mode: AfcMode,
    /// Smoothed traffic-intensity estimate (flits/cycle).
    pub load: f64,
    /// (forward, reverse) thresholds in effect at this router.
    pub thresholds: (f64, f64),
    /// Per-direction credit tracking: `(tracking?, per-vnet free slots)`.
    pub neighbors: Vec<(Direction, bool, Vec<u64>)>,
    /// Flits currently held (latches + buffers).
    pub occupancy: usize,
    /// The gossip threshold `X`.
    pub gossip_threshold: u64,
}

/// The AFC router.
///
/// `#[repr(C)]`, hot header first and grouped per mode (DESIGN.md §16.1):
/// the fields every cycle reads in either mode (counters, monitor, mode,
/// credit pools, fault and re-sync bits), then those only the
/// backpressured datapath reads (slot words, arbiters, and what a buffer
/// write needs to stamp a flit's route), then the deflection datapath's
/// latch bank. The cold fields behind `bank` are read on construction,
/// mode transitions, faults and snapshots only. The `layout_pins` tests
/// hold the group boundaries and the struct's size.
#[repr(C)]
pub struct AfcRouter {
    counters: ActivityCounters,
    monitor: ContentionMonitor,
    /// Downstream free slots per vnet (meaningful while tracking), one pool
    /// per direction: `credits[dir * vnets + vnet]` (see [`Self::pool`]).
    credits: Box<[u64]>,
    /// Per-vnet lazy VC capacity.
    vnet_capacity: Vec<usize>,
    gossip_x: u64,
    /// Earliest cycle a reverse switch may fire (dwell after the last
    /// forward transition completes).
    reverse_allowed_at: Cycle,
    mode: AfcMode,
    /// Flits received or injected since the last step (traffic-intensity
    /// sample).
    flits_this_cycle: u32,
    /// Whether each downstream neighbor currently requires credit tracking.
    tracking: DirMap<bool>,
    /// `fa`'s clean and gossip bits.
    fault_bits: FaultBits,
    /// `cfg.always_backpressured`: mode decisions are suppressed.
    always_backpressured: bool,
    /// Credit re-sync handshake for revived links (DESIGN.md §15.3): a
    /// held tracked output's pool is zeroed and returns to full only on
    /// the downstream endpoint's confirmation.
    resync: ResyncHandshake,
    /// Flits that arrived into a full bank during a re-sync window
    /// (fault-tolerant configs only); drained into the NACK path at the
    /// next step.
    overflow_scratch: Vec<Flit>,
    // Backpressured mode.
    /// Per-port slot-occupancy bitword (bit = flat slot index).
    occ_bits: [u64; PORTS],
    /// Per-port, per-route occupancy words: bit `s` of
    /// `route_bits[p][r]` is set ⇔ slot `s` of port `p` holds a flit whose
    /// clean (DOR) output is `r` (`Direction` index, or 4 for local
    /// ejection). DOR against a static mesh never changes over a flit's
    /// buffered lifetime, so the route is stamped once, at buffer write; a
    /// port's five words partition its `occ_bits`. Degraded (faulty)
    /// cycles ignore them and ask the alive-graph table per flit.
    route_bits: [[u64; PORTS]; PORTS],
    /// Lazy one-flit VCs for all five ports as one contiguous slab: port
    /// `p`'s flat slot `s` lives at `p * total_slots + s` (flat slot order
    /// is vnet-major). Absent boundary ports keep their always-empty stripe
    /// so addressing stays a single multiply-add.
    slots: Box<[Flit]>,
    /// Flat-slot mask of each vnet's stripe.
    vnet_mask: Box<[u64]>,
    /// Lazy VCs per port (sum of `vnet_capacity`); at most 64 so a port's
    /// occupancy fits one bitword.
    total_slots: usize,
    /// Buffered-flit count across all banks (excludes latches), maintained
    /// incrementally so `occupancy`/`buffers_empty` are O(1) on the hot path.
    buffered: usize,
    eject_bandwidth: usize,
    /// Per-input-port slot arbiters (over a flat (vnet, vc) index).
    input_arb: PortMap<Option<RoundRobin>>,
    /// Per-output-port input arbiters.
    output_arb: PortMap<RoundRobin>,
    /// Which ports exist (local always; boundary dirs vary).
    in_present: [bool; PORTS],
    /// Set when the network injects link faults: the credit re-sync window
    /// of a revived link can deliver an uncredited flit into a full bank,
    /// which is then retired through the NACK path instead of panicking.
    tolerate_faults: bool,
    node: NodeId,
    /// `node`'s coordinate, cached for route computation.
    at: Coord,
    mesh: Mesh,
    // Backpressureless mode.
    /// Backpressureless-mode input latches and the deflection kernel.
    bank: LatchBank,
    // Cold: construction, mode transitions, faults and snapshots.
    transition_len: u64,
    cfg: AfcConfig,
    /// Fault mask, gossip queue and alive-graph routing table (DESIGN.md
    /// §13); clean-state steps are byte-identical to the fault-free build.
    fa: FaultAwareness,
}

impl AfcRouter {
    /// Builds the AFC router for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`AfcConfig::validate`] against `net` — the
    /// factory validates once per network, so this only fires on direct
    /// misuse.
    pub fn new(node: NodeId, mesh: &Mesh, net: &NetworkConfig, cfg: AfcConfig) -> AfcRouter {
        let slots = alloc_rings(cfg.buffer_flits_per_port(net));
        Self::with_rings(node, mesh, net, cfg, slots)
    }

    /// [`Self::new`] around caller-allocated `slots`.
    fn with_rings(
        node: NodeId,
        mesh: &Mesh,
        net: &NetworkConfig,
        cfg: AfcConfig,
        slots: Box<[Flit]>,
    ) -> AfcRouter {
        cfg.validate(net).expect("AFC configuration must be valid");
        let vnet_capacity: Vec<usize> = net.vnets.iter().map(|v| cfg.lazy_vcs(v.class)).collect();
        let total_slots: usize = vnet_capacity.iter().sum();
        assert!(
            total_slots <= 64,
            "occupancy bitwords hold at most 64 lazy VCs per port"
        );
        let expected = PORTS * total_slots;
        assert_eq!(slots.len(), expected, "rings must hold {expected} flits");
        let mut vnet_mask = Vec::with_capacity(vnet_capacity.len());
        let mut off = 0usize;
        for cap in &vnet_capacity {
            vnet_mask.push(if *cap == 0 {
                0
            } else {
                (u64::MAX >> (64 - *cap)) << off
            });
            off += cap;
        }
        let class = mesh.router_class(node);
        let (hi, lo) = cfg.thresholds.for_class(class);
        let monitor = ContentionMonitor::new(hi, lo, cfg.ewma_weight, cfg.load_window);
        let in_present: [bool; PORTS] =
            std::array::from_fn(|i| match PortId::from_index(i).expect("port index") {
                PortId::Local => true,
                PortId::Net(d) => mesh.neighbor(node, d).is_some(),
            });
        let input_arb = PortMap::from_fn(|p| match p {
            PortId::Local => Some(RoundRobin::new(total_slots)),
            PortId::Net(d) => mesh.neighbor(node, d).map(|_| RoundRobin::new(total_slots)),
        });
        let always = cfg.always_backpressured;
        let mut router = AfcRouter {
            counters: ActivityCounters::new(),
            monitor,
            credits: (0..DIRS)
                .flat_map(|_| vnet_capacity.iter().map(|c| *c as u64))
                .collect(),
            vnet_capacity,
            gossip_x: cfg.effective_gossip_threshold(net.link_latency),
            reverse_allowed_at: 0,
            mode: AfcMode::Backpressureless,
            flits_this_cycle: 0,
            tracking: DirMap::default(),
            fault_bits: FaultBits::default(),
            always_backpressured: always,
            resync: ResyncHandshake::default(),
            overflow_scratch: Vec::new(),
            occ_bits: [0; PORTS],
            route_bits: [[0; PORTS]; PORTS],
            slots,
            vnet_mask: vnet_mask.into_boxed_slice(),
            total_slots,
            buffered: 0,
            eject_bandwidth: net.eject_bandwidth,
            input_arb,
            output_arb: PortMap::from_fn(|_| RoundRobin::new(PortId::ALL.len())),
            in_present,
            tolerate_faults: !net.faults.is_empty(),
            node,
            at: mesh.coord(node),
            mesh: mesh.clone(),
            bank: LatchBank::new(node, mesh, cfg.rank_policy, net.eject_bandwidth),
            transition_len: cfg.transition_cycles(net.link_latency),
            fa: FaultAwareness::new(node, mesh.clone()),
            cfg,
        };
        if always {
            // A homogeneous always-backpressured network never exchanges
            // switch notifications, so seed the tracking state directly.
            router.mode = AfcMode::Backpressured;
            for d in Direction::ALL {
                if mesh.neighbor(node, d).is_some() {
                    router.tracking[d] = true;
                }
            }
        }
        router
    }

    /// The node this router serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current AFC mode.
    pub fn afc_mode(&self) -> AfcMode {
        self.mode
    }

    /// Current smoothed traffic intensity.
    pub fn load(&self) -> f64 {
        self.monitor.load()
    }

    /// Captures the adaptive state for inspection.
    pub fn snapshot(&self) -> AfcSnapshot {
        AfcSnapshot {
            mode: self.mode,
            load: self.monitor.load(),
            thresholds: self.monitor.thresholds(),
            neighbors: Direction::ALL
                .into_iter()
                .filter(|d| self.mesh.neighbor(self.node, *d).is_some())
                .map(|d| (d, self.tracking[d], self.pool(d).to_vec()))
                .collect(),
            occupancy: self.occupancy(),
            gossip_threshold: self.gossip_x,
        }
    }

    /// Whether incoming flits are buffered (rather than latched for
    /// deflection) at time `now`. During a forward transition the switch
    /// point is `complete_at`.
    fn buffering(&self, now: Cycle) -> bool {
        match self.mode {
            AfcMode::Backpressured => true,
            AfcMode::SwitchingForward { complete_at, .. } => now >= complete_at,
            AfcMode::Backpressureless => false,
        }
    }

    fn buffers_empty(&self) -> bool {
        debug_assert_eq!(self.buffered == 0, self.occ_bits.iter().all(|b| *b == 0));
        self.buffered == 0
    }

    /// The credit pool toward `d`: free downstream slots per vnet.
    #[inline]
    fn pool(&self, d: Direction) -> &[u64] {
        let n = self.vnet_capacity.len();
        &self.credits[d.index() * n..(d.index() + 1) * n]
    }

    /// Mutable [`Self::pool`].
    #[inline]
    fn pool_mut(&mut self, d: Direction) -> &mut [u64] {
        let n = self.vnet_capacity.len();
        &mut self.credits[d.index() * n..(d.index() + 1) * n]
    }

    /// Clean-mode output of `flit` from this node (`Direction` index, or 4
    /// for local ejection) — the route word its slot bit goes into.
    fn clean_route8(&self, flit: &Flit) -> u8 {
        if flit.dest == self.node {
            PortId::Local.index() as u8
        } else {
            self.mesh
                .dor_route_from(self.at, flit.dest)
                .expect("non-local flit has a route")
                .index() as u8
        }
    }

    /// Free lazy VCs in `vnet` at `port` (test observability).
    #[cfg(test)]
    fn bank_free_in(&self, port: PortId, vnet: usize) -> usize {
        (!self.occ_bits[port.index()] & self.vnet_mask[vnet]).count_ones() as usize
    }

    /// Occupied lazy VCs at `port` (test observability).
    #[cfg(test)]
    fn bank_occupancy(&self, port: PortId) -> usize {
        self.occ_bits[port.index()].count_ones() as usize
    }

    fn buffer_insert(&mut self, port: PortId, flit: Flit) {
        let vnet = flit.vnet.index();
        let pi = port.index();
        if !self.in_present[pi] {
            panic!("flit {flit} arrived on absent port {port}");
        }
        let free = !self.occ_bits[pi] & self.vnet_mask[vnet];
        if free == 0 {
            if self.tolerate_faults {
                // A revived link's re-sync window can deliver an uncredited
                // flit into a full bank (the upstream's pool is zeroed, but
                // a deflection overflow may be forced to sink into the
                // port). Retire it through the structured NACK path — the
                // source NI retransmits — instead of wedging the run.
                self.counters.drops += 1;
                self.overflow_scratch.push(flit);
                return;
            }
            panic!(
                "lazy-credit violation: vnet {vnet} full at {} port {port}",
                self.node
            );
        }
        // Lowest free slot of the vnet's stripe. Lazy VC allocation: the
        // slot index *is* the VC id, stamped at buffer-write time
        // (Section III-E).
        let flat = free.trailing_zeros() as usize;
        let mut flit = flit;
        flit.vc = Some(VcId(flat as u8));
        let route = self.clean_route8(&flit) as usize;
        self.slots[pi * self.total_slots + flat] = flit;
        self.occ_bits[pi] |= 1 << flat;
        self.route_bits[pi][route] |= 1 << flat;
        self.counters.buffer_writes += 1;
        self.buffered += 1;
    }

    /// Reacts to an alive-state transition of a link incident to this
    /// router (learned locally from the engine's detector or remotely via
    /// gossip). Mask updates and route rebuilds already happened inside
    /// [`FaultAwareness`]; an own *tracked* output link that revived
    /// starts the credit re-sync handshake with an empty pool. An
    /// untracked link needs none: the next StartCreditTracking re-seeds
    /// the pool from a provably empty bank.
    fn apply_link_update(&mut self, update: &LinkUpdate) {
        let tracking = &self.tracking;
        if let Some(d) = self.resync.on_link_update(update, |d| tracking[d]) {
            self.pool_mut(d).fill(0);
        }
    }

    /// Returns the credit pool toward `d` to full, in place (an empty
    /// downstream bank).
    fn refill_credits(&mut self, d: Direction) {
        let n = self.vnet_capacity.len();
        let pool = &mut self.credits[d.index() * n..(d.index() + 1) * n];
        for (c, cap) in pool.iter_mut().zip(&self.vnet_capacity) {
            *c = *cap as u64;
        }
    }

    /// Initiates the forward mode switch (common to threshold- and
    /// gossip-triggered switches).
    fn initiate_forward_switch(&mut self, now: Cycle, gossip: bool, out: &mut RouterOutputs) {
        debug_assert!(matches!(self.mode, AfcMode::Backpressureless));
        self.mode = AfcMode::SwitchingForward {
            since: now,
            complete_at: now + self.transition_len,
        };
        out.control.push(ControlSignal::StartCreditTracking);
        self.counters.control_sends += 1;
        self.counters.mode_switches_forward += 1;
        if gossip {
            self.counters.mode_switches_gossip += 1;
        }
    }

    /// True when any tracked neighbor's free buffering has fallen to
    /// `threshold`.
    fn credit_pressure(&self, threshold: u64) -> bool {
        Direction::ALL
            .into_iter()
            .any(|d| self.tracking[d] && self.pool(d).iter().any(|c| *c <= threshold))
    }

    /// True when any tracked neighbor's free buffering has fallen to the
    /// gossip threshold.
    fn gossip_pressure(&self) -> bool {
        self.credit_pressure(self.gossip_x)
    }

    /// One cycle of deflection processing (backpressureless and transition
    /// states): the shared bufferless kernel, plus credit accounting toward
    /// neighbors that track this router.
    fn step_deflect(&mut self, rng: &mut SimRng, out: &mut RouterOutputs) {
        if self.bank.is_empty() {
            return;
        }
        // Revived links mid-handshake are held out of the deflection port
        // set like dead ones (even once the fault view is clean again — the
        // handshake outlives the healed state by a few cycles): their
        // credit pools are zeroed, so an arbitration there would be an
        // uncredited send. When more flits remain than open ports the
        // kernel relaxes the hold, and the sink is a real uncredited
        // delivery that the downstream bank absorbs through its
        // fault-tolerant overflow path.
        let held = self.resync.wait_mask();
        let (bits, fa) = (self.fault_bits, &mut self.fa);
        let sent = self
            .bank
            .step(Loser::Deflect, bits, fa, held, rng, out, &mut self.counters);
        for d in Direction::ALL {
            // During a re-sync wait the pool is floored at zero and the
            // rare forced send is accounted by the downstream overflow
            // path, so the decrement (and its underflow assert) is skipped.
            if sent >> d.index() & 1 == 0 || !self.tracking[d] || self.resync.waiting(d) {
                continue;
            }
            let flit = out.flits[PortId::Net(d)].expect("the kernel sent one");
            let c = &mut self.pool_mut(d)[flit.vnet.index()];
            debug_assert!(*c > 0, "gossip threshold must prevent credit underflow");
            *c = c.saturating_sub(1);
        }
    }

    /// Removes buffered flits whose destinations have no alive path
    /// (degraded mode only): each returns its upstream vnet credit and
    /// lands in `out.dropped`, feeding the NACK/bounded-retransmit path
    /// that terminates the packet with a structured `Unreachable` record.
    ///
    /// At most two credits per network port per cycle: the reverse lane is
    /// one wire bundle ([`LANE_CAP`](afc_netsim::channel::LANE_CAP) slots)
    /// that must also carry this cycle's switch-traversal credit, so a
    /// full bank drains over several cycles instead of bursting.
    fn sweep_unreachable_buffers(&mut self, out: &mut RouterOutputs) {
        for port in PortId::ALL {
            let pi = port.index();
            if self.occ_bits[pi] == 0 {
                continue;
            }
            let mut budget = if port.is_network() {
                2usize
            } else {
                usize::MAX
            };
            let base = pi * self.total_slots;
            // Ascending bit order is the pre-slab per-vnet scan order.
            let mut w = self.occ_bits[pi];
            while w != 0 {
                let flat = w.trailing_zeros() as usize;
                w &= w - 1;
                let flit = self.slots[base + flat];
                if !matches!(self.fa.route(flit.dest), RouteOutcome::Unreachable) {
                    continue;
                }
                if budget == 0 {
                    // Remaining unreachable flits drain next cycle.
                    break;
                }
                self.take_slot(pi, flat);
                self.counters.buffer_reads += 1;
                self.counters.drops += 1;
                if port.is_network() {
                    out.credits[port].push(Credit::Vnet(flit.vnet));
                    self.counters.credits_sent += 1;
                    budget -= 1;
                }
                out.dropped.push(flit);
            }
        }
    }

    /// Empties slot `flat` of port `pi`: its occupancy bit and its bit in
    /// whichever route word holds it.
    #[inline]
    fn take_slot(&mut self, pi: usize, flat: usize) {
        let keep = !(1u64 << flat);
        self.occ_bits[pi] &= keep;
        for w in &mut self.route_bits[pi] {
            *w &= keep;
        }
        self.buffered -= 1;
    }

    /// Stage 1 of the lazy-VC switch allocator: each input port nominates
    /// one slot whose flit may leave this cycle. Clean cycles read the
    /// route words ([`Self::nominate_words`]); degraded ones route every
    /// flit through the alive-graph table ([`Self::nominate_per_slot`]).
    fn nominate(&mut self) -> Nominations {
        if self.fault_bits.is_clean() {
            self.nominate_words()
        } else {
            self.nominate_per_slot()
        }
    }

    /// Clean stage 1 from the route words: a port's request word is
    /// `rb[Local] | Σ_d (rb[d] & ok[d])`, where `ok[d]` — computed once per
    /// step — holds the slots of every vnet with credit toward `d`, every
    /// slot when `d` is not credit-tracked, and none while `d` re-syncs
    /// (sending before the CreditResync lands would break its
    /// nothing-in-flight precondition). The granted slot's route is the
    /// word its bit sits in.
    fn nominate_words(&mut self) -> Nominations {
        let ok: [u64; DIRS] = std::array::from_fn(|di| {
            let d = Direction::ALL[di];
            if self.resync.waiting(d) {
                0
            } else if !self.tracking[d] {
                u64::MAX
            } else {
                let credited = self.pool(d).iter().zip(self.vnet_mask.iter());
                credited.fold(0, |m, (c, mask)| if *c > 0 { m | mask } else { m })
            }
        });
        let mut noms = Nominations::default();
        for (pi, port) in PortId::ALL.into_iter().enumerate() {
            let rb = self.route_bits[pi];
            let mask =
                rb[LOCAL] | (rb[0] & ok[0]) | (rb[1] & ok[1]) | (rb[2] & ok[2]) | (rb[3] & ok[3]);
            if mask == 0 {
                continue;
            }
            let arb = self.input_arb[port].as_mut().expect("arb exists with port");
            let flat = arb.grant_masked(mask).expect("a slot requests");
            let route = rb.iter().position(|w| w >> flat & 1 != 0);
            self.counters.arbitrations += 1;
            noms.nominate(pi, flat, route.expect("an occupied slot has a route"));
        }
        noms
    }

    /// Per-slot stage 1: walk each port's occupancy word, route every flit
    /// — through the alive-graph table on degraded cycles (AFC routes
    /// statelessly, so masking is this simple), by DOR on clean ones, where
    /// only the lockstep tests call it — and test it for credit/handshake
    /// eligibility. Ports with an empty word are skipped outright —
    /// identical to the full scan, which would find no eligible slot and
    /// `continue` before touching the arbiter or the arbitration counter.
    fn nominate_per_slot(&mut self) -> Nominations {
        let clean = self.fault_bits.is_clean();
        let mut noms = Nominations::default();
        for port in PortId::ALL {
            let pi = port.index();
            let occ = self.occ_bits[pi];
            if occ == 0 {
                continue;
            }
            let base = pi * self.total_slots;
            let mut routes = [0u8; 64];
            let mut mask = 0u64;
            let mut w = occ;
            while w != 0 {
                let flat = w.trailing_zeros() as usize;
                w &= w - 1;
                let flit = self.slots[base + flat];
                let route = if clean {
                    self.clean_route8(&flit)
                } else if flit.dest == self.node {
                    PortId::Local.index() as u8
                } else {
                    // A doomed flit the budget-limited sweep has not
                    // reached yet simply sits out arbitration until a
                    // later sweep retires it.
                    match self.fa.route(flit.dest) {
                        RouteOutcome::Dir(d) => d.index() as u8,
                        RouteOutcome::Local | RouteOutcome::Unreachable => continue,
                    }
                };
                let ok = match Direction::ALL.get(route as usize) {
                    // A port mid-handshake is ineligible even if stale
                    // drain credits trickled in.
                    Some(&d) => {
                        !self.resync.waiting(d)
                            && (!self.tracking[d] || self.pool(d)[flit.vnet.index()] > 0)
                    }
                    // Route 4: local ejection, always eligible.
                    None => true,
                };
                if ok {
                    routes[flat] = route;
                    mask |= 1 << flat;
                }
            }
            if mask == 0 {
                continue;
            }
            let arb = self.input_arb[port].as_mut().expect("arb exists with port");
            if let Some(flat) = arb.grant_masked(mask) {
                noms.nominate(pi, flat, routes[flat] as usize);
                self.counters.arbitrations += 1;
            }
        }
        noms
    }

    /// One cycle of lazy-VC backpressured processing around the stage-1
    /// kernel `nominate`, then the shared stage-2 kernel and traversal.
    #[inline]
    fn step_backpressured(
        &mut self,
        out: &mut RouterOutputs,
        nominate: impl FnOnce(&mut Self) -> Nominations,
    ) {
        self.counters.buffer_occupancy_sum += self.occupancy() as u64;
        let clean = self.fault_bits.is_clean();
        if !clean {
            self.sweep_unreachable_buffers(out);
        }

        let noms = nominate(self);
        if noms.is_empty() && self.occupancy() > 0 {
            self.counters.credit_stall_cycles += 1;
        }
        let present = (0..PORTS).fold(0, |m, pi| m | (self.in_present[pi] as u8) << pi);
        let grants = noms.grant(&mut self.output_arb, present, self.eject_bandwidth);
        self.counters.arbitrations += grants.as_slice().len() as u64;

        // Traversal.
        for &(i, flat, o) in grants.as_slice() {
            let (pi, flat) = (i as usize, flat as usize);
            let in_port = PortId::ALL[pi];
            let mut flit = self.slots[pi * self.total_slots + flat];
            self.take_slot(pi, flat);
            self.counters.buffer_reads += 1;
            self.counters.crossbar_traversals += 1;
            if in_port.is_network() {
                out.credits[in_port].push(Credit::Vnet(flit.vnet));
                self.counters.credits_sent += 1;
            }
            match PortId::ALL[o as usize] {
                PortId::Local => {
                    out.ejected.push(flit);
                    self.counters.ejections += 1;
                }
                out_port @ PortId::Net(d) => {
                    if self.tracking[d] {
                        let c = &mut self.pool_mut(d)[flit.vnet.index()];
                        debug_assert!(*c > 0, "eligibility checked credits");
                        *c = c.saturating_sub(1);
                    }
                    if !clean && Some(d) != self.mesh.dor_route_from(self.at, flit.dest) {
                        self.counters.reroutes += 1;
                    }
                    // Lazy allocation happens downstream: only the virtual
                    // network travels with the flit.
                    flit.vc = None;
                    flit.hops += 1;
                    out.flits[out_port] = Some(flit);
                    self.counters.link_traversals += 1;
                }
            }
        }
    }

    /// One router cycle, with `nominate` as the backpressured datapath's
    /// stage 1 (the lockstep tests swap in the per-slot reference).
    #[inline]
    fn step_with(
        &mut self,
        now: Cycle,
        rng: &mut SimRng,
        out: &mut RouterOutputs,
        nominate: impl FnOnce(&mut Self) -> Nominations,
    ) {
        self.counters.cycles += 1;
        let sample = self.flits_this_cycle;
        self.flits_this_cycle = 0;
        self.monitor.record_cycle(sample);
        if !self.overflow_scratch.is_empty() {
            // Re-sync-window arrivals that found a full bank: hand them to
            // the engine's NACK circuit for retransmission.
            out.dropped.append(&mut self.overflow_scratch);
        }
        debug_assert_eq!(self.fault_bits, self.fa.bits(), "stale fault bits");
        if self.fault_bits.has_pending_gossip() {
            // At most 2 fault facts + 1 mode signal + 1 credit re-sync per
            // cycle fit the 4-slot control lane exactly. Gossip is gated
            // on the queue, not on cleanliness: revival facts keep
            // flooding after the fault view empties.
            self.fa.drain_gossip(out);
            self.fault_bits = self.fa.bits();
        }
        if self.resync.has_pending() {
            let occ_bits = &self.occ_bits;
            let drained = |d| occ_bits[PortId::Net(d).index()] == 0;
            self.resync.emit(&self.fa, drained, out, &mut self.counters);
        }

        // Complete an in-flight forward transition.
        if let AfcMode::SwitchingForward { complete_at, .. } = self.mode {
            if now >= complete_at {
                debug_assert!(self.bank.is_empty(), "latches drain before switch");
                self.mode = AfcMode::Backpressured;
                self.reverse_allowed_at = now + self.cfg.reverse_dwell;
            }
        }

        // Mode decisions (suppressed for the always-backpressured ablation).
        if !self.always_backpressured {
            match self.mode {
                AfcMode::Backpressureless => {
                    let gossip = self.gossip_pressure();
                    if gossip || self.monitor.level() == LoadLevel::High {
                        self.initiate_forward_switch(now, gossip, out);
                    }
                }
                AfcMode::Backpressured => {
                    // The reverse switch needs empty local buffers (paper,
                    // Section III-C) and — a corner case the overflow-freedom
                    // argument requires — no tracked neighbor already at or
                    // below the gossip threshold (otherwise the router would
                    // gossip-switch right back, and the transition window's
                    // uncredited deflections could overflow that neighbor).
                    // The dwell timer damps switch ping-pong during drain
                    // transients without affecting safety: staying
                    // backpressured longer is always safe.
                    if self.monitor.level() == LoadLevel::Low
                        && self.buffers_empty()
                        && !self.gossip_pressure()
                        && now >= self.reverse_allowed_at
                    {
                        self.mode = AfcMode::Backpressureless;
                        out.control.push(ControlSignal::StopCreditTracking);
                        self.counters.control_sends += 1;
                        self.counters.mode_switches_reverse += 1;
                    }
                }
                AfcMode::SwitchingForward { .. } => {}
            }
        }

        // Datapath.
        match self.mode {
            AfcMode::Backpressureless | AfcMode::SwitchingForward { .. } => {
                self.step_deflect(rng, out);
            }
            AfcMode::Backpressured => {
                self.step_backpressured(out, nominate);
            }
        }

        // Power gating: buffers are gated at the granularity of whole ports
        // whenever the router operates backpressureless; they are woken
        // during the transition window so they are usable at its end.
        if matches!(self.mode, AfcMode::Backpressureless) {
            self.counters.cycles_buffers_gated += 1;
        }
    }
}

impl Router for AfcRouter {
    fn receive_flit(&mut self, input: PortId, flit: Flit, now: Cycle) {
        self.flits_this_cycle += 1;
        if self.buffering(now) {
            self.buffer_insert(input, flit);
        } else {
            self.bank.push(flit);
            self.counters.latch_writes += 1;
        }
    }

    fn receive_credit(&mut self, output: PortId, credit: Credit, _now: Cycle) {
        let Credit::Vnet(vnet) = credit else {
            panic!("AFC tracks credits at virtual-network granularity");
        };
        let Some(d) = output.direction() else {
            return;
        };
        if self.tracking[d] {
            let cap = self.vnet_capacity[vnet.index()] as u64;
            let c = &mut self.pool_mut(d)[vnet.index()];
            *c = (*c + 1).min(cap);
        }
        // Credits arriving after a StopCreditTracking are stale; ignoring
        // them is safe because tracking state is re-seeded to "empty
        // buffers" on the next StartCreditTracking (Section III-C).
    }

    fn receive_control(&mut self, output: PortId, signal: ControlSignal, now: Cycle) {
        let Some(d) = output.direction() else {
            return;
        };
        match signal {
            ControlSignal::StartCreditTracking => {
                self.tracking[d] = true;
                // The switching neighbor's buffers start out empty — which
                // also supersedes any credit re-sync still in flight for a
                // revived link: a full pool over an empty bank is exact.
                self.refill_credits(d);
                self.resync.cancel(d);
            }
            ControlSignal::StopCreditTracking => {
                self.tracking[d] = false;
                // The neighbor only reverse-switches with empty buffers,
                // so an in-flight re-sync handshake is moot.
                self.resync.cancel(d);
            }
            ControlSignal::CreditResync { node, dir, epoch } => {
                if self.resync.confirm(&self.fa, node, dir, epoch) {
                    // The downstream bank is empty and nothing is in
                    // flight (the port sat out arbitration throughout the
                    // wait), so a full pool is exactly correct.
                    self.refill_credits(dir);
                }
            }
            ControlSignal::LinkFault { .. } => {
                let update = self.fa.on_control(signal, now);
                self.fault_bits = self.fa.bits();
                if let Some(update) = update {
                    self.counters.fault_notices += 1;
                    self.apply_link_update(&update);
                }
            }
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
        let update = self.fa.learn(node, dir, epoch, alive, now);
        self.fault_bits = self.fa.bits();
        if let Some(update) = update {
            self.apply_link_update(&update);
        }
    }

    fn injection_ready(&self, flit: &Flit, now: Cycle) -> bool {
        if self.buffering(now) {
            (!self.occ_bits[PortId::Local.index()] & self.vnet_mask[flit.vnet.index()]) != 0
        } else {
            self.bank.free_ports_after_ejection() >= 1
        }
    }

    fn inject(&mut self, flit: Flit, now: Cycle) {
        self.flits_this_cycle += 1;
        self.counters.injections += 1;
        if self.buffering(now) {
            self.buffer_insert(PortId::Local, flit);
        } else {
            self.bank.push(flit);
            self.counters.latch_writes += 1;
        }
    }

    fn step(&mut self, now: Cycle, rng: &mut SimRng, out: &mut RouterOutputs) {
        self.step_with(now, rng, out, Self::nominate);
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.len() * size_of::<Flit>()
            + self.vnet_mask.len() * size_of::<u64>()
            + self.credits.len() * size_of::<u64>()
            + self.vnet_capacity.capacity() * size_of::<usize>()
            + self.overflow_scratch.capacity() * size_of::<Flit>()
            + self.fa.heap_bytes()
    }

    fn counters(&self) -> &ActivityCounters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut ActivityCounters {
        &mut self.counters
    }

    fn mode(&self) -> RouterMode {
        match self.mode {
            AfcMode::Backpressureless => RouterMode::Backpressureless,
            AfcMode::SwitchingForward { .. } => RouterMode::Transitioning,
            AfcMode::Backpressured => RouterMode::Backpressured,
        }
    }

    fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.buffered,
            self.occ_bits
                .iter()
                .map(|b| b.count_ones() as usize)
                .sum::<usize>(),
        );
        debug_assert!(
            (0..PORTS).all(|pi| {
                let words = &self.route_bits[pi];
                let ones: u32 = words.iter().map(|w| w.count_ones()).sum();
                words.iter().fold(0, |m, w| m | w) == self.occ_bits[pi]
                    && ones == self.occ_bits[pi].count_ones()
            }),
            "route words must partition the occupancy words at {}",
            self.node
        );
        self.buffered + self.bank.len()
    }

    fn load_estimate(&self) -> Option<f64> {
        Some(self.monitor.load())
    }

    fn is_quiescent(&self) -> bool {
        if self.flits_this_cycle != 0 || !self.monitor.is_idle_replayable() {
            return false;
        }
        if self.fault_bits.has_pending_gossip()
            || !self.overflow_scratch.is_empty()
            || self.resync.has_pending()
        {
            // Pending fault gossip, an undrained overflow, or an unsent
            // credit re-sync keeps the router live so each reaches the
            // wire even with no traffic.
            return false;
        }
        match self.mode {
            // Safe to skip only when the next steps provably do nothing but
            // decay the monitor: no latched flits, no gossip pressure (the
            // engine re-activates this router on any credit/control/flit
            // receive, so pressure cannot appear mid-skip), and a load below
            // the forward threshold — idle decay is monotone non-increasing
            // on an all-zero window, so `level()` can never *become* `High`
            // while skipped.
            AfcMode::Backpressureless => {
                self.bank.is_empty()
                    && !self.gossip_pressure()
                    && self.monitor.level() != LoadLevel::High
            }
            // An adaptive backpressured router may fire the reverse switch
            // mid-decay (an observable control emission at a load-dependent
            // cycle), so it must be stepped every cycle. Only the
            // always-backpressured ablation — whose mode decisions are
            // suppressed entirely — can be skipped.
            AfcMode::Backpressured => {
                self.always_backpressured && self.buffered == 0 && self.bank.is_empty()
            }
            AfcMode::SwitchingForward { .. } => false,
        }
    }

    fn note_idle_cycles(&mut self, idle: u64) {
        self.counters.cycles += idle;
        if matches!(self.mode, AfcMode::Backpressureless) {
            self.counters.cycles_buffers_gated += idle;
        }
        self.monitor.skip_idle(idle);
    }

    fn counters_view(&self, pending_idle: u64) -> ActivityCounters {
        let mut c = self.counters;
        c.cycles += pending_idle;
        if matches!(self.mode, AfcMode::Backpressureless) {
            c.cycles_buffers_gated += pending_idle;
        }
        c
    }

    fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        (self.mode, self.flits_this_cycle, self.reverse_allowed_at).put(w);
        self.monitor.put(w);
        self.bank.put(w);
        // Bank geometry (present ports, per-vnet capacities) is rebuilt from
        // configuration; only slot contents travel. Flat ascending slot
        // order is vnet-major, so the byte stream matches the pre-slab
        // per-vnet layout exactly.
        for pi in (0..PORTS).filter(|&pi| self.in_present[pi]) {
            for flat in 0..self.total_slots {
                let slot = self.slots[pi * self.total_slots + flat];
                (self.occ_bits[pi] >> flat & 1 != 0).then_some(slot).put(w);
            }
        }
        for arb in self.input_arb.iter().flat_map(|(_, arb)| arb) {
            arb.put(w);
        }
        self.output_arb.put(w);
        for d in Direction::ALL {
            self.tracking[d].put(w);
        }
        for d in Direction::ALL {
            self.pool(d).put(w);
        }
        self.resync.put(w);
        self.overflow_scratch.put(w);
        self.counters.put(w);
        self.fa.put(w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.mode.load(r)?;
        self.flits_this_cycle.load(r)?;
        self.reverse_allowed_at.load(r)?;
        Codec::load(&mut self.monitor, r)?;
        self.bank.load(r, "afc latch count")?;
        self.buffered = 0;
        for pi in (0..PORTS).filter(|&pi| self.in_present[pi]) {
            self.occ_bits[pi] = 0;
            self.route_bits[pi] = [0; PORTS];
            for flat in 0..self.total_slots {
                if r.get_bool("afc buffer slot occupancy")? {
                    let lane = pi * self.total_slots + flat;
                    self.slots[lane].load(r)?;
                    // The route words are derived state: recompute them
                    // rather than persist them.
                    let route = self.clean_route8(&self.slots[lane]) as usize;
                    self.route_bits[pi][route] |= 1 << flat;
                    self.occ_bits[pi] |= 1 << flat;
                    self.buffered += 1;
                }
            }
        }
        for arb in self.input_arb.iter_mut().flat_map(|(_, arb)| arb) {
            arb.load(r)?;
        }
        self.output_arb.load(r)?;
        for d in Direction::ALL {
            self.tracking[d].load(r)?;
        }
        for d in Direction::ALL {
            self.pool_mut(d).load(r)?;
            let over = |(c, cap): (&u64, &usize)| *c > *cap as u64;
            if self.pool(d).iter().zip(&self.vnet_capacity).any(over) {
                return Err(SnapshotError::Malformed {
                    what: "afc credit count",
                });
            }
        }
        self.resync.load(r)?;
        self.overflow_scratch.load(r)?;
        if self.overflow_scratch.len() > PortId::ALL.len() {
            return Err(SnapshotError::Malformed {
                what: "afc overflow count",
            });
        }
        self.counters.load(r)?;
        let loaded = self.fa.load(r);
        self.fault_bits = self.fa.bits();
        loaded
    }
}

impl std::fmt::Debug for AfcRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AfcRouter")
            .field("node", &self.node)
            .field("mode", &self.mode)
            .field("load", &self.monitor.load())
            .field("occupancy", &self.occupancy())
            .finish_non_exhaustive()
    }
}

/// Factory for [`AfcRouter`]s.
#[derive(Debug, Clone, Default)]
pub struct AfcFactory {
    cfg: AfcConfig,
}

impl AfcFactory {
    /// Creates the factory with the given AFC configuration.
    pub fn new(cfg: AfcConfig) -> AfcFactory {
        AfcFactory { cfg }
    }

    /// Paper-preset factory.
    pub fn paper() -> AfcFactory {
        AfcFactory::new(AfcConfig::paper())
    }

    /// Paper-preset factory pinned to backpressured mode (the
    /// "AFC always-backpressured" bar of Figure 2).
    pub fn always_backpressured() -> AfcFactory {
        AfcFactory::new(AfcConfig::paper_always_backpressured())
    }

    /// The configuration this factory builds with.
    pub fn config(&self) -> &AfcConfig {
        &self.cfg
    }
}

impl RouterFactory for AfcFactory {
    fn build_bank(
        &self,
        mesh: &Mesh,
        config: &NetworkConfig,
        rings: Vec<Box<[Flit]>>,
    ) -> Box<dyn RouterBank> {
        let bank: Vec<AfcRouter> = (mesh.nodes().zip(rings))
            .map(|(node, rings)| AfcRouter::with_rings(node, mesh, config, self.cfg.clone(), rings))
            .collect();
        Box::new(bank)
    }

    fn name(&self) -> &'static str {
        if self.cfg.always_backpressured {
            "afc-always-bp"
        } else {
            "afc"
        }
    }

    fn flit_width_bits(&self) -> u32 {
        FLIT_WIDTH_BITS
    }

    fn buffer_flits_per_port(&self, config: &NetworkConfig) -> usize {
        self.cfg.buffer_flits_per_port(config)
    }

    fn validate(&self, config: &NetworkConfig) -> Result<(), ConfigError> {
        self.cfg.validate(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_netsim::flit::{PacketId, VirtualNetwork};
    use afc_netsim::geom::Coord;

    fn setup() -> (Mesh, NetworkConfig, AfcRouter) {
        let net = NetworkConfig::paper_3x3();
        let mesh = net.mesh().unwrap();
        let node = mesh.node_at(Coord::new(1, 1)).unwrap();
        let r = AfcRouter::new(node, &mesh, &net, AfcConfig::paper());
        (mesh, net, r)
    }

    fn flit(id: u64, dest: NodeId, vnet: u8) -> Flit {
        let mut f = Flit::test_flit(PacketId(id), NodeId::new(0), dest);
        f.vnet = VirtualNetwork(vnet);
        f
    }

    #[test]
    fn network_new_returns_the_afc_config_error_instead_of_panicking() {
        // L = 4 needs X = 2L + 2 = 10 lazy slots; a control vnet has 8.
        let net = NetworkConfig {
            link_latency: 4,
            ..NetworkConfig::paper_3x3()
        };
        let err = afc_netsim::network::Network::new(net.clone(), &AfcFactory::paper(), 1)
            .expect_err("an invalid AFC configuration must be refused");
        assert_eq!(
            err,
            ConfigError::BufferTooSmallForGossip {
                vnet: 0,
                capacity: 8,
                required: 10,
            }
        );
        assert_eq!(AfcFactory::paper().validate(&net), Err(err));
        AfcFactory::paper()
            .validate(&NetworkConfig::paper_3x3())
            .expect("the paper preset is valid");
    }

    #[test]
    fn network_new_refuses_more_lazy_vcs_than_an_occupancy_word_holds() {
        // 2 control vnets x 8 + 1 data vnet x 64 = 80 slots per port.
        let net = NetworkConfig::paper_3x3();
        let wide = |data_vcs| {
            AfcFactory::new(AfcConfig {
                data_vcs,
                ..AfcConfig::paper()
            })
        };
        let err = afc_netsim::network::Network::new(net.clone(), &wide(64), 1)
            .expect_err("80 lazy VCs per port must be refused");
        assert_eq!(
            err,
            ConfigError::OutOfRange {
                what: "lazy VCs per port, all vnets",
                range: "<= 64",
            }
        );
        // 2 x 8 + 48 = 64 slots: the largest layout that fits.
        afc_netsim::network::Network::new(net, &wide(48), 1).expect("64 slots fit");
    }

    fn run_idle(r: &mut AfcRouter, from: Cycle, cycles: u64) -> Cycle {
        let mut rng = SimRng::seed_from(0);
        let mut out = RouterOutputs::new();
        for now in from..from + cycles {
            out.clear();
            r.step(now, &mut rng, &mut out);
        }
        from + cycles
    }

    #[test]
    fn starts_backpressureless_and_deflects() {
        let (mesh, _net, mut r) = setup();
        assert_eq!(r.afc_mode(), AfcMode::Backpressureless);
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        r.receive_flit(PortId::Net(Direction::West), flit(1, dest, 0), 0);
        r.receive_flit(PortId::Net(Direction::North), flit(2, dest, 0), 0);
        let mut out = RouterOutputs::new();
        let mut rng = SimRng::seed_from(1);
        r.step(0, &mut rng, &mut out);
        assert_eq!(out.flits_sent(), 2);
        assert_eq!(r.counters().deflections, 1);
        assert_eq!(r.counters().cycles_buffers_gated, 1);
    }

    #[test]
    fn sustained_load_triggers_forward_switch() {
        let (mesh, net, mut r) = setup();
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        let mut rng = SimRng::seed_from(2);
        let mut out = RouterOutputs::new();
        let mut switched_at = None;
        for now in 0..3000u64 {
            // Three flits per cycle: above the 2.2 center threshold.
            for (i, d) in [Direction::West, Direction::North, Direction::South]
                .into_iter()
                .enumerate()
            {
                if !r.buffering(now) || r.bank_free_in(PortId::Net(d), 0) > 0 {
                    r.receive_flit(PortId::Net(d), flit(now * 10 + i as u64, dest, 0), now);
                }
            }
            out.clear();
            r.step(now, &mut rng, &mut out);
            if matches!(r.afc_mode(), AfcMode::SwitchingForward { .. }) && switched_at.is_none() {
                switched_at = Some(now);
                assert!(out.control.contains(&ControlSignal::StartCreditTracking));
            }
        }
        let t = switched_at.expect("high load must trigger the forward switch");
        assert!(r.counters().mode_switches_forward >= 1);
        assert_eq!(r.counters().mode_switches_gossip, 0);
        // Transition completes after 2L + 2 = 6 cycles.
        assert_eq!(r.afc_mode(), AfcMode::Backpressured);
        let _ = (t, net);
    }

    #[test]
    fn transition_window_has_correct_length() {
        let (_mesh, net, mut r) = setup();
        // Force a switch by driving load, then inspect the window bounds.
        let mut rng = SimRng::seed_from(3);
        let mut out = RouterOutputs::new();
        let dest = r.node();
        // Saturate the monitor artificially.
        for _ in 0..5000 {
            r.monitor.record_cycle(5);
        }
        out.clear();
        r.step(0, &mut rng, &mut out);
        match r.afc_mode() {
            AfcMode::SwitchingForward { since, complete_at } => {
                assert_eq!(since, 0);
                assert_eq!(complete_at, 2 * net.link_latency + 2);
            }
            other => panic!("expected forward switch, got {other:?}"),
        }
        // Still deflecting mid-window.
        r.receive_flit(PortId::Net(Direction::West), flit(1, dest, 0), 2);
        out.clear();
        r.step(2, &mut rng, &mut out);
        assert_eq!(out.ejected.len(), 1, "transition still runs deflection");
        // After the window, arrivals are buffered.
        run_idle(&mut r, 3, 4);
        assert_eq!(r.afc_mode(), AfcMode::Backpressured);
        let far = NodeId::new(0);
        r.receive_flit(PortId::Net(Direction::East), flit(2, far, 0), 7);
        assert_eq!(r.counters().buffer_writes, 1);
    }

    #[test]
    fn reverse_switch_requires_empty_buffers_and_low_load() {
        let (mesh, net, _) = setup();
        // Zero dwell isolates the buffer-emptiness and gossip-pressure
        // conditions under test.
        let node = mesh.node_at(Coord::new(1, 1)).unwrap();
        let mut r = AfcRouter::new(
            node,
            &mesh,
            &net,
            AfcConfig {
                reverse_dwell: 0,
                ..AfcConfig::paper()
            },
        );
        let mut rng = SimRng::seed_from(4);
        let mut out = RouterOutputs::new();
        for _ in 0..5000 {
            r.monitor.record_cycle(5);
        }
        r.step(0, &mut rng, &mut out);
        run_idle(&mut r, 1, 6);
        assert_eq!(r.afc_mode(), AfcMode::Backpressured);
        // Put a flit in a buffer; no neighbor tracked => eligible to leave,
        // but block it by tracking east with zero credits.
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        r.receive_control(
            PortId::Net(Direction::East),
            ControlSignal::StartCreditTracking,
            7,
        );
        r.pool_mut(Direction::East).fill(0);
        r.receive_flit(PortId::Net(Direction::West), flit(1, dest, 0), 7);
        // Drive the load down.
        for _ in 0..5000 {
            r.monitor.record_cycle(0);
        }
        out.clear();
        r.step(7, &mut rng, &mut out);
        assert_eq!(
            r.afc_mode(),
            AfcMode::Backpressured,
            "occupied buffers must block the reverse switch"
        );
        // Release credits: the flit drains, but the reverse switch stays
        // blocked while the tracked neighbor sits at or below the gossip
        // threshold (the corner case that would otherwise allow overflow).
        r.receive_credit(
            PortId::Net(Direction::East),
            Credit::Vnet(VirtualNetwork(0)),
            8,
        );
        out.clear();
        r.step(8, &mut rng, &mut out);
        assert!(out.flits[PortId::Net(Direction::East)].is_some());
        out.clear();
        r.step(9, &mut rng, &mut out);
        assert_eq!(
            r.afc_mode(),
            AfcMode::Backpressured,
            "gossip pressure must also block the reverse switch"
        );
        // Once the neighbor's buffers free up past the threshold, the
        // switch goes through.
        r.pool_mut(Direction::East).copy_from_slice(&[8, 8, 16]);
        out.clear();
        r.step(10, &mut rng, &mut out);
        assert_eq!(r.afc_mode(), AfcMode::Backpressureless);
        assert!(out.control.contains(&ControlSignal::StopCreditTracking));
        assert_eq!(r.counters().mode_switches_reverse, 1);
    }

    #[test]
    fn gossip_pressure_forces_switch_without_local_contention() {
        let (mesh, _net, mut r) = setup();
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        let mut rng = SimRng::seed_from(5);
        let mut out = RouterOutputs::new();
        // The east neighbor switches to backpressured mode.
        r.receive_control(
            PortId::Net(Direction::East),
            ControlSignal::StartCreditTracking,
            0,
        );
        // Send a trickle of flits east: far below the local threshold, but
        // the neighbor (returning no credits) is filling up.
        let mut now = 0;
        while matches!(r.afc_mode(), AfcMode::Backpressureless) && now < 100 {
            r.receive_flit(PortId::Net(Direction::West), flit(now, dest, 0), now);
            out.clear();
            r.step(now, &mut rng, &mut out);
            now += 1;
        }
        assert!(
            matches!(r.afc_mode(), AfcMode::SwitchingForward { .. }),
            "credit exhaustion must gossip-switch the router"
        );
        assert_eq!(r.counters().mode_switches_gossip, 1);
        assert!(r.load() < 2.2, "switch happened below the local threshold");
        // Control vnet capacity 8, X = 6: the switch fires the cycle free
        // slots reach 6 (after 2 uncredited sends); that same cycle still
        // deflects one more flit — exactly the first of the 6 transition
        // sends the X = 2L + 2 budget reserves room for.
        assert_eq!(r.pool(Direction::East)[0], 5);
    }

    #[test]
    fn lazy_vc_allocation_assigns_slot_ids() {
        let (_mesh, _net, mut r) = setup();
        for _ in 0..5000 {
            r.monitor.record_cycle(5);
        }
        let mut rng = SimRng::seed_from(6);
        let mut out = RouterOutputs::new();
        r.step(0, &mut rng, &mut out);
        run_idle(&mut r, 1, 6);
        assert_eq!(r.afc_mode(), AfcMode::Backpressured);
        // Two same-vnet flits land in distinct lazy VCs.
        let far = NodeId::new(0);
        r.receive_flit(PortId::Net(Direction::East), flit(1, far, 2), 7);
        r.receive_flit(PortId::Net(Direction::East), flit(2, far, 2), 7);
        assert_eq!(
            r.bank_free_in(PortId::Net(Direction::East), 2),
            AfcConfig::paper().data_vcs - 2
        );
        assert_eq!(r.bank_occupancy(PortId::Net(Direction::East)), 2);
    }

    #[test]
    fn backpressured_mode_respects_vnet_credits_and_returns_them() {
        let (mesh, _net, mut r) = setup();
        for _ in 0..5000 {
            r.monitor.record_cycle(5);
        }
        let mut rng = SimRng::seed_from(7);
        let mut out = RouterOutputs::new();
        r.step(0, &mut rng, &mut out);
        run_idle(&mut r, 1, 6);
        // Track east with 1 credit left in vnet 0.
        r.receive_control(
            PortId::Net(Direction::East),
            ControlSignal::StartCreditTracking,
            7,
        );
        r.pool_mut(Direction::East)[0] = 1;
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        r.receive_flit(PortId::Net(Direction::West), flit(1, dest, 0), 7);
        r.receive_flit(PortId::Net(Direction::West), flit(2, dest, 0), 7);
        // Keep the monitor hot so no reverse switch interferes.
        for _ in 0..5000 {
            r.monitor.record_cycle(5);
        }
        let mut sent = 0;
        for now in 8..18 {
            out.clear();
            r.step(now, &mut rng, &mut out);
            if out.flits[PortId::Net(Direction::East)].is_some() {
                sent += 1;
                // Upstream gets a vnet credit when the slot frees.
                assert_eq!(
                    out.credits[PortId::Net(Direction::West)],
                    vec![Credit::Vnet(VirtualNetwork(0))]
                );
            }
        }
        assert_eq!(sent, 1, "only one downstream slot was free");
        assert_eq!(r.occupancy(), 1);
    }

    #[test]
    fn sent_flits_carry_no_vc_in_lazy_mode() {
        let (mesh, _net, mut r) = setup();
        for _ in 0..5000 {
            r.monitor.record_cycle(5);
        }
        let mut rng = SimRng::seed_from(8);
        let mut out = RouterOutputs::new();
        r.step(0, &mut rng, &mut out);
        run_idle(&mut r, 1, 6);
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        for _ in 0..5000 {
            r.monitor.record_cycle(5);
        }
        r.receive_flit(PortId::Net(Direction::West), flit(1, dest, 0), 7);
        out.clear();
        r.step(7, &mut rng, &mut out);
        let f = out.flits[PortId::Net(Direction::East)].expect("forwarded");
        assert_eq!(f.vc, None, "lazy VC is assigned downstream");
    }

    #[test]
    fn always_backpressured_never_switches() {
        let net = NetworkConfig::paper_3x3();
        let mesh = net.mesh().unwrap();
        let node = mesh.node_at(Coord::new(1, 1)).unwrap();
        let mut r = AfcRouter::new(node, &mesh, &net, AfcConfig::paper_always_backpressured());
        assert_eq!(r.afc_mode(), AfcMode::Backpressured);
        run_idle(&mut r, 0, 2000);
        assert_eq!(r.afc_mode(), AfcMode::Backpressured);
        assert_eq!(r.counters().mode_switches_reverse, 0);
        assert_eq!(r.counters().cycles_buffers_gated, 0);
    }

    #[test]
    fn injection_gating_per_mode() {
        let (_mesh, _net, mut r) = setup();
        let probe = flit(1, NodeId::new(0), 0);
        // Backpressureless: free-port rule.
        assert!(r.injection_ready(&probe, 0));
        // Backpressured: slot-availability rule.
        for _ in 0..5000 {
            r.monitor.record_cycle(5);
        }
        let mut rng = SimRng::seed_from(9);
        let mut out = RouterOutputs::new();
        r.step(0, &mut rng, &mut out);
        run_idle(&mut r, 1, 6);
        assert!(r.injection_ready(&probe, 7));
        // Fill local vnet 0 (8 slots), keeping the router from draining by
        // tracking all dirs with zero credits.
        for d in Direction::ALL {
            r.receive_control(PortId::Net(d), ControlSignal::StartCreditTracking, 7);
            r.pool_mut(d).fill(0);
        }
        for i in 0..8 {
            assert!(r.injection_ready(&probe, 7));
            r.inject(flit(10 + i, NodeId::new(0), 0), 7);
        }
        assert!(!r.injection_ready(&probe, 7), "vnet 0 slots exhausted");
        // A different vnet still has room.
        let data_probe = flit(99, NodeId::new(0), 2);
        assert!(r.injection_ready(&data_probe, 7));
    }

    #[test]
    fn snapshot_reflects_adaptive_state() {
        let (_mesh, _net, mut r) = setup();
        let snap = r.snapshot();
        assert_eq!(snap.mode, AfcMode::Backpressureless);
        assert_eq!(snap.load, 0.0);
        assert_eq!(snap.thresholds, (2.2, 1.7)); // center router
        assert_eq!(snap.neighbors.len(), 4);
        assert!(snap.neighbors.iter().all(|(_, tracking, _)| !tracking));
        assert_eq!(snap.gossip_threshold, 6);
        // Start tracking east and drain two credits; the snapshot sees it.
        r.receive_control(
            PortId::Net(Direction::East),
            ControlSignal::StartCreditTracking,
            0,
        );
        r.pool_mut(Direction::East)[0] -= 2;
        let snap = r.snapshot();
        let east = snap
            .neighbors
            .iter()
            .find(|(d, _, _)| *d == Direction::East)
            .unwrap();
        assert!(east.1);
        assert_eq!(east.2[0], 6);
    }

    #[test]
    fn save_load_round_trips_adaptive_state() {
        use afc_netsim::snapshot::{SnapshotReader, SnapshotWriter};
        let (mesh, net, mut r) = setup();
        // Drive the router into backpressured mode with buffered flits,
        // tracked neighbors, drained credits, and advanced arbiter cursors.
        for _ in 0..5000 {
            r.monitor.record_cycle(5);
        }
        let mut rng = SimRng::seed_from(42);
        let mut out = RouterOutputs::new();
        r.step(0, &mut rng, &mut out);
        run_idle(&mut r, 1, 6);
        assert_eq!(r.afc_mode(), AfcMode::Backpressured);
        r.receive_control(
            PortId::Net(Direction::East),
            ControlSignal::StartCreditTracking,
            7,
        );
        r.pool_mut(Direction::East)[0] = 1;
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap();
        r.receive_flit(PortId::Net(Direction::West), flit(1, dest, 0), 7);
        r.receive_flit(PortId::Net(Direction::West), flit(2, dest, 2), 7);
        out.clear();
        r.step(7, &mut rng, &mut out);

        let mut w = SnapshotWriter::new();
        r.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();

        let node = mesh.node_at(Coord::new(1, 1)).unwrap();
        let mut restored = AfcRouter::new(node, &mesh, &net, AfcConfig::paper());
        let mut rd = SnapshotReader::new(&bytes);
        restored.load_state(&mut rd).unwrap();
        rd.finish("afc router state").unwrap();

        assert_eq!(restored.snapshot(), r.snapshot());
        assert_eq!(restored.counters(), r.counters());
        assert_eq!(restored.buffered, r.buffered);
        // The restored router must make the same arbitration decisions.
        let mut rng_a = SimRng::seed_from(99);
        let mut rng_b = SimRng::seed_from(99);
        let mut out_a = RouterOutputs::new();
        let mut out_b = RouterOutputs::new();
        for now in 8..20 {
            out_a.clear();
            out_b.clear();
            r.step(now, &mut rng_a, &mut out_a);
            restored.step(now, &mut rng_b, &mut out_b);
            for p in PortId::ALL {
                assert_eq!(out_a.flits[p], out_b.flits[p], "cycle {now}");
            }
            assert_eq!(out_a.ejected, out_b.ejected, "cycle {now}");
        }
    }

    #[test]
    fn load_rejects_out_of_range_fields() {
        use afc_netsim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
        let (mesh, net, r) = setup();
        let mut w = SnapshotWriter::new();
        r.save_state(&mut w).unwrap();
        let mut bytes = w.into_bytes();
        // Corrupt the mode tag (first byte) to an unknown value.
        bytes[0] = 9;
        let node = mesh.node_at(Coord::new(1, 1)).unwrap();
        let mut restored = AfcRouter::new(node, &mesh, &net, AfcConfig::paper());
        let mut rd = SnapshotReader::new(&bytes);
        assert!(matches!(
            restored.load_state(&mut rd),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    fn state_bytes(r: &AfcRouter) -> Vec<u8> {
        use afc_netsim::snapshot::SnapshotWriter;
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
        untracked_sends: u64,
    }

    /// Drives an always-backpressured router stepping with the route-word
    /// stage 1 ([`AfcRouter::nominate`]) beside a twin stepping with the
    /// per-slot reference walk, through the same random arrivals,
    /// injections, withheld credits, per-direction credit-tracking starts
    /// and stops and (with `faults`) link kills and revivals with their
    /// re-sync handshakes. Every step's outputs, counters and `save_state`
    /// bytes must be equal.
    fn lockstep_route_words(cfg: AfcConfig, at: Coord, faults: bool, seed: u64) -> Coverage {
        let net = NetworkConfig::paper_3x3();
        let mesh = net.mesh().unwrap();
        let node = mesh.node_at(at).unwrap();
        let build = || {
            let mut r = AfcRouter::new(node, &mesh, &net, cfg.clone());
            r.tolerate_faults = faults;
            r
        };
        let (mut a, mut b) = (build(), build());
        let dirs: Vec<Direction> = Direction::ALL
            .into_iter()
            .filter(|d| a.in_present[PortId::Net(*d).index()])
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
        let mut withheld: Vec<(Direction, VirtualNetwork)> = Vec::new();
        let mut cov = Coverage::default();
        let mut next_packet = 0u64;
        for now in 0..3000u64 {
            let at = format!("{at:?} faults={faults} cycle {now}");
            for _ in 0..rng.gen_index(6) {
                let port = match rng.gen_index(dirs.len() + 1) {
                    i if i < dirs.len() => PortId::Net(dirs[i]),
                    _ => PortId::Local,
                };
                let vnet = rng.gen_index(net.vnets.len());
                if a.bank_free_in(port, vnet) == 0 {
                    continue;
                }
                next_packet += 1;
                let dest = NodeId::new(rng.gen_index(mesh.node_count()));
                let f = flit(next_packet, dest, vnet as u8);
                if port == PortId::Local {
                    assert!(a.injection_ready(&f, now) && b.injection_ready(&f, now));
                    a.inject(f, now);
                    b.inject(f, now);
                } else {
                    a.receive_flit(port, f, now);
                    b.receive_flit(port, f, now);
                }
            }
            if rng.gen_bool(0.02) {
                let d = dirs[rng.gen_index(dirs.len())];
                let signal = if a.tracking[d] {
                    ControlSignal::StopCreditTracking
                } else {
                    ControlSignal::StartCreditTracking
                };
                a.receive_control(PortId::Net(d), signal, now);
                b.receive_control(PortId::Net(d), signal, now);
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
            for &d in &dirs {
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

            out_a.clear();
            out_b.clear();
            let (mut rng_a, mut rng_b) = (SimRng::seed_from(now), SimRng::seed_from(now));
            a.step_with(now, &mut rng_a, &mut out_a, AfcRouter::nominate);
            b.step_with(now, &mut rng_b, &mut out_b, AfcRouter::nominate_per_slot);
            assert_eq!(a.afc_mode(), AfcMode::Backpressured, "{at}");
            assert_eq!(out_a.flits, out_b.flits, "{at}: flits");
            assert_eq!(out_a.credits, out_b.credits, "{at}: credits");
            assert_eq!(out_a.control, out_b.control, "{at}: control");
            assert_eq!(out_a.ejected, out_b.ejected, "{at}: ejected");
            assert_eq!(out_a.dropped, out_b.dropped, "{at}: dropped");
            assert_eq!(a.counters(), b.counters(), "{at}: counters");
            assert_eq!(state_bytes(&a), state_bytes(&b), "{at}: state bytes");
            cov.dropped += out_a.dropped.len();
            for &d in &dirs {
                if let Some(f) = out_a.flits[PortId::Net(d)] {
                    if a.tracking[d] {
                        withheld.push((d, f.vnet));
                    } else {
                        cov.untracked_sends += 1;
                    }
                }
            }
            // Downstream frees slots at random, and not at all in every
            // third hundred-cycle window, so banks back up to stalls.
            let starved = now % 300 >= 200;
            withheld.retain(|&(d, vnet)| {
                // A dead link's reverse wire carries no credits.
                let keep = starved || a.fa.dead_out(d) || rng.gen_bool(0.6);
                if !keep {
                    a.receive_credit(PortId::Net(d), Credit::Vnet(vnet), now);
                    b.receive_credit(PortId::Net(d), Credit::Vnet(vnet), now);
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
    fn route_word_stage1_matches_per_slot_reference() {
        let paper = AfcConfig::paper_always_backpressured();
        let narrow = AfcConfig {
            control_vcs: 7,
            data_vcs: 12,
            ..paper.clone()
        };
        let cases = [
            (paper.clone(), Coord::new(1, 1), false),
            (narrow.clone(), Coord::new(0, 0), false),
            (paper.clone(), Coord::new(1, 0), true),
            (narrow, Coord::new(1, 1), true),
        ];
        for (i, (cfg, at, faults)) in cases.into_iter().enumerate() {
            let cov = lockstep_route_words(cfg, at, faults, 0xaf_c0 + i as u64);
            let label = format!("case {i}: {cov:?}");
            assert!(cov.grants > 1000 && cov.stalls > 0, "{label}");
            assert!(cov.untracked_sends > 0, "{label}");
            if faults {
                assert!(cov.reroutes > 0 && cov.dropped > 0, "{label}");
                assert!(cov.resync_waits > 0, "{label}");
            }
        }
    }

    #[test]
    fn factory_metadata() {
        let f = AfcFactory::paper();
        assert_eq!(f.name(), "afc");
        assert_eq!(f.flit_width_bits(), 49);
        assert_eq!(f.buffer_flits_per_port(&NetworkConfig::paper_3x3()), 32);
        assert_eq!(AfcFactory::always_backpressured().name(), "afc-always-bp");
    }

    /// The hot header (DESIGN.md §16.1) in its three groups: what every
    /// cycle reads (400 bytes), what the backpressured datapath adds (to
    /// 768), the deflection latch bank (to 968); the cold fields follow.
    /// The router is 1 224 bytes, 1 376 before the split.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn layout_pins() {
        use std::mem::{offset_of, size_of};
        type R = AfcRouter;
        assert_eq!(offset_of!(R, counters), 0);
        let shared_end = offset_of!(R, overflow_scratch) + size_of::<Vec<Flit>>();
        assert_eq!((shared_end, offset_of!(R, occ_bits)), (400, 400));
        let bp_end = offset_of!(R, mesh) + size_of::<Mesh>();
        assert_eq!((bp_end, offset_of!(R, bank)), (768, 768));
        let header_end = offset_of!(R, bank) + size_of::<LatchBank>();
        assert_eq!((header_end, offset_of!(R, transition_len)), (968, 968));
        assert!(offset_of!(R, cfg) > header_end && offset_of!(R, fa) > header_end);
        assert_eq!(size_of::<R>(), 1224);
    }
}
