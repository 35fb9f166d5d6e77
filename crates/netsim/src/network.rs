//! The network engine: wires routers, channels and network interfaces
//! together and advances them cycle by cycle.
//!
//! ## One kernel, two schedules (DESIGN.md §8)
//!
//! What happens to a link, an NI or a router when a cycle visits it is
//! written once, in `kernel.rs`. This file owns the *frame* every
//! cycle shares — fault detection, NACK/ack queue retirement, NI sideband
//! collection, the end-of-cycle block — and the serial *schedule*: one walk
//! per phase in ascending index order, over the link wheel's arrival masks
//! (the links something reaches this cycle) and the activity bitmasks
//! (routers, sending NIs), skipping quiescent routers and replaying their
//! idle cycles in bulk when they re-activate. Every fault plan runs on it:
//! the fault RNG is drawn only as a flit or credit arrives, in ascending
//! link order. The other schedule, one node range per thread, is
//! `parallel.rs`; `parallel::gate` picks per cycle. Both are compiled
//! against the router type of the network's bank
//! ([`RouterFactory::build_bank`]), chosen once at construction. Their
//! second opinion is `tests/common/lockstep.rs`, a naive stepper run in
//! lockstep with both on random configurations.

use crate::channel::LinkWheel;
use crate::config::NetworkConfig;
use crate::counters::ActivityCounters;
use crate::error::SimError;
use crate::faults::{FaultEvent, FaultPlane, LinkEvent};
use crate::flit::{Cycle, Flit, PacketId};
use crate::geom::{DirMap, Direction, NodeId};
use crate::kernel::{walk, Accum, Bits, Cx, DueQueue, FaultLog, Frame, Nodes};
use crate::ni::{NodeInterface, UnreachablePacket};
use crate::packet::{DeliveredPacket, PacketDescriptor, PacketInput, PacketTable};
use crate::rng::SimRng;
use crate::router::{alloc_rings, Router, RouterBank, RouterFactory, RouterMode, RouterOutputs};
use crate::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::NetworkStats;
use crate::topology::Mesh;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Endpoints of one directed channel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChannelEnds {
    pub(crate) from: NodeId,
    pub(crate) dir: Direction,
    pub(crate) to: NodeId,
}

/// A fixed-size dirty bitmask over component indices.
///
/// Members are iterated in ascending order (word by word, lowest set bit
/// first), which is what keeps the active-set walk order identical to a
/// full `0..n` scan. Inserting an already-present member or removing an
/// absent one is a no-op, so the sets may safely be conservative
/// supersets of the truly active components.
#[derive(Debug)]
pub(crate) struct ActiveSet {
    /// Bitmask words. Atomic so the shards of a sharded cycle can share them
    /// (`parallel.rs`); through `&mut` they are plain words (`get_mut`), and
    /// a `Relaxed` load is a plain load.
    pub(crate) words: Box<[AtomicU64]>,
}

impl ActiveSet {
    fn empty(len: usize) -> ActiveSet {
        ActiveSet {
            words: (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn full(len: usize) -> ActiveSet {
        let mut set = ActiveSet::empty(len);
        set.words.iter_mut().for_each(|w| *w.get_mut() = !0u64);
        if !len.is_multiple_of(64) {
            if let Some(last) = set.words.last_mut() {
                *last.get_mut() = (1u64 << (len % 64)) - 1;
            }
        }
        set
    }

    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        *self.words[i >> 6].get_mut() |= 1u64 << (i & 63);
    }

    /// Heap bytes of the bitmask (1 bit per component).
    fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<AtomicU64>()
    }

    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words
            .get(i >> 6)
            .is_some_and(|w| w.load(Relaxed) & (1u64 << (i & 63)) != 0)
    }

    /// Number of set bits (activity-threshold heuristic for the parallel
    /// engine's serial fallback).
    #[inline]
    pub(crate) fn popcount(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Relaxed).count_ones() as usize)
            .sum()
    }

    fn put(&self, w: &mut SnapshotWriter) {
        self.words.iter().for_each(|word| word.load(Relaxed).put(w));
    }

    /// Loads in place what [`ActiveSet::put`] wrote for a set over `len`
    /// members, rejecting stray bits beyond the member range.
    fn load(&mut self, r: &mut SnapshotReader<'_>, len: usize) -> Result<(), SnapshotError> {
        for word in self.words.iter_mut() {
            word.get_mut().load(r)?;
        }
        let last = self.words.last().map_or(0, |word| word.load(Relaxed));
        match len.is_multiple_of(64) || last >> (len % 64) == 0 {
            true => Ok(()),
            false => Err(SnapshotError::Malformed {
                what: "active-set tail bits",
            }),
        }
    }
}

/// The run's fault log, capped at [`Network::FAULT_LOG_CAP`] events. The
/// serial walk raises events in log order, so the tags go unused.
impl FaultLog for &mut Vec<FaultEvent> {
    fn log(&mut self, _c: usize, _is_flit: bool, ev: FaultEvent) {
        if self.len() < Network::FAULT_LOG_CAP {
            self.push(ev);
        }
    }
}

/// The serial schedule's view: the whole network, touched directly.
type SerialCx<'a, R> = Cx<'a, R, &'a mut [AtomicU64], &'a mut Vec<FaultEvent>>;

/// Phases 1–3 of one cycle compiled against one router type: what a bank
/// hands the network at construction ([`Network::cycle_phases`]).
pub(crate) type Kernel =
    fn(&mut Network, &mut PhaseProfile, &mut Option<std::time::Instant>) -> Result<(), SimError>;

/// Phase 1 of the serial schedule for link `c`: the reverse side, then the
/// flit, each read only if its arrival bit is set.
fn deliver_channel<R: Router>(cx: &mut SerialCx<'_, R>, c: usize) -> Result<(), SimError> {
    let lanes = &cx.own.lanes;
    let (fwd, rev) = (lanes.has_fwd(c), lanes.has_rev(c));
    debug_assert!(
        (lanes.flit_at(c).is_some(), lanes.rev_at(c).is_some()) == (fwd, rev),
        "link {c}: arrival masks disagree with the stamps"
    );
    if rev {
        cx.deliver_reverse(c);
    }
    match fwd.then(|| cx.own.lanes.flit_at(c)).flatten() {
        Some(flit) => cx.deliver_flit(c, flit),
        None => Ok(()),
    }
}

/// Approximate heap usage of a [`Network`], broken down by component
/// class. Produced by [`Network::memory_footprint`].
///
/// Byte counts are capacity-based estimates (they track what the
/// allocator holds, not what is momentarily initialized) and are intended
/// for *scaling* audits — per-node cost must stay flat as the mesh grows
/// — rather than exact accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Routers: the bank's router structs, and their buffers, latches,
    /// scratch and fault state.
    pub router_bytes: usize,
    /// Network interfaces: queues, reassembly, retransmit state.
    pub ni_bytes: usize,
    /// Channels: the link-wheel slabs and the channel endpoint table.
    pub channel_bytes: usize,
    /// Parallel engine: plan tables and per-shard deltas (0 when serial).
    pub engine_bytes: usize,
    /// Everything else: stats, staging, activity bitmasks, queues, logs.
    pub other_bytes: usize,
    /// Mesh nodes, for per-node normalization.
    pub nodes: usize,
}

impl MemoryFootprint {
    /// Sum over all component classes.
    pub fn total_bytes(&self) -> usize {
        self.router_bytes
            + self.ni_bytes
            + self.channel_bytes
            + self.engine_bytes
            + self.other_bytes
    }

    /// Total divided by node count — the number that must stay bounded as
    /// the mesh scales from 8×8 to 128×128.
    pub fn per_node_bytes(&self) -> usize {
        self.total_bytes() / self.nodes.max(1)
    }
}

/// Wall-clock attribution of [`Network::try_step`] time to engine phases,
/// accumulated while [`Network::set_phase_profiling`] is enabled.
///
/// Categories follow the cycle structure (see `try_step`): `channel_ns`
/// covers link-wheel delivery (phase 1 — pushes are part of the router
/// walk, and nothing advances); `ni_ns` covers the
/// NACK/ack/timeout plumbing and injection (phases 2a/2b/3b); `router_ns`
/// is the router pipeline walk (phase 3); `merge_ns` is the whole of a
/// sharded cycle's phases 1–3 — the region, both barrier crossings and the
/// epilogue's fold, unsplit (zero on serial runs);
/// `other_ns` is fault detection, stats and watchdog bookkeeping.
///
/// This is an observer, not simulation state: it is never snapshotted and
/// enabling it changes no results. The `Instant` reads themselves cost a
/// few tens of nanoseconds per phase boundary, so profiled ns/cycle runs
/// slightly above an unprofiled run — compare phase *shares* against an
/// unprofiled total, not absolute sums.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Channel delivery (phase 1).
    pub channel_ns: u64,
    /// NI work: NACK/ack/timeouts, injection, corrupt/ack pickup (2a/2b/3b).
    pub ni_ns: u64,
    /// Router pipeline steps (phase 3).
    pub router_ns: u64,
    /// Sharded cycles' phases 1–3: region, barriers and fold (0 serial).
    pub merge_ns: u64,
    /// Fault detection, stats, watchdog, and remaining bookkeeping.
    pub other_ns: u64,
    /// Cycles accumulated into the counters above.
    pub cycles: u64,
}

/// Advances a lap timer: returns nanoseconds since the previous lap and
/// restarts it. A `None` timer (profiling disabled) costs one branch.
#[inline]
fn lap_ns(lap: &mut Option<std::time::Instant>) -> u64 {
    match lap.as_mut() {
        Some(t) => {
            let ns = t.elapsed().as_nanos() as u64;
            *t = std::time::Instant::now();
            ns
        }
        None => 0,
    }
}

/// A complete simulated network: routers, channels and network interfaces.
///
/// Construct via [`Network::new`] with a [`RouterFactory`] selecting the
/// flow-control mechanism, then drive with [`Network::step`] — usually
/// indirectly through [`Simulation`](crate::sim::Simulation).
pub struct Network {
    pub(crate) mesh: Mesh,
    pub(crate) config: NetworkConfig,
    mechanism: &'static str,
    flit_width_bits: u32,
    buffer_flits_per_port: usize,
    /// One router per node, by value ([`RouterFactory::build_bank`]).
    pub(crate) routers: Box<dyn RouterBank>,
    /// [`Network::cycle_phases`] for the bank's router type.
    kernel: Kernel,
    pub(crate) nis: Vec<NodeInterface>,
    /// Every link's forward and reverse lane (indexed like `ends`).
    pub(crate) wheel: LinkWheel,
    pub(crate) ends: Vec<ChannelEnds>,
    /// Outgoing channel index per (node, direction).
    pub(crate) out_chan: Vec<DirMap<Option<usize>>>,
    /// Incoming channel index per (node, direction of the input port).
    pub(crate) in_chan: Vec<DirMap<Option<usize>>>,
    pub(crate) now: Cycle,
    pub(crate) rng: SimRng,
    /// Independent RNG stream for the fault plane: drawing fault outcomes
    /// never perturbs router/traffic randomness, so a run with an empty
    /// `FaultPlan` is bit-identical to one built before faults existed.
    fault_rng: SimRng,
    /// `config.faults` compiled against this network's links and nodes
    /// (static per configuration); the parallel engine's plans share it.
    pub(crate) fault_plane: Arc<FaultPlane>,
    /// Run totals: statistics, audit counters, in-flight gauges, mode
    /// residency counts and the NACK circuit. The serial schedule's bodies
    /// fill it directly; a sharded cycle merges its shard deltas into it.
    pub(crate) acc: Accum,
    /// Creation cycle, kind and tag of every offered, undelivered packet
    /// (DESIGN.md §16.7); its window's end is the next packet id. Written by
    /// `offer_packet`, delivery pickup and the give-up log, all serial; the
    /// cycle's phases read it through their frame.
    pub(crate) packets: PacketTable,
    scratch: RouterOutputs,
    /// End-to-end acknowledgements riding back to packet sources, due at
    /// their arrival cycle: `(source node, packet)`.
    pub(crate) ack_queue: DueQueue<(NodeId, PacketId)>,
    /// Log of injected faults (capped at [`Network::FAULT_LOG_CAP`]).
    pub(crate) fault_log: Vec<FaultEvent>,
    /// Deterministic fault-detection schedule derived from the fault plan's
    /// alive-state timeline (kills *and* revivals), in firing order with
    /// per-link epochs. Static per configuration — not snapshotted.
    detect_schedule: Vec<LinkEvent>,
    /// Next [`Network::detect_schedule`] entry to fire (derived from `now`
    /// on snapshot load).
    detect_next: usize,
    /// Run-wide log of packets retired as unreachable (bounded retransmit
    /// exhausted) — the structured per-packet outcome of DESIGN.md §13.
    pub(crate) unreachable_packets: Vec<UnreachablePacket>,
    /// Stall watchdog: progress counter sample and the cycle it last moved.
    pub(crate) last_progress: u64,
    pub(crate) last_progress_cycle: Cycle,
    /// Flits that were already in flight when metrics were last reset
    /// (anchors the conservation audit).
    audit_baseline: usize,
    /// When enabled, every offered packet is logged for trace capture.
    offer_log: Option<Vec<(Cycle, NodeId, PacketInput)>>,
    /// Routers that must be stepped: everything not proven quiescent.
    pub(crate) router_active: ActiveSet,
    /// NIs with send-side work (queued packets or pending retransmits).
    pub(crate) ni_send_active: ActiveSet,
    /// NIs holding completed packets awaiting [`Network::take_delivered`].
    pub(crate) ni_delivered: ActiveSet,
    /// Per-router cycle up to which counters are accounted: counters of
    /// router `i` reflect cycles `[reset, accounted_upto[i])`; the gap to
    /// `now` is idle cycles pending bulk replay.
    pub(crate) accounted_upto: Vec<Cycle>,
    /// Cached post-step router modes (`acc.mode_counts` holds the
    /// residency counts) so per-cycle mode stats are O(1), not O(n).
    pub(crate) modes_cache: Vec<RouterMode>,
    /// Debug-build cross-checking of the incremental accounting against a
    /// from-scratch recount. Disabled only by tests that install
    /// deliberately conservation-violating routers.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) check_conservation: bool,
    /// Worker-thread budget for the intra-run parallel engine; `1` steps
    /// serially. Not part of snapshots (DESIGN.md §12).
    pub(crate) sim_threads: usize,
    /// Lazily-built shard plan + thread pool for the current budget.
    pub(crate) engine: Option<crate::parallel::Engine>,
    /// Cycles stepped by the parallel engine (diagnostic, never saved).
    pub(crate) parallel_cycles: u64,
    /// Activity floor of the engine gate (see
    /// [`Network::set_parallel_threshold`]).
    pub(crate) par_min_active: usize,
    /// High-water mark of [`Network::memory_footprint`] samples.
    pub(crate) mem_high_water: usize,
    /// Per-phase wall-clock attribution (see [`PhaseProfile`]); `None`
    /// unless enabled. Observer state: never snapshotted, kept across a
    /// restore exactly like the thread budget.
    phase_profile: Option<Box<PhaseProfile>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("mechanism", &self.mechanism)
            .field("mesh", &self.mesh)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Maximum fault events retained in the fault log.
    pub const FAULT_LOG_CAP: usize = 65_536;

    /// Maximum [`UnreachablePacket`] records retained; the log is a ring —
    /// the *oldest* records are dropped past the cap, and
    /// [`NetworkStats::unreachable_records_dropped`] counts the evictions.
    /// Long churn runs would otherwise grow the log without bound.
    pub const UNREACHABLE_LOG_CAP: usize = 16_384;

    /// Builds a network from a validated configuration, a router factory and
    /// an RNG seed. It starts on the tracked walk with `config.sim_threads`
    /// and the default engine gate; the setters below change that.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`](crate::error::ConfigError) from
    /// [`NetworkConfig::validate`], then from the factory's
    /// [`RouterFactory::validate`].
    ///
    /// # Panics
    ///
    /// If [`RouterFactory::build_bank`] builds other than one router per
    /// node.
    pub fn new(
        config: NetworkConfig,
        factory: &dyn RouterFactory,
        seed: u64,
    ) -> Result<Network, crate::error::ConfigError> {
        config.validate()?;
        factory.validate(&config)?;
        let mesh = config.mesh()?;
        let n = mesh.node_count();
        let buffer_flits_per_port = factory.buffer_flits_per_port(&config);
        let routers = Self::build_routers(factory, &mesh, &config);
        let nis: Vec<NodeInterface> = mesh
            .nodes()
            .map(|node| {
                let mut ni = NodeInterface::new(node, config.vnet_count());
                if let Some(r) = config.retransmit {
                    ni.enable_recovery(r);
                }
                ni
            })
            .collect();

        let mut ends = Vec::new();
        let mut out_chan: Vec<DirMap<Option<usize>>> = vec![DirMap::default(); n];
        let mut in_chan: Vec<DirMap<Option<usize>>> = vec![DirMap::default(); n];
        for node in mesh.nodes() {
            for dir in Direction::ALL {
                if let Some(nb) = mesh.neighbor(node, dir) {
                    let idx = ends.len();
                    ends.push(ChannelEnds {
                        from: node,
                        dir,
                        to: nb,
                    });
                    out_chan[node.index()][dir] = Some(idx);
                    in_chan[nb.index()][dir.opposite()] = Some(idx);
                }
            }
        }
        let lane_ends: Vec<_> = (ends.iter())
            .map(|e| (e.from.index(), e.to.index()))
            .collect();
        let wheel = LinkWheel::new(n, &lane_ends, config.link_latency);
        let rng = SimRng::seed_from(seed);
        let fault_rng = rng.fork(0x00FA_0171);
        let detect_schedule = config.faults.event_schedule(&mesh);
        let links = ends.iter().map(|e| (e.from, e.dir));
        let fault_plane = Arc::new(FaultPlane::compile(&config.faults, &mesh, links));
        let (mut modes_cache, mut acc) = (Vec::new(), Accum::default());
        Self::recount_modes(&*routers, &mut modes_cache, &mut acc.mode_counts);
        let sim_threads = config.sim_threads;

        Ok(Network {
            mesh,
            config,
            mechanism: factory.name(),
            flit_width_bits: factory.flit_width_bits(),
            buffer_flits_per_port,
            kernel: routers.kernel(),
            routers,
            nis,
            wheel,
            ends,
            out_chan,
            in_chan,
            now: 0,
            rng,
            fault_rng,
            fault_plane,
            acc,
            packets: PacketTable::default(),
            scratch: RouterOutputs::new(),
            ack_queue: DueQueue::default(),
            fault_log: Vec::new(),
            detect_schedule,
            detect_next: 0,
            unreachable_packets: Vec::new(),
            last_progress: 0,
            last_progress_cycle: 0,
            audit_baseline: 0,
            offer_log: None,
            // Conservative starts: every router/NI walks until it proves
            // itself inactive (unknown implementations default to
            // never-quiescent and simply stay on the always-step path).
            router_active: ActiveSet::full(n),
            ni_send_active: ActiveSet::full(n),
            ni_delivered: ActiveSet::empty(n),
            accounted_upto: vec![0; n],
            modes_cache,
            check_conservation: true,
            sim_threads,
            engine: None,
            parallel_cycles: 0,
            par_min_active: crate::parallel::MIN_ACTIVE,
            mem_high_water: 0,
            phase_profile: None,
        })
    }

    /// Every node's router from `factory`: every node's flit rings first,
    /// then the bank. Built node by node, each 17 920 / 8 960-byte (bp /
    /// AFC) ring sat between two routers' ~2.5 KB of structs and side
    /// slabs, a page per 32×32 router (EXPERIMENTS.md "Router state
    /// placement"); the bank holds the structs in one slab after them.
    pub(crate) fn build_routers<F: RouterFactory + ?Sized>(
        factory: &F,
        mesh: &Mesh,
        config: &NetworkConfig,
    ) -> Box<dyn RouterBank> {
        let n = mesh.node_count();
        let flits_per_port = factory.buffer_flits_per_port(config);
        let rings: Vec<Box<[Flit]>> = (0..n).map(|_| alloc_rings(flits_per_port)).collect();
        let bank = factory.build_bank(mesh, config, rings);
        assert_eq!(bank.len(), n, "{}: one router per node", factory.name());
        bank
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The mesh topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Mechanism name from the router factory.
    pub fn mechanism(&self) -> &'static str {
        self.mechanism
    }

    /// Flit width in bits (for energy accounting).
    pub fn flit_width_bits(&self) -> u32 {
        self.flit_width_bits
    }

    /// Instantiated buffer capacity per input port in flits (for energy
    /// accounting; 0 for bufferless mechanisms).
    pub fn buffer_flits_per_port(&self) -> usize {
        self.buffer_flits_per_port
    }

    /// Cumulative run statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.acc.stats
    }

    /// Read access to a node's router (e.g. for mode inspection).
    pub fn router(&self, node: NodeId) -> &dyn Router {
        self.routers.router(node.index())
    }

    /// Read access to a node's network interface.
    pub fn ni(&self, node: NodeId) -> &NodeInterface {
        &self.nis[node.index()]
    }

    /// Enables (or disables) per-phase wall-clock attribution; enabling
    /// resets the accumulated [`PhaseProfile`]. Purely an observer —
    /// results are byte-identical either way, only `try_step` gains a few
    /// `Instant` reads per cycle while enabled.
    pub fn set_phase_profiling(&mut self, on: bool) {
        self.phase_profile = on.then(|| Box::new(PhaseProfile::default()));
    }

    /// Accumulated per-phase attribution since profiling was enabled, or
    /// `None` when [`Network::set_phase_profiling`] is off.
    pub fn phase_profile(&self) -> Option<PhaseProfile> {
        self.phase_profile.as_deref().copied()
    }

    /// Sets the intra-run parallel engine's thread budget (`1` = serial),
    /// mid-run too: only wall-clock time changes. The budget is clamped to
    /// `1..=`[`MAX_SIM_THREADS`](crate::config::MAX_SIM_THREADS). The old
    /// thread pool is torn down; the next sharded cycle builds the new one.
    pub fn set_sim_threads(&mut self, threads: usize) {
        let threads = threads.clamp(1, crate::parallel::MAX_SIM_THREADS);
        if threads != self.sim_threads {
            self.sim_threads = threads;
            self.engine = None;
        }
    }

    /// Cycles stepped by the parallel engine so far: not simulation state,
    /// but — the gate reading only simulation state — the same across runs
    /// of one configuration, seed, budget and floor.
    pub fn parallel_cycles(&self) -> u64 {
        self.parallel_cycles
    }

    /// Overrides the engine gate's floor: a cycle shards only when at
    /// least `min_active` routers, channels and sending NIs are active
    /// (`0`: every eligible cycle, `usize::MAX`: none). Results are the same.
    pub fn set_parallel_threshold(&mut self, min_active: usize) {
        self.par_min_active = min_active;
    }

    /// Walks every component and totals approximate heap usage, updating
    /// the high-water mark ([`Network::memory_high_water`]).
    ///
    /// This is the large-mesh leanness audit: per-node cost must stay
    /// O(ports × VCs × traffic-through-the-node) — the only O(mesh) terms
    /// allowed are the compact flat index tables listed in
    /// [`MemoryFootprint::engine_bytes`] and the per-component vectors
    /// themselves. O(n) walk; call it between runs, not per cycle.
    pub fn memory_footprint(&mut self) -> MemoryFootprint {
        use std::mem::size_of;
        let router_bytes: usize =
            self.routers.iter().map(|r| r.heap_bytes()).sum::<usize>() + self.routers.slab_bytes();
        let ni_bytes: usize = self
            .nis
            .iter()
            .map(NodeInterface::heap_bytes)
            .sum::<usize>()
            + self.nis.capacity() * size_of::<NodeInterface>();
        let channel_bytes: usize =
            self.wheel.heap_bytes() + self.ends.capacity() * size_of::<ChannelEnds>();
        let engine_bytes = self.engine.as_ref().map_or(0, |e| e.heap_bytes());
        let other_bytes = self.acc.heap_bytes()
            + self.scratch.heap_bytes()
            + (self.out_chan.capacity() + self.in_chan.capacity())
                * size_of::<DirMap<Option<usize>>>()
            + self.ack_queue.heap_bytes()
            + self.packets.heap_bytes()
            + self.fault_log.capacity() * size_of::<FaultEvent>()
            + self.fault_plane.heap_bytes()
            + self.detect_schedule.capacity() * size_of::<LinkEvent>()
            + self.unreachable_packets.capacity() * size_of::<UnreachablePacket>()
            + self.accounted_upto.capacity() * size_of::<Cycle>()
            + self.modes_cache.capacity() * size_of::<RouterMode>()
            + self.router_active.heap_bytes()
            + self.ni_send_active.heap_bytes()
            + self.ni_delivered.heap_bytes();
        let fp = MemoryFootprint {
            router_bytes,
            ni_bytes,
            channel_bytes,
            engine_bytes,
            other_bytes,
            nodes: self.nis.len(),
        };
        self.mem_high_water = self.mem_high_water.max(fp.total_bytes());
        fp
    }

    /// Largest [`Network::memory_footprint`] total sampled so far.
    pub fn memory_high_water(&self) -> usize {
        self.mem_high_water
    }

    /// Enqueues a packet for injection at `src`, assigning its id and
    /// creation timestamp. Returns the id.
    ///
    /// # Panics
    ///
    /// Panics if `input.len == 0` or the vnet is out of range (both
    /// indicate traffic-model bugs).
    pub fn offer_packet(&mut self, src: NodeId, input: PacketInput) -> PacketId {
        let id = PacketId(self.packets.end());
        let desc = PacketDescriptor {
            id,
            src,
            dest: input.dest,
            vnet: input.vnet,
            len: input.len,
            created_at: self.now,
            kind: input.kind,
            tag: input.tag,
        };
        if let Some(log) = &mut self.offer_log {
            log.push((self.now, src, input));
        }
        self.packets.push(desc.meta());
        self.ni_send_active.insert(src.index());
        self.nis[src.index()].enqueue(desc, &mut self.acc.stats);
        id
    }

    /// Starts logging every offered packet (for trace capture).
    pub fn enable_offer_recording(&mut self) {
        self.offer_log = Some(Vec::new());
    }

    /// Takes the offered-packet log recorded since
    /// [`Network::enable_offer_recording`]; recording continues.
    pub fn take_offer_log(&mut self) -> Vec<(Cycle, NodeId, PacketInput)> {
        self.offer_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Advances the simulation one cycle (three phases — see crate docs).
    ///
    /// # Panics
    ///
    /// Panics if [`Network::try_step`] fails — e.g. the livelock watchdog
    /// fires or a router violates an engine invariant.
    pub fn step(&mut self) {
        if let Err(e) = self.try_step() {
            panic!("{e} (mechanism {})", self.mechanism);
        }
    }

    /// Advances the simulation one cycle, reporting watchdog and protocol
    /// failures as structured errors instead of panicking.
    ///
    /// After an error the network is mid-cycle and must not be stepped
    /// further; the error is terminal for the run.
    ///
    /// # Errors
    ///
    /// [`SimError::Stalled`] when no flit has made progress for the
    /// configured window while flits are in flight; [`SimError::FlitOverAge`]
    /// when a flit exceeds `max_flit_age`; [`SimError::Misrouted`] /
    /// [`SimError::ProtocolViolation`] on router bugs.
    pub fn try_step(&mut self) -> Result<(), SimError> {
        let now = self.now;
        let mut prof = PhaseProfile::default();
        let mut lap = self.phase_profile.is_some().then(std::time::Instant::now);

        // The frame both engines share: link events, then the serial,
        // order-sensitive head of phase 2a. Retiring the queues ahead of
        // phase 1 is legal because they touch only NI and queue state,
        // which link delivery never reads.
        self.detect_link_events(now);
        prof.other_ns += lap_ns(&mut lap);
        self.retire_queues(now);
        prof.ni_ns += lap_ns(&mut lap);

        (self.kernel)(self, &mut prof, &mut lap)?;

        self.collect_ni_sideband(now);
        prof.ni_ns += lap_ns(&mut lap);
        self.end_cycle()?;
        if let Some(p) = self.phase_profile.as_deref_mut() {
            p.channel_ns += prof.channel_ns;
            p.ni_ns += prof.ni_ns;
            p.router_ns += prof.router_ns;
            p.merge_ns += prof.merge_ns;
            p.other_ns += prof.other_ns + lap_ns(&mut lap);
            p.cycles += 1;
        }
        Ok(())
    }

    /// Phase 0: deterministic fault/repair detection. Each alive-state
    /// transition of a link is reported a fixed number of cycles after it
    /// happens (the plan's detection delay — modeling a local
    /// credit/progress timeout without any wall clock). Kills go to the
    /// upstream router only; revivals go to *both* endpoints at the same
    /// cycle so the downstream end can run its half of the credit re-sync
    /// handshake (DESIGN.md §15) — the gossiped duplicate the downstream
    /// would otherwise relearn later is rejected by the epoch filter.
    fn detect_link_events(&mut self, now: Cycle) {
        while self.detect_next < self.detect_schedule.len()
            && self.detect_schedule[self.detect_next].detect_at <= now
        {
            let ev = self.detect_schedule[self.detect_next];
            self.detect_next += 1;
            self.routers
                .router_mut(ev.node.index())
                .note_link_event(ev.node, ev.dir, ev.epoch, ev.alive, now);
            self.router_active.insert(ev.node.index());
            if ev.alive {
                if let Some(down) = self.mesh.neighbor(ev.node, ev.dir) {
                    self.routers
                        .router_mut(down.index())
                        .note_link_event(ev.node, ev.dir, ev.epoch, ev.alive, now);
                    self.router_active.insert(down.index());
                }
                self.acc.stats.links_revived += 1;
            } else {
                self.acc.stats.links_failed += 1;
                self.acc
                    .stats
                    .fault_detection_latency
                    .record(self.config.faults.detection_delay);
            }
        }
    }

    /// Phase 2a, serial head: NACKs that have reached their source become
    /// pending retransmissions and end-to-end acks retire outstanding
    /// packets. Both queues retire entries with order-sensitive
    /// `swap_remove`s ([`DueQueue::retire`]), so no schedule shards them.
    fn retire_queues(&mut self, now: Cycle) {
        let recovery = self.config.retransmit.is_some();
        self.acc.nack_queue.retire(now, |flit| {
            let src = flit.src.index();
            self.nis[src].nack(flit, now, &mut self.acc.stats);
            if !recovery {
                // Without end-to-end recovery a NACK requeues the flit
                // directly; with it the copy is absorbed and the timeout
                // path re-materializes the packet.
                self.acc.retx_queued += 1;
            }
            self.ni_send_active.insert(src);
        });
        self.ack_queue.retire(now, |(src, id)| {
            self.nis[src.index()].acknowledge(id, &mut self.acc.stats);
        });
    }

    /// Phases 1 (links deliver), 2a (NI timeouts), 2b (injection) and 3
    /// (router steps), on whichever engine the gate picks, compiled against
    /// the bank's router type `R`: the network's [`Kernel`].
    pub(crate) fn cycle_phases<R: Router + 'static>(
        &mut self,
        prof: &mut PhaseProfile,
        lap: &mut Option<std::time::Instant>,
    ) -> Result<(), SimError> {
        if crate::parallel::gate(self) {
            crate::parallel::step_sharded::<R>(self)?;
            prof.merge_ns += lap_ns(lap);
            Ok(())
        } else {
            self.step_serial::<R>(prof, lap)
        }
    }

    /// The serial schedule's [`Cx`]: the cycle's frame plus exclusive
    /// access to every component, set, lane and total. The routers are the
    /// bank's `Vec<R>`, reached through one downcast. The sharded engine
    /// starts from the same view and hands node ranges of it to its
    /// workers.
    #[inline]
    pub(crate) fn view<R: Router + 'static>(&mut self) -> SerialCx<'_, R> {
        let routers: &mut Vec<R> = (self.routers.as_any_mut().downcast_mut())
            .expect("the kernel is compiled for its own bank's router type");
        Cx {
            fr: Frame {
                now: self.now,
                ends: &self.ends,
                out_chan: &self.out_chan,
                in_chan: &self.in_chan,
                mesh: &self.mesh,
                faults: &self.fault_plane,
                faults_active: !self.config.faults.is_empty(),
                config: &self.config,
                rng: &self.rng,
                packets: &self.packets,
            },
            own: Nodes {
                lo: 0,
                routers,
                nis: &mut self.nis,
                accounted_upto: &mut self.accounted_upto,
                modes_cache: &mut self.modes_cache,
                lanes: self.wheel.lanes(self.now),
            },
            acc: &mut self.acc,
            scratch: &mut self.scratch,
            fault_rng: &mut self.fault_rng,
            router_active: &mut self.router_active.words,
            ni_send_active: &mut self.ni_send_active.words,
            ni_delivered: &mut self.ni_delivered.words,
            fault_log: &mut self.fault_log,
        }
    }

    /// The serial schedule: one ascending walk per phase over the whole
    /// network, fed the wheel's arrival masks and the activity sets' words.
    /// Fault plans need no more: the fault RNG is drawn only when a flit or
    /// a credit arrives, and the walk visits arrivals in ascending link
    /// order.
    fn step_serial<R: Router + 'static>(
        &mut self,
        prof: &mut PhaseProfile,
        lap: &mut Option<std::time::Instant>,
    ) -> Result<(), SimError> {
        let (nodes, links) = (self.nis.len(), self.ends.len());
        let mut cx = self.view::<R>();

        // Phase 1: deliver what the link wheel has due this cycle, then
        // zero the read stripes' masks for the next cycle's pushes.
        walk(
            &mut cx,
            0,
            links,
            |cx, wi| cx.own.lanes.arrivals(wi),
            deliver_channel,
        )?;
        cx.own.lanes.clear_arrivals();
        prof.channel_ns += lap_ns(lap);

        // Phase 2a tail: NI retransmit timeouts, scanned every cycle.
        if cx.fr.config.retransmit.is_some() {
            for i in 0..nodes {
                cx.check_timeouts(i);
            }
        }
        // Phase 2b: injection attempts.
        walk(
            &mut cx,
            0,
            nodes,
            |cx, wi| cx.ni_send_active.word(wi),
            |cx, i| -> Result<(), SimError> {
                cx.inject(i);
                Ok(())
            },
        )?;
        prof.ni_ns += lap_ns(lap);

        // Phase 3: router pipeline steps.
        walk(
            &mut cx,
            0,
            nodes,
            |cx, wi| cx.router_active.word(wi),
            |cx, i| cx.step_one_router(i),
        )?;
        prof.router_ns += lap_ns(lap);
        Ok(())
    }

    /// Phase 3b, shared by both engines: corrupt arrivals join the NACK
    /// circuit, fresh end-to-end acks start their trip back to the source,
    /// given-up records join the run-wide log. Corrupt flits exist only
    /// under the fault plane and the rest only under recovery, so the
    /// phase is provably a no-op otherwise.
    fn collect_ni_sideband(&mut self, now: Cycle) {
        if self.config.faults.is_empty() && self.config.retransmit.is_none() {
            return;
        }
        for i in 0..self.nis.len() {
            if !self.nis[i].has_sideband() {
                continue;
            }
            for flit in self.nis[i].drain_corrupt() {
                let dist = self.mesh.distance(NodeId::new(i), flit.src) as u64;
                let ready = now + dist * self.config.link_latency + 2;
                self.acc.nack_queue.push(ready, flit);
            }
            for (src, id) in self.nis[i].drain_acks() {
                let dist = self.mesh.distance(NodeId::new(i), src) as u64;
                let ready = now + dist * self.config.link_latency;
                self.ack_queue.push(ready, (src, id));
            }
            // A given-up packet may never be delivered: its entry leaves the
            // table's window (a copy still in flight may yet deliver it).
            let from = self.unreachable_packets.len();
            self.nis[i].drain_unreachable_into(&mut self.unreachable_packets);
            for rec in &self.unreachable_packets[from..] {
                self.packets.orphan(rec.id);
            }
        }
        self.cap_unreachable_log();
    }

    /// The end-of-cycle block, shared by both engines: clock, mode
    /// residency, debug audits of the incremental accounting, and the
    /// stall watchdog.
    fn end_cycle(&mut self) -> Result<(), SimError> {
        self.now += 1;
        let stats = &mut self.acc.stats;
        stats.cycles += 1;
        stats.cycles_backpressured += self.acc.mode_counts[0] as u64;
        stats.cycles_backpressureless += self.acc.mode_counts[1] as u64;
        stats.cycles_transitioning += self.acc.mode_counts[2] as u64;
        stats.reassembly_high_water = stats.reassembly_high_water.max(self.acc.ni_high_water_max);

        #[cfg(debug_assertions)]
        if self.check_conservation {
            debug_assert_eq!(
                self.acc.in_flight,
                self.flits_in_network() as i64,
                "incremental in-flight accounting diverged"
            );
            debug_assert_eq!(
                self.acc.retx_queued,
                self.nis
                    .iter()
                    .map(NodeInterface::pending_retransmits)
                    .sum::<usize>() as i64,
                "incremental retransmit-queue accounting diverged"
            );
        }

        // Stall watchdog: flit progress is injection, delivery, or a
        // structured give-up. Retransmission deliberately does not count —
        // a source endlessly resending into a dead link is churn, not
        // progress, and must eventually trip the watchdog instead of
        // masking the wedge. Retiring a packet as unreachable *is* progress
        // (monotone and bounded by the offered-packet count), so bounded
        // recovery winds a faulted run down cleanly instead of racing the
        // watchdog through its backoff tail.
        let stats = &self.acc.stats;
        let progress = stats.flits_injected + stats.flits_delivered + stats.packets_unreachable;
        if progress != self.last_progress {
            self.last_progress = progress;
            self.last_progress_cycle = self.now;
        } else if self.config.stall_watchdog > 0
            && self.now.saturating_sub(self.last_progress_cycle) >= self.config.stall_watchdog
        {
            let in_flight = self.unaccounted_flits() as u64;
            if in_flight > 0 {
                return Err(SimError::Stalled {
                    cycle: self.now,
                    in_flight,
                    per_router_occupancy: self.routers.iter().map(|r| r.occupancy()).collect(),
                });
            }
        }
        Ok(())
    }

    /// Rebuilds the cached router modes and their residency counts from the
    /// routers themselves: construction and snapshot restore.
    fn recount_modes(routers: &dyn RouterBank, cache: &mut Vec<RouterMode>, counts: &mut [i64; 3]) {
        cache.clear();
        cache.extend(routers.iter().map(|r| r.mode()));
        *counts = [0; 3];
        for m in cache.iter() {
            counts[Self::mode_slot(*m)] += 1;
        }
    }

    pub(crate) fn mode_slot(mode: RouterMode) -> usize {
        match mode {
            RouterMode::Backpressured => 0,
            RouterMode::Backpressureless => 1,
            RouterMode::Transitioning => 2,
        }
    }

    /// Drains all completed packets from every network interface into
    /// `out` (appended in NI index order), retaining `out`'s capacity — the
    /// allocation-free form of [`Network::take_delivered`]. Their entries
    /// leave the [packet table](Network::packet_table).
    pub fn take_delivered_into(&mut self, out: &mut Vec<DeliveredPacket>) {
        let from = out.len();
        for wi in 0..self.ni_delivered.words.len() {
            let mut w = std::mem::take(self.ni_delivered.words[wi].get_mut());
            while w != 0 {
                let i = (wi << 6) + w.trailing_zeros() as usize;
                w &= w - 1;
                self.nis[i].drain_delivered_into(out);
            }
        }
        for p in &out[from..] {
            self.packets.retire(p.descriptor.id);
        }
    }

    /// The end-to-end data (creation cycle, kind, tag) of every offered
    /// packet not yet taken as delivered.
    pub fn packet_table(&self) -> &PacketTable {
        &self.packets
    }

    /// Drains all completed packets from every network interface.
    pub fn take_delivered(&mut self) -> Vec<DeliveredPacket> {
        let mut out = Vec::new();
        self.take_delivered_into(&mut out);
        out
    }

    /// Flits currently inside routers and channels (not counting NI queues),
    /// recounted from scratch. The engine tracks the same quantity
    /// incrementally (and cross-checks it in debug builds); this scan is for
    /// audits and external callers.
    pub fn flits_in_network(&self) -> usize {
        let in_routers: usize = self.routers.iter().map(|r| r.occupancy()).sum();
        in_routers + self.wheel.flits_in_flight(self.now)
    }

    /// True when no flit is anywhere in the system and all NIs are idle.
    /// O(1) whenever anything is in flight; the NI scan only runs on
    /// candidate-drained cycles.
    pub fn is_drained(&self) -> bool {
        self.acc.in_flight == 0
            && self.acc.nack_queue.is_empty()
            && self.ack_queue.is_empty()
            && self.nis.iter().all(NodeInterface::is_idle)
    }

    /// Drain residue by component — `(in-flight flits, pending NACKs,
    /// pending acks, non-idle NIs)`. All zeros iff [`Network::is_drained`];
    /// chaos/soak tests use this to say *what* failed to drain.
    pub fn drain_residue(&self) -> (usize, usize, usize, usize) {
        (
            self.acc.in_flight as usize,
            self.acc.nack_queue.len(),
            self.ack_queue.len(),
            self.nis.iter().filter(|ni| !ni.is_idle()).count(),
        )
    }

    /// The faults injected so far (capped at [`Network::FAULT_LOG_CAP`]
    /// events; [`NetworkStats::faults_injected`] keeps the true count).
    pub fn fault_log(&self) -> &[FaultEvent] {
        &self.fault_log
    }

    /// Structured per-packet records of packets retired as unreachable
    /// (bounded retransmission exhausted), in give-up order. Bounded at
    /// [`Network::UNREACHABLE_LOG_CAP`] records (oldest evicted first);
    /// [`NetworkStats::packets_unreachable`] keeps the true count and
    /// [`NetworkStats::unreachable_records_dropped`] the evictions.
    pub fn unreachable_packets(&self) -> &[UnreachablePacket] {
        &self.unreachable_packets
    }

    /// Enforces [`Network::UNREACHABLE_LOG_CAP`] on the unreachable log,
    /// evicting oldest records and counting them in the stats.
    pub(crate) fn cap_unreachable_log(&mut self) {
        if self.unreachable_packets.len() > Self::UNREACHABLE_LOG_CAP {
            let excess = self.unreachable_packets.len() - Self::UNREACHABLE_LOG_CAP;
            self.unreachable_packets.drain(..excess);
            self.acc.stats.unreachable_records_dropped += excess as u64;
        }
    }

    /// Aggregated activity counters over all routers, including idle cycles
    /// not yet replayed into skipped routers.
    pub fn total_counters(&self) -> ActivityCounters {
        let mut total = ActivityCounters::new();
        for (r, &upto) in self.routers.iter().zip(&self.accounted_upto) {
            total.merge(&r.counters_view(self.now - upto));
        }
        total
    }

    /// Activity counters of a single router (idle cycles pending replay
    /// are folded in, so the view always reads as if fully stepped).
    pub fn router_counters(&self, node: NodeId) -> ActivityCounters {
        let i = node.index();
        self.routers
            .router(i)
            .counters_view(self.now - self.accounted_upto[i])
    }

    /// Zeroes statistics and router activity counters (end-of-warmup reset).
    /// Simulation time and in-flight state are preserved.
    pub fn reset_metrics(&mut self) {
        self.acc.stats = NetworkStats::new();
        for i in 0..self.routers.len() {
            // Flush outstanding idle cycles first: the replay also advances
            // non-counter state (e.g. AFC's load monitor), which must not be
            // lost when the counters are zeroed.
            let router = self.routers.router_mut(i);
            let pending_idle = self.now - self.accounted_upto[i];
            if pending_idle > 0 {
                router.note_idle_cycles(pending_idle);
            }
            self.accounted_upto[i] = self.now;
            *router.counters_mut() = ActivityCounters::new();
        }
        self.audit_baseline = self.unaccounted_flits_recount();
        self.last_progress = 0;
        self.last_progress_cycle = self.now;
    }

    /// Replaces this network with `Network::new(config, factory, seed)`;
    /// `false`, leaving it untouched, when that refuses `config`.
    /// afc-perf only: the detached `benchmark/` crate times it as
    /// `network.reset_ms`, and it stays until ROADMAP item 9 drops that
    /// probe. Nothing in the workspace calls it.
    pub fn reset_from_config(
        &mut self,
        config: &NetworkConfig,
        factory: &dyn RouterFactory,
        seed: u64,
    ) -> bool {
        match Network::new(config.clone(), factory, seed) {
            Ok(fresh) => *self = fresh,
            Err(_) => return false,
        }
        true
    }

    /// Flits currently in limbo between injection and delivery: inside
    /// routers/channels, riding the NACK circuit, or queued for
    /// retransmission. O(1) via the engine's incremental accounting.
    pub(crate) fn unaccounted_flits(&self) -> usize {
        (self.acc.in_flight + self.acc.retx_queued) as usize + self.acc.nack_queue.len()
    }

    /// [`Network::unaccounted_flits`] recounted from actual component
    /// state. The audits must use this form: a conservation-violating
    /// router keeps the incremental counter's books balanced (the flit is
    /// counted in but never observed leaving), and only a from-scratch
    /// recount exposes the discrepancy.
    fn unaccounted_flits_recount(&self) -> usize {
        self.flits_in_network()
            + self.acc.nack_queue.len()
            + self
                .nis
                .iter()
                .map(NodeInterface::pending_retransmits)
                .sum::<usize>()
    }

    /// Disables the debug-build incremental-accounting cross-checks, for
    /// tests that install deliberately conservation-violating routers.
    #[cfg(test)]
    pub(crate) fn disable_conservation_check(&mut self) {
        self.check_conservation = false;
    }

    /// Verifies flit conservation: every flit injected (or re-materialized
    /// by a retransmit timeout) since the last metrics reset is delivered,
    /// still in flight, lost to an injected fault, discarded as a
    /// redundant retransmitted copy, or abandoned when its packet was
    /// retired as unreachable.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the imbalance — which would
    /// indicate a router silently losing or duplicating flits.
    pub fn audit(&self) -> Result<(), String> {
        let injected = self.acc.stats.flits_injected as i128;
        let copies = self.acc.stats.flits_retransmit_copies as i128;
        let delivered = self.acc.stats.flits_delivered as i128;
        let in_flight = self.unaccounted_flits_recount() as i128;
        let baseline = self.audit_baseline as i128;
        let faulted = self.acc.stats.flits_lost_to_faults as i128;
        let duplicates = self.acc.stats.duplicate_flits_discarded as i128;
        let absorbed = self.acc.stats.nacks_absorbed as i128;
        let abandoned = self.acc.stats.flits_abandoned as i128;
        if injected + baseline + copies
            == delivered + in_flight + faulted + duplicates + absorbed + abandoned
        {
            Ok(())
        } else {
            Err(format!(
                "flit conservation violated: injected {injected} + baseline {baseline} \
                 + retransmit copies {copies} != delivered {delivered} + in-flight \
                 {in_flight} + faulted {faulted} + duplicates {duplicates} + absorbed \
                 NACKs {absorbed} + abandoned {abandoned}"
            ))
        }
    }

    /// Verifies credit conservation: every credit pushed onto a reverse
    /// lane since construction is delivered upstream, lost to an injected
    /// credit fault, or still on the wire. A mismatch means a router (or an
    /// AFC mode switch) leaked or double-freed a credit.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the imbalance.
    pub fn credit_audit(&self) -> Result<(), String> {
        let on_wire = self.wheel.credits_in_flight(self.now);
        let lhs = self.acc.credits_pushed;
        let rhs = self.acc.credits_delivered + self.acc.credits_faulted + on_wire as u64;
        if lhs == rhs {
            Ok(())
        } else {
            Err(format!(
                "credit conservation violated: pushed {lhs} != delivered {} + faulted {} \
                 + on-wire {}",
                self.acc.credits_delivered, self.acc.credits_faulted, on_wire
            ))
        }
    }

    /// Per-node modes right now (useful for spatial-variation analysis).
    pub fn modes(&self) -> Vec<RouterMode> {
        self.routers.iter().map(|r| r.mode()).collect()
    }

    /// Serializes the network's complete mutable state — fingerprint,
    /// clock, RNG streams, stats, the next packet id and the packet table,
    /// routers, NIs, the link wheel, NACK/ack circuits, fault log, audit
    /// counters, and activity sets — into `w`.
    ///
    /// Static topology and configuration are *not* written: restore
    /// targets a network freshly built from the same configuration, and
    /// the embedded fingerprint (mechanism, mesh dimensions, vnet count,
    /// link latency) catches mismatches. Engine settings (thread budget,
    /// gate floor, conservation checking) are deliberately excluded — they
    /// are observer settings, not simulation state. Nor is anything the
    /// restored components determine: the wheel's arrival masks follow
    /// from its stamps.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] if any router lacks state capture.
    pub fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        // Fingerprint: everything restore() verifies before touching state.
        w.put_str(self.mechanism);
        (self.mesh.width(), self.mesh.height()).put(w);
        (self.config.vnet_count() as u32, self.config.link_latency).put(w);

        self.now.put(w);
        self.rng.put(w);
        self.fault_rng.put(w);
        self.acc.stats.put(w);
        self.packets.end().put(w);
        self.packets.put(w);
        for r in self.routers.iter() {
            r.save_state(w)?;
        }
        self.nis[..].put(w);
        self.wheel.save(w, self.now);
        self.acc.nack_queue.put(w);
        self.ack_queue.put(w);
        self.fault_log.put(w);
        self.unreachable_packets.put(w);
        self.acc.credits_pushed.put(w);
        self.acc.credits_delivered.put(w);
        self.acc.credits_faulted.put(w);
        (self.last_progress, self.last_progress_cycle).put(w);
        self.audit_baseline.put(w);
        self.offer_log.put(w);
        self.router_active.put(w);
        self.ni_send_active.put(w);
        self.ni_delivered.put(w);
        self.accounted_upto[..].put(w);
        Ok(())
    }

    /// Refuses restored state that names a packet the table does not hold,
    /// which would otherwise panic when its flit reached its destination.
    /// Every restored flit (`flits`: packet and destination) must have a
    /// live entry, unless it is a late copy of a delivered packet — an id
    /// the table has issued, headed for an NI that runs recovery and so
    /// discards it on arrival; every packet an NI holds undelivered must
    /// have one.
    fn check_packet_refs(&self, flits: Vec<(PacketId, NodeId)>) -> Result<(), SnapshotError> {
        let live = |id| self.packets.get(id).is_some();
        let late_copy = |id: PacketId, dest: NodeId| {
            id.0 < self.packets.end() && self.nis[dest.index()].has_recovery()
        };
        let flits_ok = (flits.into_iter()).all(|(id, dest)| live(id) || late_copy(id, dest));
        let mut nis_ok = true;
        for ni in &self.nis {
            ni.undelivered_packets(|id| nis_ok &= live(id));
        }
        match flits_ok && nis_ok {
            true => Ok(()),
            false => Err(SnapshotError::Malformed {
                what: "packet without a table entry",
            }),
        }
    }

    /// Restores state written by [`Network::save_state`] into this network,
    /// which must have been built from the same configuration, mechanism
    /// and seed. Derived accounting (in-flight counts, mode residency
    /// cache, retransmit-queue depth, NI high-water max) is recomputed
    /// from the restored components rather than trusted from the payload,
    /// so a decoding bug surfaces as a conservation-audit failure instead
    /// of silent drift. Every node id decoded from here on is checked
    /// against this mesh.
    ///
    /// On error the network may be partially overwritten and must be
    /// discarded; restore into a freshly constructed network.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ContextMismatch`] when the fingerprint disagrees
    /// with this network; decode errors on a malformed payload;
    /// [`SnapshotError::Unsupported`] if a router lacks state capture.
    pub fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let expect = |what, snapshot: String, current: String| match snapshot == current {
            true => Ok(()),
            false => Err(SnapshotError::ContextMismatch {
                what,
                snapshot,
                current,
            }),
        };
        expect("mechanism", String::get(r)?, self.mechanism.to_string())?;
        let (width, height): (u16, u16) = Codec::get(r)?;
        let mesh = (self.mesh.width(), self.mesh.height());
        let dims = |(w, h): (u16, u16)| format!("{w}x{h}");
        expect("mesh dimensions", dims((width, height)), dims(mesh))?;
        let vnets = self.config.vnet_count().to_string();
        expect("vnet count", u32::get(r)?.to_string(), vnets)?;
        let latency = self.config.link_latency.to_string();
        expect("link latency", u64::get(r)?.to_string(), latency)?;

        r.set_node_count(self.nis.len());
        self.now.load(r)?;
        self.rng.load(r)?;
        self.fault_rng.load(r)?;
        self.acc.stats.load(r)?;
        let next_packet_id = u64::get(r)?;
        self.packets.load(r)?;
        if self.packets.end() != next_packet_id {
            return Err(SnapshotError::Malformed {
                what: "packet table window",
            });
        }
        r.watch_flit_packets();
        for i in 0..self.routers.len() {
            self.routers.router_mut(i).load_state(r)?;
        }
        self.nis[..].load(r)?;
        self.wheel.load(r, self.now)?;
        self.acc.nack_queue.load(r)?;
        self.ack_queue.load(r)?;
        self.fault_log.load(r)?;
        self.unreachable_packets.load(r)?;
        if self.fault_log.len() > Self::FAULT_LOG_CAP
            || self.unreachable_packets.len() > Self::UNREACHABLE_LOG_CAP
        {
            return Err(SnapshotError::Malformed {
                what: "fault or unreachable log length",
            });
        }
        self.acc.credits_pushed.load(r)?;
        self.acc.credits_delivered.load(r)?;
        self.acc.credits_faulted.load(r)?;
        (self.last_progress, self.last_progress_cycle) = Codec::get(r)?;
        self.audit_baseline.load(r)?;
        self.offer_log.load(r)?;
        let n = self.nis.len();
        self.router_active.load(r, n)?;
        self.ni_send_active.load(r, n)?;
        self.ni_delivered.load(r, n)?;
        self.accounted_upto[..].load(r)?;
        // Idle cycles pending replay are `now - accounted_upto[i]`; a cursor
        // past the clock would underflow there.
        if self.accounted_upto.iter().any(|&upto| upto > self.now) {
            return Err(SnapshotError::Malformed {
                what: "router accounting ahead of the clock",
            });
        }
        self.check_packet_refs(r.take_flit_packets())?;

        // Derived accounting, recomputed from the restored components.
        Self::recount_modes(
            &*self.routers,
            &mut self.modes_cache,
            &mut self.acc.mode_counts,
        );
        self.acc.in_flight = self.flits_in_network() as i64;
        self.acc.retx_queued = self
            .nis
            .iter()
            .map(NodeInterface::pending_retransmits)
            .sum::<usize>() as i64;
        self.acc.ni_high_water_max = self
            .nis
            .iter()
            .map(NodeInterface::reassembly_high_water)
            .max()
            .unwrap_or(0);
        // The detection cursor is a pure function of the (static) schedule
        // and the restored clock: entries strictly before `now` fired
        // during already-replayed cycles.
        self.detect_next = self
            .detect_schedule
            .iter()
            .position(|ev| ev.detect_at >= self.now)
            .unwrap_or(self.detect_schedule.len());
        self.scratch.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::ni::UnreachablePacket;
    use crate::testutil::FifoFactory;

    #[test]
    fn unreachable_log_is_capped_with_oldest_evicted() {
        let mut net = Network::new(NetworkConfig::paper_3x3(), &FifoFactory::default(), 1)
            .expect("valid config");
        let record = |i: u64| UnreachablePacket {
            id: crate::flit::PacketId(i),
            src: NodeId::new(0),
            dest: NodeId::new(8),
            attempts: 1,
            gave_up_at: i,
        };
        for i in 0..(Network::UNREACHABLE_LOG_CAP as u64 + 10) {
            net.unreachable_packets.push(record(i));
        }
        net.cap_unreachable_log();
        assert_eq!(
            net.unreachable_packets().len(),
            Network::UNREACHABLE_LOG_CAP
        );
        assert_eq!(net.stats().unreachable_records_dropped, 10);
        // Oldest records went first: the head is now record 10.
        assert_eq!(net.unreachable_packets()[0].id, crate::flit::PacketId(10));
        // Under the cap, a second sweep is a no-op.
        net.cap_unreachable_log();
        assert_eq!(net.stats().unreachable_records_dropped, 10);
        assert_eq!(
            net.unreachable_packets().len(),
            Network::UNREACHABLE_LOG_CAP
        );
    }
}
