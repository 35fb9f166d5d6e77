//! The backpressureless **deflection** router (BLESS/Chaos style).
//!
//! Every incoming flit leaves on *some* output port every cycle: contending
//! flits that cannot take a productive port are deflected onto a free
//! non-productive one instead of being buffered. There are no buffers, no
//! credits, and no VCs; flits are routed flit-by-flit and reassembled at the
//! destination.
//!
//! Livelock freedom is probabilistic: following the Chaos router (and the
//! paper's Section II argument), ranking is randomized rather than
//! priority-based, making the probability that a flit never reaches its
//! destination vanish with hop count. An age-based (oldest-first, BLESS
//! style) ranking is also provided for the ablation benches.
//!
//! The router does exert backpressure on the *injection* port: a new flit is
//! accepted only if an output port would remain free after accounting for
//! this cycle's network arrivals (paper, footnote 3).

use afc_netsim::channel::{ControlSignal, Credit};
use afc_netsim::config::NetworkConfig;
use afc_netsim::counters::ActivityCounters;
use afc_netsim::fault_aware::{FaultAwareness, FaultBits, RouteOutcome};
use afc_netsim::flit::{Cycle, Flit, PacketId};
use afc_netsim::geom::{Coord, Direction, NodeId, PortId};
use afc_netsim::rng::SimRng;
use afc_netsim::router::{Router, RouterBank, RouterFactory, RouterMode, RouterOutputs};
use afc_netsim::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use afc_netsim::topology::Mesh;

/// Flit width in bits for this mechanism (32-bit payload + 13 control bits,
/// Section IV).
pub const FLIT_WIDTH_BITS: u32 = 45;

/// How contending flits are ordered before port assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankPolicy {
    /// Random ranking (Chaos-style, probabilistically livelock-free). The
    /// paper's choice, since it avoids the hardware cost of priorities.
    #[default]
    Random,
    /// Oldest-first ranking (BLESS-style deterministic livelock freedom).
    OldestFirst,
}

/// What becomes of a flit that wins no wanted output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loser {
    /// It leaves on a random free port (BLESS/Chaos; AFC's
    /// backpressureless mode).
    Deflect,
    /// It is dropped and NACKed back to its source (SCARAB).
    Drop,
}

/// A mesh router latches at most one flit per input port plus one injection.
const LATCHES: usize = 5;

/// Oldest-first order, for ejection and [`RankPolicy::OldestFirst`].
fn age_key(f: &Flit) -> (Cycle, PacketId, u16) {
    (f.injected_at, f.packet, f.seq)
}

/// The lowest `k` set bits of `mask`.
fn lowest_bits(mask: u8, k: usize) -> u8 {
    let mut rest = mask;
    for _ in 0..k.min(mask.count_ones() as usize) {
        rest &= rest - 1;
    }
    mask & !rest
}

/// The input latches of a bufferless router and the single-cycle kernel
/// that empties them — eject, rank, assign, emit — shared by the deflection
/// router, the drop router and AFC's backpressureless mode.
///
/// Everything is inline and fixed-size: the latched flits, the router's own
/// coordinate, and output ports as 4-bit masks over [`Direction::index`].
/// Ranking permutes an index array instead of moving flits, and winners are
/// written straight into [`RouterOutputs`]. The RNG draw sequence is that of
/// the historical `Vec` implementation (kept as the test reference): the
/// shuffle's draws depend only on the flit count, and the random deflection
/// pick indexes the free ports in [`Direction::ALL`] order.
#[derive(Debug, Clone)]
pub struct LatchBank {
    node: NodeId,
    at: Coord,
    mesh: Mesh,
    policy: RankPolicy,
    eject_bandwidth: usize,
    /// Network output ports present at this node, and how many.
    present: u8,
    degree: u8,
    len: u8,
    flits: [Flit; LATCHES],
}

impl LatchBank {
    /// Creates the empty bank of `node`.
    pub fn new(node: NodeId, mesh: &Mesh, policy: RankPolicy, eject_bandwidth: usize) -> LatchBank {
        let present = mesh
            .neighbor_dirs(node)
            .fold(0u8, |m, d| m | 1 << d.index());
        LatchBank {
            node,
            at: mesh.coord(node),
            mesh: mesh.clone(),
            policy,
            eject_bandwidth,
            present,
            degree: present.count_ones() as u8,
            len: 0,
            flits: [Flit::test_flit(PacketId(0), node, node); LATCHES],
        }
    }

    /// Number of network output ports.
    fn degree(&self) -> usize {
        self.degree as usize
    }

    /// The latched flits, in arrival order.
    fn flits(&self) -> &[Flit] {
        &self.flits[..self.len as usize]
    }

    /// Number of latched flits.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when nothing is latched.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards every latched flit.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Latches `flit`.
    ///
    /// # Panics
    ///
    /// Panics, in every build, past `degree + 1` flits: more arrived in one
    /// cycle than the router has input ports.
    #[inline]
    pub fn push(&mut self, flit: Flit) {
        let bound = self.degree() + 1;
        assert!(
            self.len() < bound,
            "latch overflow at {}: {} flits already latched, bound {bound}",
            self.node,
            self.len
        );
        self.flits[self.len as usize] = flit;
        self.len += 1;
    }

    /// Output ports that would remain free this cycle after ejection,
    /// assuming no further arrivals (the injection gate).
    #[inline]
    pub fn free_ports_after_ejection(&self) -> usize {
        let local = self.flits().iter().filter(|f| f.dest == self.node).count();
        let staying = self.len() - local.min(self.eject_bandwidth);
        self.degree().saturating_sub(staying)
    }

    /// Runs [`LatchBank::step_with`] against a router's fault view `fa`,
    /// whose [`FaultBits`] are `bits`: clean means plain DOR, and `fa`
    /// itself is not read; otherwise believed-dead output links are
    /// blocked and flits follow the alive-graph next hop.
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &mut self,
        loser: Loser,
        bits: FaultBits,
        fa: &mut FaultAwareness,
        held: u8,
        rng: &mut SimRng,
        out: &mut RouterOutputs,
        counters: &mut ActivityCounters,
    ) -> u8 {
        debug_assert_eq!(bits, fa.bits(), "stale fault bits");
        if bits.is_clean() {
            return self.step_with(loser, 0, held, None, rng, out, counters);
        }
        let dead = fa.dead_out_mask();
        let mut hop = |f: &Flit| fa.route(f.dest);
        self.step_with(loser, dead, held, Some(&mut hop), rng, out, counters)
    }

    /// One cycle: every latched flit leaves. Up to the ejection bandwidth
    /// of locally destined flits eject, oldest first; the rest are ranked
    /// and each takes a free wanted port — a DOR-productive one, or under
    /// `prefer` (degraded mode) the alive-graph next hop, which *replaces*
    /// the fault-blind productive set so a flit is never pulled back toward
    /// a dead link. One that gets none deflects onto a random free port or
    /// is dropped, per `loser`. Returns the mask of output ports used.
    ///
    /// `dead` and `held` ports are blocked. A drop router simply loses them;
    /// a deflecting one must find every flit a port, so it blocks only as
    /// many as it can spare — `dead` ports first, then `held`, each in
    /// [`Direction::ALL`] order — and the overflow sinks into a blocked
    /// link, where the fault plane or the downstream bank accounts for it.
    /// Deflection also retires flits `prefer` finds unreachable through
    /// `out.dropped` before ranking.
    ///
    /// # Panics
    ///
    /// Panics when deflection holds more flits than output ports — the
    /// injection gate was bypassed upstream.
    #[allow(clippy::too_many_arguments)]
    pub fn step_with(
        &mut self,
        loser: Loser,
        dead: u8,
        held: u8,
        prefer: Option<&mut dyn FnMut(&Flit) -> RouteOutcome>,
        rng: &mut SimRng,
        out: &mut RouterOutputs,
        counters: &mut ActivityCounters,
    ) -> u8 {
        let mut n = std::mem::take(&mut self.len) as usize;
        let flits = &self.flits;
        // `order[..n]` is the working list, as indices into `flits`.
        let mut order = [0u8, 1, 2, 3, 4];

        // Eject. Removal is `swap_remove` from the highest index down, the
        // historical residual order that ranking then starts from.
        let mut local = [0u8; LATCHES];
        let mut locals = 0;
        for (i, f) in flits[..n].iter().enumerate() {
            if f.dest == self.node {
                local[locals] = i as u8;
                locals += 1;
            }
        }
        if locals > self.eject_bandwidth {
            local[..locals].sort_by_key(|&i| age_key(&flits[i as usize]));
            locals = self.eject_bandwidth;
            local[..locals].sort_unstable();
        }
        for &i in &local[..locals] {
            out.ejected.push(flits[i as usize]);
        }
        for &i in local[..locals].iter().rev() {
            n -= 1;
            order[i as usize] = order[n];
        }
        counters.ejections += locals as u64;

        // Degraded mode: each flit's alive-graph hop (`Local` reads "use
        // DOR", which is all a clean run ever wants).
        let degraded = prefer.is_some();
        let mut hop = [RouteOutcome::Local; LATCHES];
        if let Some(prefer) = prefer {
            let mut kept = 0;
            for j in 0..n {
                let i = order[j] as usize;
                hop[i] = prefer(&flits[i]);
                if loser == Loser::Deflect && hop[i] == RouteOutcome::Unreachable {
                    out.dropped.push(flits[i]);
                    counters.drops += 1;
                } else {
                    order[kept] = order[j];
                    kept += 1;
                }
            }
            n = kept;
        }

        let (mut free, mut free_n) = (self.present, self.degree());
        if (dead | held) & free != 0 {
            free &= !match loser {
                Loser::Drop => dead | held,
                Loser::Deflect => {
                    let spare = free_n.saturating_sub(n);
                    let dead = lowest_bits(dead & free, spare);
                    let spare = spare - dead.count_ones() as usize;
                    dead | lowest_bits(held & free & !dead, spare)
                }
            };
            free_n = free.count_ones() as usize;
        }
        assert!(
            loser == Loser::Drop || n <= free_n,
            "deflection invariant violated at {}: {n} flits, {free_n} usable ports",
            self.node
        );

        match self.policy {
            RankPolicy::Random => rng.shuffle(&mut order[..n]),
            RankPolicy::OldestFirst => order[..n].sort_by_key(|&i| age_key(&flits[i as usize])),
        }
        counters.arbitrations += n as u64;

        let (usable, mut sent) = (free_n, 0u8);
        for &i in &order[..n] {
            let flit = &flits[i as usize];
            let (x, y) = self.productive(flit.dest);
            let wanted = match hop[i as usize] {
                RouteOutcome::Dir(d) => free & 1 << d.index(),
                RouteOutcome::Local if free & x != 0 => x,
                RouteOutcome::Local => free & y,
                RouteOutcome::Unreachable => 0,
            };
            let port = match (wanted, loser) {
                (0, Loser::Deflect) => {
                    // The k-th free port in `Direction::ALL` order.
                    let k = rng.gen_index(free_n);
                    let rest = free & !lowest_bits(free, k);
                    rest & rest.wrapping_neg()
                }
                (0, Loser::Drop) => {
                    // Contention (or an unejectable local flit): the NACK
                    // circuit triggers retransmission.
                    counters.drops += 1;
                    counters.retransmissions += 1;
                    out.dropped.push(*flit);
                    continue;
                }
                (port, _) => port,
            };
            free &= !port;
            free_n -= 1;
            sent |= port;
            let dir = Direction::ALL[port.trailing_zeros() as usize];
            let leaving = out.flits[PortId::Net(dir)].insert(*flit);
            leaving.hops += 1;
            if wanted == 0 {
                leaving.deflections = leaving.deflections.saturating_add(1);
                counters.deflections += 1;
            } else if degraded && port & (x | y) == 0 {
                counters.reroutes += 1;
            }
        }
        let moved = (usable - free_n) as u64;
        counters.crossbar_traversals += moved;
        counters.link_traversals += moved;
        sent
    }

    /// The DOR-productive ports toward `dest`, as an X and a Y one-bit mask
    /// (0 where that dimension is already correct). X goes first.
    fn productive(&self, dest: NodeId) -> (u8, u8) {
        let (at, to) = (self.at, self.mesh.coord(dest));
        let port = |toward: bool, dir: Direction| (toward as u8) << dir.index();
        (
            port(at.x < to.x, Direction::East) | port(at.x > to.x, Direction::West),
            port(at.y < to.y, Direction::South) | port(at.y > to.y, Direction::North),
        )
    }

    /// Writes the latched flits (count, then each flit).
    pub fn put(&self, w: &mut SnapshotWriter) {
        self.len().put(w);
        self.flits().put(w);
    }

    /// Restores, in place, flits written by [`LatchBank::put`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] naming `what` when the count exceeds
    /// `degree + 1`; decode errors otherwise.
    pub fn load(
        &mut self,
        r: &mut SnapshotReader<'_>,
        what: &'static str,
    ) -> Result<(), SnapshotError> {
        self.len = r.get_index(self.degree() + 2, what)? as u8;
        self.flits[..self.len as usize].load(r)
    }
}

/// A bufferless router: a [`LatchBank`] emptied every cycle, its losers
/// deflected (`DROP = false`, [`DeflectionRouter`]) or dropped (`DROP =
/// true`, [`DropRouter`](crate::drop::DropRouter)).
pub struct Bufferless<const DROP: bool> {
    bank: LatchBank,
    /// Fault mask, gossip queue and alive-graph routing table (DESIGN.md
    /// §13); clean-state steps are byte-identical to the fault-free build.
    fa: FaultAwareness,
    counters: ActivityCounters,
}

/// The deflection router.
pub type DeflectionRouter = Bufferless<false>;

impl<const DROP: bool> Bufferless<DROP> {
    const LOSER: Loser = if DROP { Loser::Drop } else { Loser::Deflect };
    const LATCH_COUNT: &'static str = if DROP {
        "drop router latch count"
    } else {
        "deflection router latch count"
    };

    /// Builds the router for `node`.
    pub fn new(node: NodeId, mesh: &Mesh, config: &NetworkConfig, policy: RankPolicy) -> Self {
        Bufferless {
            bank: LatchBank::new(node, mesh, policy, config.eject_bandwidth),
            fa: FaultAwareness::new(node, mesh.clone()),
            counters: ActivityCounters::new(),
        }
    }
}

impl<const DROP: bool> Router for Bufferless<DROP> {
    fn receive_flit(&mut self, _input: PortId, flit: Flit, _now: Cycle) {
        self.bank.push(flit);
        self.counters.latch_writes += 1;
    }

    fn receive_credit(&mut self, _output: PortId, _credit: Credit, _now: Cycle) {
        // Bufferless networks have no credits.
    }

    fn receive_control(&mut self, _output: PortId, signal: ControlSignal, now: Cycle) {
        if self.fa.on_control(signal, now).is_some() {
            self.counters.fault_notices += 1;
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
        // Bufferless and creditless: masks and the gossip flood are the
        // whole reaction, for deaths and revivals alike.
        self.fa.learn(node, dir, epoch, alive, now);
    }

    fn injection_ready(&self, _flit: &Flit, _now: Cycle) -> bool {
        // A drop router gates the same way; a losing injected flit is
        // dropped and NACKed rather than refused.
        self.bank.free_ports_after_ejection() >= 1
    }

    fn inject(&mut self, flit: Flit, _now: Cycle) {
        self.bank.push(flit);
        self.counters.latch_writes += 1;
        self.counters.injections += 1;
    }

    fn step(&mut self, _now: Cycle, rng: &mut SimRng, out: &mut RouterOutputs) {
        self.counters.cycles += 1;
        if self.fa.has_pending_gossip() {
            // Revival facts keep flooding even after this router's own
            // fault view is all-alive (clean) again.
            self.fa.drain_gossip(out);
        }
        if !self.bank.is_empty() {
            let (fa, counters) = (&mut self.fa, &mut self.counters);
            self.bank
                .step(Self::LOSER, fa.bits(), fa, 0, rng, out, counters);
        }
    }

    fn heap_bytes(&self) -> usize {
        self.fa.heap_bytes()
    }

    fn counters(&self) -> &ActivityCounters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut ActivityCounters {
        &mut self.counters
    }

    fn mode(&self) -> RouterMode {
        RouterMode::Backpressureless
    }

    fn occupancy(&self) -> usize {
        self.bank.len()
    }

    fn is_quiescent(&self) -> bool {
        // An idle step is `cycles += 1` and an early return: no RNG, no
        // outputs, nothing `note_idle_cycles`'s default can't replay.
        // Pending fault gossip keeps the router live so the flood drains.
        self.bank.is_empty() && !self.fa.has_pending_gossip()
    }

    fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.bank.put(w);
        self.counters.put(w);
        self.fa.put(w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.bank.load(r, Self::LATCH_COUNT)?;
        self.counters.load(r)?;
        self.fa.load(r)
    }
}

impl<const DROP: bool> std::fmt::Debug for Bufferless<DROP> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(if DROP {
            "DropRouter"
        } else {
            "DeflectionRouter"
        })
        .field("node", &self.bank.node)
        .field("latched", &self.bank.len())
        .finish_non_exhaustive()
    }
}

/// Factory for [`DeflectionRouter`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeflectionFactory {
    /// Ranking policy (random by default, per the paper).
    pub policy: RankPolicy,
}

impl DeflectionFactory {
    /// Creates the factory with the paper's randomized ranking.
    pub fn new() -> DeflectionFactory {
        DeflectionFactory::default()
    }

    /// Creates a factory with oldest-first (BLESS) ranking.
    pub fn oldest_first() -> DeflectionFactory {
        DeflectionFactory {
            policy: RankPolicy::OldestFirst,
        }
    }
}

impl RouterFactory for DeflectionFactory {
    fn build_bank(
        &self,
        mesh: &Mesh,
        config: &NetworkConfig,
        _rings: Vec<Box<[Flit]>>,
    ) -> Box<dyn RouterBank> {
        let bank: Vec<DeflectionRouter> = mesh
            .nodes()
            .map(|node| DeflectionRouter::new(node, mesh, config, self.policy))
            .collect();
        Box::new(bank)
    }

    fn name(&self) -> &'static str {
        match self.policy {
            RankPolicy::Random => "bless",
            RankPolicy::OldestFirst => "bless-oldest",
        }
    }

    fn flit_width_bits(&self) -> u32 {
        FLIT_WIDTH_BITS
    }

    fn buffer_flits_per_port(&self, _config: &NetworkConfig) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_netsim::flit::PacketId;
    use afc_netsim::geom::Coord;

    fn center_setup(policy: RankPolicy) -> (Mesh, NodeId, DeflectionRouter) {
        let config = NetworkConfig::paper_3x3();
        let mesh = config.mesh().unwrap();
        let node = mesh.node_at(Coord::new(1, 1)).unwrap();
        let r = DeflectionRouter::new(node, &mesh, &config, policy);
        (mesh, node, r)
    }

    fn flit_to(id: u64, dest: NodeId) -> Flit {
        Flit::test_flit(PacketId(id), NodeId::new(0), dest)
    }

    #[test]
    fn uncontended_flit_takes_productive_port() {
        let (mesh, _node, mut r) = center_setup(RankPolicy::Random);
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap(); // east
        r.receive_flit(PortId::Net(Direction::West), flit_to(1, dest), 0);
        let mut out = RouterOutputs::new();
        let mut rng = SimRng::seed_from(1);
        r.step(0, &mut rng, &mut out);
        let f = out.flits[PortId::Net(Direction::East)].expect("east is productive");
        assert_eq!(f.hops, 1);
        assert_eq!(f.deflections, 0);
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn contention_deflects_exactly_one() {
        let (mesh, _node, mut r) = center_setup(RankPolicy::Random);
        let dest = mesh.node_at(Coord::new(2, 1)).unwrap(); // east of center
        r.receive_flit(PortId::Net(Direction::West), flit_to(1, dest), 0);
        r.receive_flit(PortId::Net(Direction::North), flit_to(2, dest), 0);
        let mut out = RouterOutputs::new();
        let mut rng = SimRng::seed_from(2);
        r.step(0, &mut rng, &mut out);
        assert_eq!(out.flits_sent(), 2, "every flit leaves every cycle");
        let east = out.flits[PortId::Net(Direction::East)].expect("winner goes east");
        assert_eq!(east.deflections, 0);
        let deflected: Vec<Flit> = Direction::ALL
            .into_iter()
            .filter(|d| *d != Direction::East)
            .filter_map(|d| out.flits[PortId::Net(d)])
            .collect();
        assert_eq!(deflected.len(), 1);
        assert_eq!(deflected[0].deflections, 1);
        assert_eq!(r.counters().deflections, 1);
    }

    #[test]
    fn ejection_respects_bandwidth_and_age() {
        let (_mesh, node, mut r) = center_setup(RankPolicy::Random);
        let mut old = flit_to(1, node);
        old.injected_at = 5;
        let mut newer = flit_to(2, node);
        newer.injected_at = 9;
        r.receive_flit(PortId::Net(Direction::West), newer, 0);
        r.receive_flit(PortId::Net(Direction::East), old, 0);
        let mut out = RouterOutputs::new();
        let mut rng = SimRng::seed_from(3);
        r.step(0, &mut rng, &mut out);
        // eject_bandwidth = 1: the older flit ejects, the newer one deflects.
        assert_eq!(out.ejected.len(), 1);
        assert_eq!(out.ejected[0].packet, PacketId(1));
        assert_eq!(out.flits_sent(), 1);
        let deflected = Direction::ALL
            .into_iter()
            .find_map(|d| out.flits[PortId::Net(d)])
            .unwrap();
        assert_eq!(deflected.packet, PacketId(2));
        assert_eq!(deflected.deflections, 1);
    }

    #[test]
    fn injection_gated_by_free_ports() {
        let (mesh, node, mut r) = center_setup(RankPolicy::Random);
        let far = mesh.node_at(Coord::new(0, 0)).unwrap();
        let probe = flit_to(99, far);
        // Center has 4 ports; fill all four with transit flits.
        for (i, d) in Direction::ALL.into_iter().enumerate() {
            assert!(r.injection_ready(&probe, 0), "free port at fill level {i}");
            r.receive_flit(PortId::Net(d), flit_to(i as u64, far), 0);
        }
        assert!(!r.injection_ready(&probe, 0), "all ports spoken for");
        // A locally-destined arrival frees a port via ejection.
        let mut r2 = center_setup(RankPolicy::Random).2;
        for d in [Direction::North, Direction::South, Direction::East] {
            r2.receive_flit(PortId::Net(d), flit_to(7, far), 0);
        }
        r2.receive_flit(PortId::Net(Direction::West), flit_to(8, node), 0);
        assert!(r2.injection_ready(&probe, 0));
    }

    #[test]
    fn all_ports_leave_when_saturated() {
        let (mesh, _node, mut r) = center_setup(RankPolicy::OldestFirst);
        let dest = mesh.node_at(Coord::new(2, 2)).unwrap();
        for d in Direction::ALL {
            r.receive_flit(PortId::Net(d), flit_to(d.index() as u64, dest), 0);
        }
        let mut out = RouterOutputs::new();
        let mut rng = SimRng::seed_from(4);
        r.step(0, &mut rng, &mut out);
        assert_eq!(out.flits_sent(), 4);
        let deflections: u16 = Direction::ALL
            .into_iter()
            .filter_map(|d| out.flits[PortId::Net(d)])
            .map(|f| f.deflections)
            .sum();
        // Two productive dirs (E, S); the other two flits deflect.
        assert_eq!(deflections, 2);
    }

    /// The bank of 3x3 node `at` holding `flits`, stepped once on `seed`.
    fn step_bank(
        at: usize,
        flits: &[Flit],
        policy: RankPolicy,
        dead: u8,
        seed: u64,
    ) -> RouterOutputs {
        let config = NetworkConfig::paper_3x3();
        let mesh = config.mesh().unwrap();
        let node = NodeId::new(at);
        let mut bank = LatchBank::new(node, &mesh, policy, config.eject_bandwidth);
        flits.iter().for_each(|f| bank.push(*f));
        let (mut out, mut counters) = (RouterOutputs::new(), ActivityCounters::new());
        let mut rng = SimRng::seed_from(seed);
        let loser = Loser::Deflect;
        bank.step_with(loser, dead, 0, None, &mut rng, &mut out, &mut counters);
        out
    }

    #[test]
    fn oldest_first_ranking_is_stable() {
        let dest = NodeId::new(5); // east of the centre
        let mut a = flit_to(1, dest);
        a.injected_at = 3;
        let mut b = flit_to(2, dest);
        b.injected_at = 1;
        let out = step_bank(4, &[a, b], RankPolicy::OldestFirst, 0, 5);
        // b is older: it wins the productive east port.
        let winner = out.flits[PortId::Net(Direction::East)].unwrap();
        assert_eq!((winner.packet, winner.deflections), (PacketId(2), 0));
    }

    #[test]
    fn blocked_dirs_are_never_used() {
        let east = 1 << Direction::East.index();
        for seed in 0..50 {
            let out = step_bank(
                4,
                &[flit_to(1, NodeId::new(5))],
                RankPolicy::Random,
                east,
                seed,
            );
            assert!(out.flits[PortId::Net(Direction::East)].is_none());
            let sent = Direction::ALL
                .into_iter()
                .find_map(|d| out.flits[PortId::Net(d)]);
            assert_eq!(sent.unwrap().deflections, 1);
        }
    }

    #[test]
    #[should_panic(expected = "deflection invariant")]
    fn too_many_flits_panics() {
        // A corner has two output ports.
        let flits = [1, 2, 3].map(|i| flit_to(i, NodeId::new(8)));
        step_bank(0, &flits, RankPolicy::Random, 0, 7);
    }

    #[test]
    #[should_panic(expected = "latch overflow at n0: 3 flits already latched, bound 3")]
    fn latch_overflow_is_a_named_assert_in_every_build() {
        let config = NetworkConfig::paper_3x3();
        let mesh = config.mesh().unwrap();
        let mut r = DeflectionRouter::new(NodeId::new(0), &mesh, &config, RankPolicy::Random);
        for i in 0..4 {
            r.receive_flit(PortId::Net(Direction::East), flit_to(i, NodeId::new(8)), 0);
        }
    }

    #[test]
    fn factory_metadata() {
        let f = DeflectionFactory::new();
        assert_eq!(f.name(), "bless");
        assert_eq!(f.flit_width_bits(), 45);
        assert_eq!(f.buffer_flits_per_port(&NetworkConfig::paper_3x3()), 0);
        assert_eq!(DeflectionFactory::oldest_first().name(), "bless-oldest");
    }
}
