//! Shared fault-awareness state for fault-tolerant routing (DESIGN.md §13)
//! and self-healing reconvergence (DESIGN.md §15).
//!
//! Every router embeds a [`FaultAwareness`]: the per-router record of which
//! directed links are known dead, the gossip queue that floods new facts to
//! neighbors over the control sideband, and a routing table over the *alive*
//! graph that replaces dimension-ordered routing while any fault is known.
//!
//! ## Epoch-versioned facts
//!
//! Each directed link carries a monotonic **epoch**: the 1-based index of
//! its alive-state transitions in the fault plan (epoch 0 is the implicit
//! initial alive state; see
//! [`FaultPlan::link_timeline`](crate::faults::FaultPlan::link_timeline)).
//! A fault fact is the triple `(link, epoch, alive)`; a router accepts a
//! fact only when its epoch exceeds the stored one, so a revival supersedes
//! a kill — and vice versa — regardless of gossip arrival order. Stale
//! facts still in flight when a link revives are rejected on arrival
//! instead of resurrecting the dead state. Accepted alive facts are
//! *retained* (never purged): purging would reset the link's epoch floor
//! to 0 and let a delayed low-epoch kill fact be re-accepted, permanently
//! wedging the router in degraded mode.
//!
//! ## Determinism contract
//!
//! Fault knowledge changes only through two deterministic inputs: the
//! engine's link-event detection schedule (a pure function of the fault
//! plan) and [`ControlSignal::LinkFault`] gossip arriving over channels. The
//! alive routing table is a pure function of the fact map, rebuilt lazily;
//! no randomness, no wall clock. While no link is believed dead
//! ([`is_clean`](FaultAwareness::is_clean)), routers MUST take their
//! historical routing paths untouched — fault-free runs stay bit-identical
//! to builds that predate this module, and a fully-healed router is
//! byte-identical in behavior to one that never faulted.
//!
//! ## Routing rule
//!
//! For each destination the table holds the first hop of a shortest path in
//! the directed graph of alive links (one BFS from each alive out-neighbour
//! of the router, at most four per rebuild). Ties prefer the
//! dimension-ordered productive direction (X before Y), then the canonical
//! [`Direction::ALL`] order, so the detour deviates minimally from DOR and
//! is identical on every engine path. Unreachable destinations are reported
//! so callers can terminate the packet cleanly (drop → NACK → bounded
//! retransmit → `Unreachable`).

use crate::channel::ControlSignal;
use crate::counters::ActivityCounters;
use crate::flit::Cycle;
use crate::geom::{DirMap, Direction, NodeId};
use crate::router::RouterOutputs;
use crate::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::topology::Mesh;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Fault notifications rebroadcast per router per cycle. The reverse-lane
/// slot capacity is [`LANE_CAP`](crate::channel::LANE_CAP) = 4 and a router
/// emits at most one mode-control signal and at most one credit-resync
/// signal per cycle, so 2 fault signals always fit with slack.
pub const GOSSIP_PER_CYCLE: usize = 2;

/// Next-hop table entry: direction index, local delivery, or unreachable.
const HOP_LOCAL: u8 = 4;
const HOP_UNREACHABLE: u8 = u8::MAX;

/// Working memory of one table rebuild: per node the bit mask of its dead
/// out-links, four distance stripes of `node_count` entries (one per
/// out-direction of the rebuilding node) and the BFS queue.
#[derive(Default)]
struct BfsScratch {
    dead: Vec<u8>,
    dist: Vec<u32>,
    queue: Vec<NodeId>,
}

thread_local! {
    /// Per engine thread, not per router: a rebuild allocates nothing once
    /// the thread has seen the mesh size, and routers stay O(1) heap.
    static BFS_SCRATCH: RefCell<BfsScratch> = RefCell::default();
    /// Nodes dequeued by this thread's rebuilds (the O(mesh) bound's test).
    #[cfg(test)]
    static BFS_VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Outcome of a fault-aware route lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The destination is this node.
    Local,
    /// Forward toward `0`'s direction.
    Dir(Direction),
    /// No alive path from this node to the destination.
    Unreachable,
}

/// The stored state of one directed link: highest epoch seen and the alive
/// state that epoch carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkFact {
    epoch: u32,
    alive: bool,
}

/// What a newly accepted fault fact changed *locally* — returned from
/// [`FaultAwareness::learn`] so routers can trigger mechanism-specific
/// reactions (port unmasking, credit re-sync) without `FaultAwareness`
/// knowing any mechanism's internals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkUpdate {
    /// This node's own output link changed: `(direction, new alive state,
    /// epoch)`.
    pub local_out: Option<(Direction, bool, u32)>,
    /// An input port of this node changed (the link feeding it transitioned):
    /// `(local input direction, new alive state, epoch)`.
    pub local_in: Option<(Direction, bool, u32)>,
}

/// The two answers of a [`FaultAwareness`] a router asks every cycle — is
/// the view clean, is gossip queued — copied into the router's hot header
/// (DESIGN.md §16.1) so a clean cycle never reads the awareness itself.
/// Retake it with [`FaultAwareness::bits`] after every call that can change
/// either: [`learn`](FaultAwareness::learn),
/// [`on_control`](FaultAwareness::on_control),
/// [`drain_gossip`](FaultAwareness::drain_gossip) and a snapshot load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBits {
    clean: bool,
    gossip: bool,
}

impl FaultBits {
    /// [`FaultAwareness::is_clean`] when taken.
    #[inline]
    pub fn is_clean(self) -> bool {
        self.clean
    }

    /// [`FaultAwareness::has_pending_gossip`] when taken.
    #[inline]
    pub fn has_pending_gossip(self) -> bool {
        self.gossip
    }
}

/// A fresh awareness's bits: clean, nothing queued.
impl Default for FaultBits {
    fn default() -> FaultBits {
        FaultBits {
            clean: true,
            gossip: false,
        }
    }
}

/// Per-router fault mask, gossip queue and alive-graph routing table.
#[derive(Debug, Clone)]
pub struct FaultAwareness {
    node: NodeId,
    mesh: Mesh,
    /// Believed-dead output links at this node, cached for O(1) port
    /// masking.
    dead_out: DirMap<bool>,
    /// Input ports fed by a believed-dead link. While a link's death is
    /// known here, no flit can arrive on that port (kills are absolute
    /// until revival, and detection happens strictly after the kill), which
    /// is what makes orphaned-wormhole cleanup on these ports provably
    /// safe.
    dead_in: DirMap<bool>,
    /// Highest-epoch fact per directed link `(node, dir)`, network-wide,
    /// sorted by link so snapshots and table rebuilds are deterministic.
    /// Alive facts are retained to keep the epoch floor monotonic (module
    /// docs). A sorted `Vec`, not a map: clearing it for a reset or a
    /// restore keeps its capacity, so relearning the same facts allocates
    /// nothing.
    facts: Vec<((usize, u8), LinkFact)>,
    /// Number of facts whose state is dead — `is_clean()` is this reaching
    /// zero, which re-enables the exact legacy-DOR fast path.
    dead_count: usize,
    /// Facts queued for rebroadcast to all neighbors.
    pending_gossip: VecDeque<(NodeId, Direction, u32, bool)>,
    /// Per-destination next hop over the alive graph (`HOP_*` encoding);
    /// rebuilt lazily after fault knowledge changes.
    table: Vec<u8>,
    dirty: bool,
    /// Cycle the first local fault was recorded (detection-latency stat
    /// anchor; not part of routing).
    first_fault_at: Option<Cycle>,
}

impl FaultAwareness {
    /// Creates clean (fault-free) awareness state for `node`.
    pub fn new(node: NodeId, mesh: Mesh) -> FaultAwareness {
        FaultAwareness {
            node,
            mesh,
            dead_out: DirMap::default(),
            dead_in: DirMap::default(),
            facts: Vec::new(),
            dead_count: 0,
            pending_gossip: VecDeque::new(),
            table: Vec::new(),
            dirty: false,
            first_fault_at: None,
        }
    }

    /// True while no link is believed dead — routers must use their
    /// historical (DOR) routing paths so fault-free runs stay bit-identical
    /// and a fully-healed network reconverges to the exact clean fast path.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.dead_count == 0
    }

    /// [`is_clean`](Self::is_clean) and
    /// [`has_pending_gossip`](Self::has_pending_gossip), to cache.
    #[inline]
    pub fn bits(&self) -> FaultBits {
        FaultBits {
            clean: self.is_clean(),
            gossip: self.has_pending_gossip(),
        }
    }

    /// Whether this node's output link toward `dir` is believed dead.
    #[inline]
    pub fn dead_out(&self, dir: Direction) -> bool {
        self.dead_out[dir]
    }

    /// Whether the input port from `dir` is fed by a believed-dead link.
    #[inline]
    pub fn dead_in(&self, dir: Direction) -> bool {
        self.dead_in[dir]
    }

    /// Where the fact about link `key` is in `facts`, or would be inserted.
    fn fact_at(&self, key: (usize, u8)) -> Result<usize, usize> {
        self.facts.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// The fact held about the directed link `node -> dir`, if any.
    fn fact(&self, node: NodeId, dir: Direction) -> Option<LinkFact> {
        let at = self.fact_at((node.index(), dir.index() as u8)).ok()?;
        Some(self.facts[at].1)
    }

    /// Records an epoch-versioned fact about the directed link
    /// `node -> dir`. Returns `Some` when the fact's epoch exceeds the
    /// stored one (new knowledge: it is applied, queued for gossip, and
    /// the local mask changes are reported); `None` for a stale or
    /// duplicate fact.
    pub fn learn(
        &mut self,
        node: NodeId,
        dir: Direction,
        epoch: u32,
        alive: bool,
        now: Cycle,
    ) -> Option<LinkUpdate> {
        let key = (node.index(), dir.index() as u8);
        let at = self.fact_at(key);
        let prev = at.ok().map(|i| self.facts[i].1);
        if epoch <= prev.map_or(0, |f| f.epoch) {
            return None;
        }
        let was_alive = prev.is_none_or(|f| f.alive);
        let fact = LinkFact { epoch, alive };
        match at {
            Ok(i) => self.facts[i].1 = fact,
            Err(i) => self.facts.insert(i, (key, fact)),
        }
        match (was_alive, alive) {
            (true, false) => self.dead_count += 1,
            (false, true) => self.dead_count -= 1,
            _ => {}
        }
        let mut update = LinkUpdate::default();
        if node == self.node {
            self.dead_out[dir] = !alive;
            if !alive {
                self.first_fault_at.get_or_insert(now);
            }
            update.local_out = Some((dir, alive, epoch));
        }
        if self.mesh.neighbor(node, dir) == Some(self.node) {
            self.dead_in[dir.opposite()] = !alive;
            update.local_in = Some((dir.opposite(), alive, epoch));
        }
        self.pending_gossip.push_back((node, dir, epoch, alive));
        self.dirty = true;
        Some(update)
    }

    /// Handles a control-sideband signal; returns `Some` when it was a
    /// [`ControlSignal::LinkFault`] carrying new knowledge (see
    /// [`FaultAwareness::learn`]). [`ControlSignal::CreditResync`] is the
    /// [`ResyncHandshake`]'s, not a routing fact, and is ignored here.
    pub fn on_control(&mut self, signal: ControlSignal, now: Cycle) -> Option<LinkUpdate> {
        match signal {
            ControlSignal::LinkFault {
                node,
                dir,
                epoch,
                alive,
            } => self.learn(node, dir, epoch, alive, now),
            _ => None,
        }
    }

    /// The epoch stored for the directed link `node -> dir` (0 when no fact
    /// is held — the implicit initial alive state).
    pub fn link_epoch(&self, node: NodeId, dir: Direction) -> u32 {
        self.fact(node, dir).map_or(0, |f| f.epoch)
    }

    /// True while fault facts await rebroadcast (the owning router must not
    /// report itself quiescent, or the flood would stall).
    #[inline]
    pub fn has_pending_gossip(&self) -> bool {
        !self.pending_gossip.is_empty()
    }

    /// Emits up to [`GOSSIP_PER_CYCLE`] queued fault facts onto the control
    /// sideband (the engine broadcasts each to every neighbor).
    pub fn drain_gossip(&mut self, out: &mut RouterOutputs) {
        for _ in 0..GOSSIP_PER_CYCLE {
            let Some((node, dir, epoch, alive)) = self.pending_gossip.pop_front() else {
                return;
            };
            out.control.push(ControlSignal::LinkFault {
                node,
                dir,
                epoch,
                alive,
            });
        }
    }

    /// Fault-aware next hop toward `dest` over the alive graph.
    ///
    /// Callers must keep the historical DOR path while
    /// [`is_clean`](FaultAwareness::is_clean) holds; this method is the
    /// degraded-mode replacement, not a DOR re-implementation (on a clean
    /// table it agrees with DOR's dimension order anyway, but costs a table
    /// rebuild).
    pub fn route(&mut self, dest: NodeId) -> RouteOutcome {
        if dest == self.node {
            return RouteOutcome::Local;
        }
        if self.dirty {
            self.rebuild_table();
        }
        match self.table[dest.index()] {
            HOP_LOCAL => RouteOutcome::Local,
            HOP_UNREACHABLE => RouteOutcome::Unreachable,
            i => RouteOutcome::Dir(Direction::from_index(i as usize).expect("table direction")),
        }
    }

    /// Believed-dead output links as a mask over [`Direction::index`] — the
    /// blocked-port input of the bufferless latch kernel.
    pub fn dead_out_mask(&self) -> u8 {
        self.dead_out.mask()
    }

    /// Cycle the first local (output-link) fault was recorded, if any.
    pub fn first_fault_at(&self) -> Option<Cycle> {
        self.first_fault_at
    }

    /// Heap bytes owned by this awareness state. The next-hop `table` is
    /// the only O(mesh) piece and stays unallocated until the first fault
    /// is learned, so clean runs cost O(1) per router here.
    pub fn heap_bytes(&self) -> usize {
        self.facts.capacity() * std::mem::size_of::<((usize, u8), LinkFact)>()
            + self.pending_gossip.capacity() * std::mem::size_of::<(NodeId, Direction, u32, bool)>()
            + self.table.capacity()
    }

    /// Returns the awareness state to clean (fault-free) in place: every
    /// mask, the facts, the gossip queue, and the first-fault anchor are
    /// cleared, exactly as freshly constructed. The facts, the queue and
    /// the next-hop table keep their allocations; the table is emptied (it
    /// is rebuilt lazily and never consulted while clean).
    pub fn reset(&mut self) {
        self.dead_out = DirMap::default();
        self.dead_in = DirMap::default();
        self.facts.clear();
        self.dead_count = 0;
        self.pending_gossip.clear();
        self.table.clear();
        self.dirty = false;
        self.first_fault_at = None;
    }

    /// Rebuilds the per-destination next-hop table: one forward BFS over
    /// the alive graph from each alive out-neighbour `w` of this node (at
    /// most four, reading dead-link masks filled once from `facts`), then
    /// a tie-broken argmin per destination. `dist_w[dest]` is the number a
    /// reverse BFS from `dest` reads at `w`, so this is the table one BFS
    /// per destination builds, in O(mesh) instead of O(mesh²).
    fn rebuild_table(&mut self) {
        let n = self.mesh.node_count();
        self.table.clear();
        self.table.resize(n, HOP_UNREACHABLE);
        self.table[self.node.index()] = HOP_LOCAL;
        BFS_SCRATCH.with_borrow_mut(|scratch| {
            let BfsScratch { dead, dist, queue } = scratch;
            dead.clear();
            dead.resize(n, 0);
            for &((node, dir), _) in self.facts.iter().filter(|(_, f)| !f.alive) {
                dead[node] |= 1 << dir;
            }
            dist.clear();
            dist.resize(4 * n, u32::MAX);
            for dir in Direction::ALL {
                let Some(w) = self.mesh.neighbor(self.node, dir) else {
                    continue;
                };
                if self.dead_out[dir] {
                    continue;
                }
                let dist = &mut dist[dir.index() * n..][..n];
                dist[w.index()] = 0;
                queue.clear();
                queue.push(w);
                let mut head = 0;
                while let Some(&v) = queue.get(head) {
                    head += 1;
                    for out in Direction::ALL {
                        let Some(u) = self.mesh.neighbor(v, out) else {
                            continue;
                        };
                        let alive = dead[v.index()] >> out.index() & 1 == 0;
                        if alive && dist[u.index()] == u32::MAX {
                            dist[u.index()] = dist[v.index()] + 1;
                            queue.push(u);
                        }
                    }
                }
                #[cfg(test)]
                BFS_VISITS.set(BFS_VISITS.get() + head);
            }
            for dest in self.mesh.nodes().filter(|&d| d != self.node) {
                // Ties go to the first direction in preference order:
                // productive X, productive Y (DOR's dimension order), then
                // canonical. `min_by_key` keeps the first minimum, so `ALL`'s
                // repeats never win; a dead out-link's stripe is `u32::MAX`.
                let hop_dist = |dir: &Direction| dist[dir.index() * n + dest.index()];
                let productive = self.mesh.productive_dirs(self.node, dest);
                let hop = (productive.iter().chain(Direction::ALL))
                    .filter(|dir| hop_dist(dir) != u32::MAX)
                    .min_by_key(hop_dist);
                if let Some(dir) = hop {
                    self.table[dest.index()] = dir.index() as u8;
                }
            }
        });
        self.dirty = false;
    }
}

/// The fault state: the fact map and the gossip queue as `(node, dir,
/// epoch, alive)` link facts — the body of a [`ControlSignal::LinkFault`] —
/// then the first-fault cycle. The routing table and the cached masks are
/// derived: a load recomputes the masks and marks the table for rebuild.
impl Codec for FaultAwareness {
    fn put(&self, w: &mut SnapshotWriter) {
        self.facts.len().put(w);
        for &((node, dir), f) in &self.facts {
            let fact = (
                NodeId::new(node),
                Direction::ALL[dir as usize],
                f.epoch,
                f.alive,
            );
            fact.put(w);
        }
        self.pending_gossip.put(w);
        self.first_fault_at.put(w);
    }

    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.reset();
        for _ in 0..r.get_u64("fault-awareness fact count")? {
            let (node, d, epoch, alive): (NodeId, Direction, u32, bool) = Codec::get(r)?;
            let key = (node.index(), d.index() as u8);
            match self.fact_at(key) {
                Err(at) if epoch > 0 => self.facts.insert(at, (key, LinkFact { epoch, alive })),
                _ => {
                    return Err(SnapshotError::Malformed {
                        what: "fault-awareness fact",
                    })
                }
            }
            self.dead_count += !alive as usize;
            if node == self.node {
                self.dead_out[d] = !alive;
            }
            if self.mesh.neighbor(node, d) == Some(self.node) {
                self.dead_in[d.opposite()] = !alive;
            }
        }
        self.pending_gossip.load(r)?;
        self.first_fault_at.load(r)?;
        self.dirty = !self.facts.is_empty();
        Ok(())
    }
}

/// One router's half of the credit re-sync handshake (DESIGN.md §15.3),
/// shared by every credit-tracking mechanism.
///
/// When a link revives, its in-flight credits are gone and the downstream
/// buffers may still hold pre-kill flits, so the upstream credit pool is
/// unknown. The upstream router zeroes the pool and holds the port out of
/// arbitration ([`waiting`](Self::waiting)); the downstream router, once
/// the revived input port has drained, sends one
/// [`ControlSignal::CreditResync`] echoing the link epoch
/// ([`emit`](Self::emit)); on a matching epoch the upstream router refills
/// the pool ([`confirm`](Self::confirm)) — exact, because nothing was in
/// flight while the port was held. Routers keep what differs: the pool,
/// what "drained" means, and which outputs are credit-tracked at all.
#[derive(Debug, Clone, Default)]
pub struct ResyncHandshake {
    /// Output ports held until the downstream endpoint confirms, as a mask
    /// over [`Direction::index`].
    wait: u8,
    /// Revived *input* ports whose upstream endpoint awaits our
    /// confirmation (same mask encoding) and the link epoch to echo.
    pending: u8,
    pending_epoch: DirMap<u32>,
}

impl ResyncHandshake {
    /// Applies an alive-state transition of a link incident to this router.
    /// Returns the output direction whose handshake just started — the
    /// caller zeroes its credit pool toward it. `tracked(d)` says whether
    /// output `d` has a credit pool to re-sync at all. A kill abandons a
    /// handshake in progress; the next revival restarts it under a higher
    /// epoch.
    pub fn on_link_update(
        &mut self,
        update: &LinkUpdate,
        tracked: impl FnOnce(Direction) -> bool,
    ) -> Option<Direction> {
        let mut started = None;
        if let Some((d, alive, _)) = update.local_out {
            if !alive {
                self.cancel(d);
            } else if tracked(d) {
                self.wait |= 1 << d.index();
                started = Some(d);
            }
        }
        if let Some((d, alive, epoch)) = update.local_in {
            self.pending &= !(1 << d.index());
            if alive {
                self.pending |= 1 << d.index();
                self.pending_epoch[d] = epoch;
            }
        }
        started
    }

    /// Whether output `d` is held mid-handshake. Sending there before the
    /// confirmation lands would break its nothing-in-flight precondition.
    #[inline]
    pub fn waiting(&self, d: Direction) -> bool {
        self.wait >> d.index() & 1 != 0
    }

    /// The held outputs as a mask over [`Direction::index`].
    #[inline]
    pub fn wait_mask(&self) -> u8 {
        self.wait
    }

    /// Abandons the wait on output `d` (the link died again, or the
    /// mechanism re-seeded the pool some other way).
    pub fn cancel(&mut self, d: Direction) {
        self.wait &= !(1 << d.index());
    }

    /// Receive check for a [`ControlSignal::CreditResync`] naming `node`'s
    /// output `dir` under `epoch`. True — and the wait is over — when it
    /// answers this router's current handshake: the caller then refills the
    /// pool toward `dir`. Stale epochs and other nodes' signals are ignored.
    pub fn confirm(
        &mut self,
        fa: &FaultAwareness,
        node: NodeId,
        dir: Direction,
        epoch: u32,
    ) -> bool {
        let ours = node == fa.node && self.waiting(dir) && epoch == fa.link_epoch(node, dir);
        if ours {
            self.cancel(dir);
        }
        ours
    }

    /// True while a confirmation is owed upstream: the owning router must
    /// not report itself quiescent, and its `step` calls [`emit`](Self::emit).
    #[inline]
    pub fn has_pending(&self) -> bool {
        self.pending != 0
    }

    /// Sends the confirmation for the first revived input port that
    /// `drained` reports empty of pre-kill flits. One signal per cycle
    /// keeps the control lane within [`LANE_CAP`](crate::channel::LANE_CAP)
    /// alongside gossip.
    pub fn emit(
        &mut self,
        fa: &FaultAwareness,
        drained: impl Fn(Direction) -> bool,
        out: &mut RouterOutputs,
        counters: &mut ActivityCounters,
    ) {
        for d in Direction::ALL {
            if self.pending >> d.index() & 1 == 0 || !drained(d) {
                continue;
            }
            if let Some(up) = fa.mesh.neighbor(fa.node, d) {
                out.control.push(ControlSignal::CreditResync {
                    node: up,
                    dir: d.opposite(),
                    epoch: self.pending_epoch[d],
                });
                counters.control_sends += 1;
            }
            self.pending &= !(1 << d.index());
            break;
        }
    }

    /// Forgets every handshake, as freshly constructed.
    pub fn reset(&mut self) {
        *self = ResyncHandshake::default();
    }
}

/// Per direction the wait flag, then the pending epoch as an `Option`.
impl Codec for ResyncHandshake {
    fn put(&self, w: &mut SnapshotWriter) {
        for d in Direction::ALL {
            let bit = 1 << d.index();
            let pending = (self.pending & bit != 0).then_some(self.pending_epoch[d]);
            (self.wait & bit != 0, pending).put(w);
        }
    }

    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.reset();
        for d in Direction::ALL {
            let (wait, pending): (bool, Option<u32>) = Codec::get(r)?;
            self.wait |= (wait as u8) << d.index();
            if let Some(epoch) = pending {
                self.pending |= 1 << d.index();
                self.pending_epoch[d] = epoch;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::rng::SimRng;
    use std::collections::BTreeMap;

    fn mesh3() -> Mesh {
        Mesh::new(3, 3).unwrap()
    }

    impl FaultAwareness {
        /// Tie-break order for next-hop selection: productive X then productive
        /// Y (matching DOR's dimension order), then the remaining directions in
        /// canonical order.
        fn preference_order(&self, dest: NodeId) -> [Direction; 4] {
            let productive = self.mesh.productive_dirs(self.node, dest);
            let mut order = [Direction::North; 4];
            let mut len = 0;
            for d in productive.iter() {
                order[len] = d;
                len += 1;
            }
            for d in Direction::ALL {
                if !order[..len].contains(&d) {
                    order[len] = d;
                    len += 1;
                }
            }
            order
        }

        /// The table as it was built before the four-BFS rewrite, kept as
        /// the oracle: one BFS per destination over reversed alive edges
        /// (every edge a `facts` probe), then the same tie-broken argmin.
        fn reference_table(&self) -> Vec<u8> {
            let n = self.mesh.node_count();
            let link_dead =
                |from: NodeId, dir: Direction| self.fact(from, dir).is_some_and(|f| !f.alive);
            let mut table = vec![HOP_UNREACHABLE; n];
            table[self.node.index()] = HOP_LOCAL;
            for dest in self.mesh.nodes().filter(|&d| d != self.node) {
                let mut dist = vec![u32::MAX; n];
                dist[dest.index()] = 0;
                let mut queue = VecDeque::from([dest]);
                while let Some(v) = queue.pop_front() {
                    for dir in Direction::ALL {
                        let Some(u) = self.mesh.neighbor(v, dir) else {
                            continue;
                        };
                        if link_dead(u, dir.opposite()) || dist[u.index()] != u32::MAX {
                            continue;
                        }
                        dist[u.index()] = dist[v.index()] + 1;
                        queue.push_back(u);
                    }
                }
                let mut best: Option<(u32, Direction)> = None;
                for dir in self.preference_order(dest) {
                    let Some(w) = self.mesh.neighbor(self.node, dir) else {
                        continue;
                    };
                    if self.dead_out[dir] || dist[w.index()] == u32::MAX {
                        continue;
                    }
                    if best.is_none_or(|(d, _)| dist[w.index()] < d) {
                        best = Some((dist[w.index()], dir));
                    }
                }
                if let Some((_, dir)) = best {
                    table[dest.index()] = dir.index() as u8;
                }
            }
            table
        }

        /// Rebuilds through the production path and checks it against the
        /// oracle and the O(mesh) visit bound.
        fn assert_table_matches_reference(&mut self, what: &str) {
            BFS_VISITS.set(0);
            self.dirty = true;
            self.rebuild_table();
            let n = self.mesh.node_count();
            assert!(
                BFS_VISITS.get() <= 4 * n,
                "{what}: {} visits",
                BFS_VISITS.get()
            );
            assert_eq!(
                self.table,
                self.reference_table(),
                "{what}: node {:?}",
                self.node
            );
        }
    }

    /// A random existing directed link of `mesh`.
    fn random_link(mesh: &Mesh, rng: &mut SimRng) -> (NodeId, Direction) {
        loop {
            let node = NodeId::new(rng.gen_index(mesh.node_count()));
            let dir = Direction::ALL[rng.gen_index(4)];
            if mesh.neighbor(node, dir).is_some() {
                return (node, dir);
            }
        }
    }

    /// Teaches every router the next-epoch fact that puts `node -> dir` in
    /// state `alive` (epoch parity carries the state: odd dead, even alive);
    /// a no-op when the link is already there.
    fn flip(
        fas: &mut [FaultAwareness],
        epochs: &mut BTreeMap<(usize, u8), u32>,
        node: NodeId,
        dir: Direction,
        alive: bool,
    ) {
        let e = epochs.entry((node.index(), dir.index() as u8)).or_insert(0);
        if e.is_multiple_of(2) == alive {
            return;
        }
        *e += 1;
        for fa in fas.iter_mut() {
            fa.learn(node, dir, *e, alive, 0);
        }
    }

    #[test]
    fn four_bfs_table_equals_per_destination_reference() {
        for (w, h) in [(1, 6), (6, 1), (3, 3), (5, 7), (8, 8)] {
            let mesh = Mesh::new(w, h).unwrap();
            let n = mesh.node_count();
            for seed in 0..12u64 {
                let mut rng = SimRng::seed_from(0xFA17 + seed * 97 + n as u64);
                // One router per seed on the big meshes, every router on the
                // small ones; all see the same fact stream.
                let at: Vec<usize> = if n <= 9 {
                    (0..n).collect()
                } else {
                    vec![rng.gen_index(n), 0, n - 1]
                };
                let mut fas: Vec<FaultAwareness> = at
                    .iter()
                    .map(|&i| FaultAwareness::new(NodeId::new(i), mesh.clone()))
                    .collect();
                let mut epochs: BTreeMap<(usize, u8), u32> = BTreeMap::new();
                // One-directional kills.
                for _ in 0..1 + rng.gen_index(n) {
                    let (node, dir) = random_link(&mesh, &mut rng);
                    flip(&mut fas, &mut epochs, node, dir, false);
                }
                for fa in &mut fas {
                    fa.assert_table_matches_reference("one-directional kills");
                }
                // An isolated node: every link entering and leaving it.
                let lonely = NodeId::new(rng.gen_index(n));
                for dir in Direction::ALL {
                    if let Some(nb) = mesh.neighbor(lonely, dir) {
                        flip(&mut fas, &mut epochs, lonely, dir, false);
                        flip(&mut fas, &mut epochs, nb, dir.opposite(), false);
                    }
                }
                for fa in &mut fas {
                    fa.assert_table_matches_reference("isolated node");
                }
                // Kill -> revive -> kill epochs on random links.
                for _ in 0..2 * n {
                    let (node, dir) = random_link(&mesh, &mut rng);
                    flip(&mut fas, &mut epochs, node, dir, rng.gen_bool(0.5));
                }
                for fa in &mut fas {
                    fa.assert_table_matches_reference("churned epochs");
                }
                // Fully healed: every dead link revives; the table is DOR.
                let dead: Vec<(usize, u8)> = epochs
                    .iter()
                    .filter(|(_, &e)| e % 2 == 1)
                    .map(|(&k, _)| k)
                    .collect();
                for (node, dir) in dead {
                    let dir = Direction::from_index(dir as usize).unwrap();
                    flip(&mut fas, &mut epochs, NodeId::new(node), dir, true);
                }
                for fa in &mut fas {
                    assert!(fa.is_clean());
                    fa.assert_table_matches_reference("fully healed");
                    let node = fa.node;
                    for dest in mesh.nodes().filter(|&d| d != node) {
                        let dor = mesh.dor_route(node, dest).unwrap();
                        assert_eq!(fa.route(dest), RouteOutcome::Dir(dor));
                    }
                }
            }
        }
    }

    #[test]
    fn rebuild_reuses_the_thread_scratch() {
        let mesh = Mesh::new(8, 8).unwrap();
        let mut fa = FaultAwareness::new(NodeId::new(27), mesh);
        fa.learn(NodeId::new(27), Direction::East, 1, false, 0);
        fa.route(NodeId::new(0));
        let caps =
            BFS_SCRATCH.with_borrow(|s| (s.dead.capacity(), s.dist.capacity(), s.queue.capacity()));
        for epoch in 2..40 {
            fa.learn(NodeId::new(27), Direction::East, epoch, epoch % 2 == 0, 0);
            fa.route(NodeId::new(0));
        }
        let after =
            BFS_SCRATCH.with_borrow(|s| (s.dead.capacity(), s.dist.capacity(), s.queue.capacity()));
        assert_eq!(
            caps, after,
            "a rebuild on a seen mesh size must not grow the scratch"
        );
    }

    #[test]
    fn clean_state_reports_clean_and_routes_nothing() {
        let mut fa = FaultAwareness::new(NodeId::new(0), mesh3());
        assert!(fa.is_clean());
        assert!(!fa.has_pending_gossip());
        assert_eq!(fa.route(NodeId::new(0)), RouteOutcome::Local);
    }

    #[test]
    fn learn_marks_masks_and_queues_gossip() {
        let mesh = mesh3();
        let mut fa = FaultAwareness::new(NodeId::new(4), mesh);
        let up = fa
            .learn(NodeId::new(4), Direction::East, 1, false, 10)
            .unwrap();
        assert_eq!(up.local_out, Some((Direction::East, false, 1)));
        assert!(
            fa.learn(NodeId::new(4), Direction::East, 1, false, 11)
                .is_none(),
            "dedup"
        );
        assert!(fa.dead_out(Direction::East));
        assert_eq!(fa.dead_out_mask(), 1 << Direction::East.index());
        assert!(fa.has_pending_gossip());
        assert_eq!(fa.first_fault_at(), Some(10));
        // Node 3 -> East feeds node 4's West input port.
        let up = fa
            .learn(NodeId::new(3), Direction::East, 1, false, 12)
            .unwrap();
        assert_eq!(up.local_in, Some((Direction::West, false, 1)));
        assert!(fa.dead_in(Direction::West));
        let mut out = RouterOutputs::new();
        fa.drain_gossip(&mut out);
        assert_eq!(out.control.len(), 2);
        assert!(!fa.has_pending_gossip());
    }

    #[test]
    fn revival_supersedes_kill_regardless_of_arrival_order() {
        let mesh = mesh3();
        let mut fa = FaultAwareness::new(NodeId::new(4), mesh);
        // In-order: kill (epoch 1) then revival (epoch 2).
        assert!(fa
            .learn(NodeId::new(4), Direction::East, 1, false, 10)
            .is_some());
        assert!(!fa.is_clean());
        let up = fa
            .learn(NodeId::new(4), Direction::East, 2, true, 50)
            .unwrap();
        assert_eq!(up.local_out, Some((Direction::East, true, 2)));
        assert!(fa.is_clean(), "all links alive again");
        assert!(!fa.dead_out(Direction::East));
        // Out-of-order: a stale kill fact (epoch 1) arriving after the
        // revival is rejected — the revival wins regardless of order.
        assert!(fa
            .learn(NodeId::new(4), Direction::East, 1, false, 60)
            .is_none());
        assert!(fa.is_clean());
        assert_eq!(fa.link_epoch(NodeId::new(4), Direction::East), 2);
        // A later kill (epoch 3) is accepted normally.
        assert!(fa
            .learn(NodeId::new(4), Direction::East, 3, false, 70)
            .is_some());
        assert!(!fa.is_clean());
    }

    #[test]
    fn revival_first_then_stale_kill_never_wedges() {
        // Gossip can deliver the revival (epoch 2) before the kill
        // (epoch 1) it supersedes; the kill must be dropped on arrival.
        let mut fa = FaultAwareness::new(NodeId::new(0), mesh3());
        assert!(fa
            .learn(NodeId::new(4), Direction::East, 2, true, 5)
            .is_some());
        assert!(fa.is_clean());
        assert!(fa
            .learn(NodeId::new(4), Direction::East, 1, false, 9)
            .is_none());
        assert!(fa.is_clean(), "stale kill must not resurrect the fault");
    }

    #[test]
    fn routes_around_a_single_dead_link() {
        // Kill 3 -> East (center row, westmost link). Node 3 must still
        // reach node 5 (same row, east side) by detouring through an
        // adjacent row.
        let mut fa = FaultAwareness::new(NodeId::new(3), mesh3());
        fa.learn(NodeId::new(3), Direction::East, 1, false, 0);
        match fa.route(NodeId::new(5)) {
            RouteOutcome::Dir(d) => {
                assert!(d == Direction::North || d == Direction::South, "got {d:?}")
            }
            other => panic!("expected detour, got {other:?}"),
        }
        // Unaffected destinations keep their productive hop.
        assert_eq!(
            fa.route(NodeId::new(0)),
            RouteOutcome::Dir(Direction::North)
        );
    }

    #[test]
    fn healed_table_routes_like_dor_again() {
        let mut fa = FaultAwareness::new(NodeId::new(3), mesh3());
        fa.learn(NodeId::new(3), Direction::East, 1, false, 0);
        assert_ne!(fa.route(NodeId::new(5)), RouteOutcome::Dir(Direction::East));
        fa.learn(NodeId::new(3), Direction::East, 2, true, 40);
        assert!(fa.is_clean());
        // Callers stop consulting route() while clean, but if they did the
        // rebuilt table must agree with DOR again.
        assert_eq!(fa.route(NodeId::new(5)), RouteOutcome::Dir(Direction::East));
    }

    #[test]
    fn fully_cut_destination_is_unreachable() {
        // Kill every link entering node 8 (southeast corner).
        let mesh = mesh3();
        let mut fa = FaultAwareness::new(NodeId::new(0), mesh);
        fa.learn(NodeId::new(7), Direction::East, 1, false, 0);
        fa.learn(NodeId::new(5), Direction::South, 1, false, 0);
        assert_eq!(fa.route(NodeId::new(8)), RouteOutcome::Unreachable);
        // Other destinations unaffected.
        assert_eq!(fa.route(NodeId::new(4)), RouteOutcome::Dir(Direction::East));
    }

    #[test]
    fn tie_break_prefers_dimension_order() {
        // No faults relevant to 0 -> 8 paths except one that forces a
        // rebuild; the table's hop for 8 must be the DOR X-first hop East.
        let mut fa = FaultAwareness::new(NodeId::new(0), mesh3());
        fa.learn(NodeId::new(8), Direction::North, 1, false, 0);
        assert_eq!(fa.route(NodeId::new(8)), RouteOutcome::Dir(Direction::East));
    }

    #[test]
    fn snapshot_round_trip_is_byte_identical() {
        let mesh = mesh3();
        let mut fa = FaultAwareness::new(NodeId::new(4), mesh.clone());
        fa.learn(NodeId::new(4), Direction::East, 1, false, 7);
        fa.learn(NodeId::new(0), Direction::South, 1, false, 9);
        fa.learn(NodeId::new(0), Direction::South, 2, true, 20);
        let mut w = SnapshotWriter::new();
        fa.put(&mut w);
        let bytes = w.into_bytes();
        let mut restored = FaultAwareness::new(NodeId::new(4), mesh);
        let mut r = SnapshotReader::new(&bytes);
        restored.load(&mut r).unwrap();
        r.finish("fault awareness").unwrap();
        let mut w2 = SnapshotWriter::new();
        restored.put(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        assert!(restored.dead_out(Direction::East));
        assert!(restored.has_pending_gossip());
        assert_eq!(restored.link_epoch(NodeId::new(0), Direction::South), 2);
        assert!(!restored.is_clean());
        assert_eq!(restored.route(NodeId::new(5)), fa.route(NodeId::new(5)));
    }

    /// Every leg of the credit re-sync handshake, on the component alone:
    /// the kill/revive system suites see a dropped start or confirmation,
    /// but not a confirmation accepted from the wrong link or epoch, sent
    /// before the port drained, or still owed to a link that died again.
    #[test]
    fn resync_handshake_runs_every_leg_and_refuses_every_stale_signal() {
        use Direction::{East, North, West};
        let mesh = mesh3();
        let (up, down) = (NodeId::new(4), NodeId::new(5));
        let mut fa_up = FaultAwareness::new(up, mesh.clone());
        let mut fa_down = FaultAwareness::new(down, mesh.clone());
        let (mut at_up, mut at_down) = (ResyncHandshake::default(), ResyncHandshake::default());
        let mut out = RouterOutputs::new();
        let mut counters = ActivityCounters::new();

        // The link 4 -> East dies: no handshake, at either end.
        let kill = fa_up.learn(up, East, 1, false, 10).unwrap();
        assert_eq!(at_up.on_link_update(&kill, |_| true), None);
        let kill = fa_down.learn(up, East, 1, false, 10).unwrap();
        assert_eq!(at_down.on_link_update(&kill, |_| true), None);
        assert!(!at_up.waiting(East) && !at_down.has_pending());

        // It revives. Upstream, an untracked output starts nothing; a
        // tracked one is held and reported so the caller zeroes its pool.
        let revive = fa_up.learn(up, East, 2, true, 20).unwrap();
        let mut untracked = ResyncHandshake::default();
        assert_eq!(untracked.on_link_update(&revive, |_| false), None);
        assert_eq!(untracked.wait_mask(), 0);
        assert_eq!(at_up.on_link_update(&revive, |d| d == East), Some(East));
        assert!(at_up.waiting(East) && !at_up.waiting(West));
        assert_eq!(at_up.wait_mask(), 1 << East.index());
        assert!(!at_up.has_pending(), "the upstream end owes nothing");
        // Downstream, input port West owes the confirmation.
        let revive = fa_down.learn(up, East, 2, true, 20).unwrap();
        assert_eq!(at_down.on_link_update(&revive, |_| true), None);
        assert!(at_down.has_pending() && at_down.wait_mask() == 0);

        // Handshakes in flight survive a snapshot, byte for byte.
        let bytes = |h: &ResyncHandshake| {
            let mut w = SnapshotWriter::new();
            h.put(&mut w);
            w.into_bytes()
        };
        for (live, holds, owes) in [(&mut at_up, true, false), (&mut at_down, false, true)] {
            let saved = bytes(live);
            let mut restored = ResyncHandshake::default();
            let mut r = SnapshotReader::new(&saved);
            restored.load(&mut r).unwrap();
            r.finish("resync").unwrap();
            assert_eq!(bytes(&restored), saved);
            assert_eq!(
                (restored.waiting(East), restored.has_pending()),
                (holds, owes)
            );
            *live = restored;
        }

        // Not before the port has drained its pre-kill flits.
        at_down.emit(&fa_down, |_| false, &mut out, &mut counters);
        assert!(out.control.is_empty() && at_down.has_pending());
        at_down.emit(&fa_down, |d| d == West, &mut out, &mut counters);
        let signal = ControlSignal::CreditResync {
            node: up,
            dir: East,
            epoch: 2,
        };
        assert_eq!(out.control, [signal]);
        assert_eq!(counters.control_sends, 1);
        assert!(!at_down.has_pending(), "sent once");

        // Upstream accepts only its own link's current epoch, once.
        // (Node 3's East link is at epoch 2 in this router's view as well.)
        let other = NodeId::new(3);
        fa_up.learn(other, East, 1, false, 21);
        fa_up.learn(other, East, 2, true, 22);
        assert!(
            !at_up.confirm(&fa_up, other, East, 2),
            "another node's link"
        );
        assert!(!at_up.confirm(&fa_up, up, North, 0), "a port not held");
        assert!(!at_up.confirm(&fa_up, up, East, 1), "a stale epoch");
        assert!(at_up.waiting(East));
        assert!(at_up.confirm(&fa_up, up, East, 2));
        assert!(!at_up.waiting(East));
        assert!(!at_up.confirm(&fa_up, up, East, 2), "already answered");

        // A kill abandons a wait; `cancel` and `reset` do too.
        for (epoch, alive) in [(3, false), (4, true)] {
            let update = fa_up.learn(up, East, epoch, alive, 30).unwrap();
            at_up.on_link_update(&update, |_| true);
        }
        assert!(at_up.waiting(East));
        let mut cancelled = at_up.clone();
        cancelled.cancel(East);
        assert_eq!(cancelled.wait_mask(), 0);
        let mut wiped = at_up.clone();
        wiped.reset();
        assert_eq!(bytes(&wiped), bytes(&ResyncHandshake::default()));
        let kill = fa_up.learn(up, East, 5, false, 40).unwrap();
        assert_eq!(at_up.on_link_update(&kill, |_| true), None);
        assert!(!at_up.waiting(East));

        // Two owed confirmations go out one per cycle, lowest direction
        // first, and an input that dies again before its turn owes none.
        let mut fa = FaultAwareness::new(up, mesh.clone());
        let mut owed = ResyncHandshake::default();
        for d in [West, North] {
            let feeder = mesh.neighbor(up, d).unwrap();
            for (epoch, alive) in [(1, false), (2, true)] {
                let update = fa.learn(feeder, d.opposite(), epoch, alive, 1).unwrap();
                owed.on_link_update(&update, |_| true);
            }
        }
        out.clear();
        owed.emit(&fa, |_| true, &mut out, &mut counters);
        let north = mesh.neighbor(up, North).unwrap();
        assert_eq!(
            out.control,
            [ControlSignal::CreditResync {
                node: north,
                dir: North.opposite(),
                epoch: 2,
            }]
        );
        assert!(owed.has_pending(), "West still owes its confirmation");
        let mut wiped = owed.clone();
        wiped.reset();
        assert!(!wiped.has_pending());
        let west = mesh.neighbor(up, West).unwrap();
        let kill = fa.learn(west, East, 3, false, 2).unwrap();
        owed.on_link_update(&kill, |_| true);
        assert!(!owed.has_pending());
    }

    #[test]
    fn gossip_signal_round_trips_through_on_control() {
        let mut fa = FaultAwareness::new(NodeId::new(0), mesh3());
        assert!(fa
            .on_control(
                ControlSignal::LinkFault {
                    node: NodeId::new(4),
                    dir: Direction::East,
                    epoch: 1,
                    alive: false,
                },
                3,
            )
            .is_some());
        assert!(fa
            .on_control(ControlSignal::StartCreditTracking, 4)
            .is_none());
        assert!(fa
            .on_control(
                ControlSignal::CreditResync {
                    node: NodeId::new(0),
                    dir: Direction::East,
                    epoch: 2,
                },
                5,
            )
            .is_none());
        assert!(!fa.is_clean());
        assert_eq!(fa.first_fault_at(), None, "remote faults are not local");
    }
}
