//! The cycle kernel: every phase body of a simulated cycle, written once
//! (DESIGN.md §8).
//!
//! A *schedule* decides which components a cycle visits, in what order and
//! on which thread; a *body* is what happens to one component when it is
//! visited. The serial engine (`network.rs`) and the sharded engine
//! (`parallel.rs`) are schedules over the bodies below. A body reaches
//! simulation state only through a [`Cx`]: the node range of routers, NIs
//! and per-node bookkeeping its schedule owns with the link-wheel view
//! ([`Lanes`]) of the lanes those routers drive ([`Nodes`]), the [`Accum`]
//! its counts go to, and two handles saying how shared structures are
//! touched — bitmask words ([`Bits`]: the activity sets and the wheel's
//! arrival masks) and the fault log ([`FaultLog`]). The serial schedule
//! takes every node and plugs in the network's own words through `&mut`,
//! its log and totals; a shard takes its node range, split off the same
//! view by safe slice splits ([`Nodes::split_front`]), and plugs in shared
//! atomic words and its per-cycle delta. Both are monomorphised, so
//! neither pays for the other — and so is the router type `R` of the
//! network's bank, so a body calls its routers directly, not through a
//! vtable. `tests/common/lockstep.rs` re-implements the bodies naively,
//! from the public API, and checks both schedules in lockstep.

use crate::channel::Lanes;
use crate::config::NetworkConfig;
use crate::error::SimError;
use crate::faults::{FaultEvent, FaultEventKind, FaultPlane, FlitFate};
use crate::flit::{Cycle, Flit};
use crate::geom::{Direction, NodeId, PortId};
use crate::network::{ChannelEnds, Network};
use crate::ni::NodeInterface;
use crate::packet::PacketTable;
use crate::rng::SimRng;
use crate::router::{Router, RouterMode, RouterOutputs};
use crate::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::NetworkStats;
use crate::topology::Mesh;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One bitmask as a schedule reaches it.
pub(crate) trait Bits {
    /// Sets member `i`.
    fn set(&mut self, i: usize);
    /// Clears member `i`.
    fn clear(&mut self, i: usize);
    /// Snapshot of word `wi` (members `64·wi ..`).
    fn word(&self, wi: usize) -> u64;
}

/// A bitmask one schedule owns: plain words (`get_mut`; a `Relaxed` load
/// is a plain load).
impl Bits for &mut [AtomicU64] {
    #[inline]
    fn set(&mut self, i: usize) {
        *self[i >> 6].get_mut() |= 1u64 << (i & 63);
    }
    #[inline]
    fn clear(&mut self, i: usize) {
        *self[i >> 6].get_mut() &= !(1u64 << (i & 63));
    }
    #[inline]
    fn word(&self, wi: usize) -> u64 {
        self[wi].load(Relaxed)
    }
}

/// A bitmask shared by every shard: each bit has one writer per phase, but
/// bits of different shards share words, so updates are word-level atomic
/// RMWs. `Relaxed` suffices — the barrier's two crossings order them
/// against everything outside the region.
impl Bits for &[AtomicU64] {
    #[inline]
    fn set(&mut self, i: usize) {
        self[i >> 6].fetch_or(1u64 << (i & 63), Relaxed);
    }
    #[inline]
    fn clear(&mut self, i: usize) {
        self[i >> 6].fetch_and(!(1u64 << (i & 63)), Relaxed);
    }
    #[inline]
    fn word(&self, wi: usize) -> u64 {
        self[wi].load(Relaxed)
    }
}

/// Where fault-plane events go.
pub(crate) trait FaultLog {
    /// Records `ev`, raised while delivering link `c`'s flit (`is_flit`) or
    /// one of its credits. The serial walk visits links in ascending order
    /// and logs directly; a shard keeps the tags to sort its events by.
    fn log(&mut self, c: usize, is_flit: bool, ev: FaultEvent);
}

/// Everything the phase bodies count. The network's run totals are one of
/// these, filled directly by the serial schedule; each shard fills its own
/// (zeroed per cycle) and [`Accum::merge`] folds them in ascending shard
/// order — the single reduction path. Deltas can be negative, hence the
/// signed gauges.
#[derive(Debug, Default)]
pub(crate) struct Accum {
    pub(crate) stats: NetworkStats,
    /// Credit-conservation audit: credits pushed onto reverse lanes,
    /// delivered upstream, lost to faults.
    pub(crate) credits_pushed: u64,
    pub(crate) credits_delivered: u64,
    pub(crate) credits_faulted: u64,
    /// Flits inside routers or on links.
    pub(crate) in_flight: i64,
    /// Flits sitting in NI retransmit queues.
    pub(crate) retx_queued: i64,
    /// Routers per mode, indexed by [`Network::mode_slot`].
    pub(crate) mode_counts: [i64; 3],
    /// Max over NIs of their (monotone) reassembly high-water marks.
    pub(crate) ni_high_water_max: usize,
    /// Dropped flits riding the modeled NACK circuit back to their source,
    /// due at their retransmission-ready cycle, in router-walk order.
    pub(crate) nack_queue: DueQueue<Flit>,
}

impl Accum {
    /// Zeroes the accumulator in place, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.stats.clear();
        self.credits_pushed = 0;
        self.credits_delivered = 0;
        self.credits_faulted = 0;
        self.in_flight = 0;
        self.retx_queued = 0;
        self.mode_counts = [0; 3];
        self.ni_high_water_max = 0;
        self.nack_queue.clear();
    }

    /// Folds `src` into `self` and zeroes `src`. Sums and maxima commute;
    /// the NACK queue concatenates, so callers merge in ascending shard
    /// order.
    pub(crate) fn merge(&mut self, src: &mut Accum) {
        self.stats.merge(&src.stats);
        self.credits_pushed += src.credits_pushed;
        self.credits_delivered += src.credits_delivered;
        self.credits_faulted += src.credits_faulted;
        self.in_flight += src.in_flight;
        self.retx_queued += src.retx_queued;
        for (m, s) in self.mode_counts.iter_mut().zip(src.mode_counts) {
            *m += s;
        }
        self.ni_high_water_max = self.ni_high_water_max.max(src.ni_high_water_max);
        self.nack_queue.append(&mut src.nack_queue);
        src.clear();
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.stats.heap_bytes() + self.nack_queue.heap_bytes()
    }
}

/// Entries riding a fixed-latency circuit (the NACK and ack circuits) until
/// their due cycle, as two columns: the retirement scan reads only the
/// 8-byte `due` column, and touches an item only when it retires.
#[derive(Debug)]
pub(crate) struct DueQueue<T> {
    due: Vec<Cycle>,
    items: Vec<T>,
}

impl<T> Default for DueQueue<T> {
    fn default() -> Self {
        DueQueue {
            due: Vec::new(),
            items: Vec::new(),
        }
    }
}

impl<T> DueQueue<T> {
    pub(crate) fn push(&mut self, due: Cycle, item: T) {
        self.due.push(due);
        self.items.push(item);
    }

    pub(crate) fn len(&self) -> usize {
        self.due.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.due.is_empty()
    }

    /// Empties the queue, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.due.clear();
        self.items.clear();
    }

    /// Moves every entry of `src` behind this queue's, in order.
    pub(crate) fn append(&mut self, src: &mut DueQueue<T>) {
        self.due.append(&mut src.due);
        self.items.append(&mut src.items);
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.due.capacity() * std::mem::size_of::<Cycle>()
            + self.items.capacity() * std::mem::size_of::<T>()
    }

    /// Hands every entry due at or before `now` to `f`, in a fixed order:
    /// the first due entry at or after index `i` is `swap_remove`d (the
    /// last entry moves into its hole) and index `i` is re-checked.
    /// Per-source NACK order feeds the retransmit queues, so this order is
    /// part of the simulated result.
    pub(crate) fn retire(&mut self, now: Cycle, mut f: impl FnMut(T)) {
        let mut i = 0;
        while let Some(k) = self.due[i..].iter().position(|&d| d <= now) {
            i += k;
            self.due.swap_remove(i);
            f(self.items.swap_remove(i));
        }
    }
}

/// Encoded as a `Vec<(Cycle, T)>` (snapshot format 4): the length, then
/// `(due, item)` pairs in queue order.
impl<T: Codec + Default> Codec for DueQueue<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        self.len().put(w);
        for (due, item) in self.due.iter().zip(&self.items) {
            due.put(w);
            item.put(w);
        }
    }

    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_u64("sequence length")?;
        self.clear();
        for _ in 0..n {
            let due = Cycle::get(r)?;
            self.push(due, T::get(r)?);
        }
        Ok(())
    }
}

/// A node's link ids by direction, 32 bits each and `u32::MAX` where the
/// mesh has no neighbor: 16 bytes per node and side where a
/// `DirMap<Option<usize>>` took 64.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkIds([u32; 4]);

impl LinkIds {
    const NONE: u32 = u32::MAX;

    /// No link in any direction.
    pub(crate) const EMPTY: LinkIds = LinkIds([Self::NONE; 4]);

    /// The link toward `dir`, if the mesh has one.
    #[inline]
    pub(crate) fn get(&self, dir: Direction) -> Option<usize> {
        let c = self.0[dir.index()];
        (c != Self::NONE).then_some(c as usize)
    }

    /// Records link `c` toward `dir`.
    pub(crate) fn set(&mut self, dir: Direction, c: usize) {
        let c = u32::try_from(c).ok().filter(|&c| c != Self::NONE);
        self.0[dir.index()] = c.expect("link ids fit in 32 bits");
    }

    /// Every link this node has, in direction order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        Direction::ALL.into_iter().filter_map(|d| self.get(d))
    }
}

/// What every body of one cycle reads and nobody writes.
#[derive(Clone, Copy)]
pub(crate) struct Frame<'a> {
    pub(crate) now: Cycle,
    pub(crate) ends: &'a [ChannelEnds],
    pub(crate) out_chan: &'a [LinkIds],
    pub(crate) in_chan: &'a [LinkIds],
    pub(crate) mesh: &'a Mesh,
    pub(crate) faults: &'a FaultPlane,
    /// The fault plan is non-empty (every fault query hides behind this).
    pub(crate) faults_active: bool,
    pub(crate) config: &'a NetworkConfig,
    /// Parent of the per-`(cycle, router)` step streams.
    pub(crate) rng: &'a SimRng,
    /// The end-to-end data of every undelivered packet, read by the NIs a
    /// packet's first flit reaches; only the serial frame writes it.
    pub(crate) packets: &'a PacketTable,
}

impl Frame<'_> {
    /// The age watchdog: a flit arriving at `node` older than
    /// `max_flit_age` is a terminal error.
    pub(crate) fn check_age(&self, node: NodeId, flit: Flit) -> Result<(), SimError> {
        let (now, limit) = (self.now, self.config.max_flit_age);
        let age = now.saturating_sub(flit.injected_at);
        if limit > 0 && age > limit {
            return Err(SimError::FlitOverAge {
                cycle: now,
                limit,
                age,
                node,
                flit,
            });
        }
        Ok(())
    }
}

/// What a schedule owns of the nodes `lo..lo + routers.len()` for one
/// cycle: their routers, NIs and per-node bookkeeping, and the link lanes
/// their routers drive. The serial schedule owns every node; the sharded
/// engine [`shares`](Nodes::share) the mask words and cuts the range at its
/// shard boundaries with [`Nodes::split_front`], so two shards never share
/// an element.
pub(crate) struct Nodes<'a, R, B> {
    pub(crate) lo: usize,
    pub(crate) routers: &'a mut [R],
    pub(crate) nis: &'a mut [NodeInterface],
    pub(crate) accounted_upto: &'a mut [Cycle],
    pub(crate) modes_cache: &'a mut [RouterMode],
    pub(crate) lanes: Lanes<'a, B>,
}

impl<'a, R> Nodes<'a, R, &'a mut [AtomicU64]> {
    /// The same nodes with the lanes' mask words shared.
    pub(crate) fn share(self) -> Nodes<'a, R, &'a [AtomicU64]> {
        Nodes {
            lo: self.lo,
            routers: self.routers,
            nis: self.nis,
            accounted_upto: self.accounted_upto,
            modes_cache: self.modes_cache,
            lanes: self.lanes.share(),
        }
    }
}

impl<'a, R> Nodes<'a, R, &'a [AtomicU64]> {
    /// Splits off the nodes below `mid`, keeping the rest.
    pub(crate) fn split_front(&mut self, mid: usize) -> Nodes<'a, R, &'a [AtomicU64]> {
        let k = mid - self.lo;
        let inside = "boundary inside the range";
        Nodes {
            lo: std::mem::replace(&mut self.lo, mid),
            routers: self.routers.split_off_mut(..k).expect(inside),
            nis: self.nis.split_off_mut(..k).expect(inside),
            accounted_upto: self.accounted_upto.split_off_mut(..k).expect(inside),
            modes_cache: self.modes_cache.split_off_mut(..k).expect(inside),
            lanes: self.lanes.split_front(mid),
        }
    }
}

/// A schedule's view of the state it touches for one cycle (see the module
/// docs). Bodies take global node indices.
pub(crate) struct Cx<'a, R, B, F> {
    pub(crate) fr: Frame<'a>,
    pub(crate) own: Nodes<'a, R, B>,
    pub(crate) acc: &'a mut Accum,
    pub(crate) scratch: &'a mut RouterOutputs,
    /// The fault plane's stream. Only probabilistic plans draw from it and
    /// those run serially, so a shard's copy is never advanced.
    pub(crate) fault_rng: &'a mut SimRng,
    pub(crate) router_active: B,
    pub(crate) ni_send_active: B,
    pub(crate) ni_delivered: B,
    pub(crate) fault_log: F,
}

impl<R: Router, B: Bits, F: FaultLog> Cx<'_, R, B, F> {
    /// Phase 1, reverse side of link `c`: each credit crosses the fault
    /// plane's credit-loss stage on its way to the upstream router; control
    /// signals are sideband and always cross.
    #[inline]
    pub(crate) fn deliver_reverse(&mut self, c: usize) {
        let lanes = &self.own.lanes;
        let credits = lanes.credits_at(c);
        let control = lanes.has_control(c).then(|| lanes.control_at(c)).flatten();
        let now = self.fr.now;
        let ends = self.fr.ends[c];
        let up = ends.from.index();
        for &credit in credits.unwrap_or_default() {
            if self.fr.faults_active && self.fr.faults.credit_lost(c, now, self.fault_rng) {
                self.acc.stats.credits_lost += 1;
                self.acc.stats.faults_injected += 1;
                self.acc.credits_faulted += 1;
                let ev = FaultEvent {
                    cycle: now,
                    from: ends.from,
                    dir: ends.dir,
                    kind: FaultEventKind::CreditLost,
                };
                self.fault_log.log(c, false, ev);
                continue;
            }
            self.acc.credits_delivered += 1;
            self.router_active.set(up);
            self.own.routers[up - self.own.lo].receive_credit(PortId::Net(ends.dir), credit, now);
        }
        for &signal in control.unwrap_or_default() {
            self.router_active.set(up);
            self.own.routers[up - self.own.lo].receive_control(PortId::Net(ends.dir), signal, now);
        }
    }

    /// Phase 1, flit side of link `c`: fault fate, then the age watchdog,
    /// then the downstream router's input port.
    #[inline]
    pub(crate) fn deliver_flit(&mut self, c: usize, mut flit: Flit) -> Result<(), SimError> {
        let now = self.fr.now;
        let ends = self.fr.ends[c];
        if self.fr.faults_active {
            match self.fr.faults.flit_fate(c, now, self.fault_rng) {
                FlitFate::Drop => {
                    self.acc.stats.flits_lost_to_faults += 1;
                    self.acc.stats.faults_injected += 1;
                    self.acc.in_flight -= 1;
                    let ev = FaultEvent::for_flit(now, ends.from, ends.dir, &flit, true);
                    self.fault_log.log(c, true, ev);
                    return Ok(());
                }
                FlitFate::Corrupt => {
                    flit.corrupt();
                    self.acc.stats.faults_injected += 1;
                    let ev = FaultEvent::for_flit(now, ends.from, ends.dir, &flit, false);
                    self.fault_log.log(c, true, ev);
                }
                FlitFate::Deliver => {}
            }
        }
        self.fr.check_age(ends.to, flit)?;
        let down = ends.to.index();
        self.router_active.set(down);
        let port = PortId::Net(ends.dir.opposite());
        self.own.routers[down - self.own.lo].receive_flit(port, flit, now);
        Ok(())
    }

    /// Phase 2a, per NI: retransmit timeouts fire; re-materialized copies
    /// make the NI a sender again, copies purged with a given-up packet
    /// never inject.
    #[inline]
    pub(crate) fn check_timeouts(&mut self, i: usize) {
        let stats = &mut self.acc.stats;
        let (copies0, abandoned0) = (stats.flits_retransmit_copies, stats.flits_abandoned);
        self.own.nis[i - self.own.lo].check_timeouts(self.fr.now, stats);
        let copies = stats.flits_retransmit_copies - copies0;
        if copies > 0 {
            self.ni_send_active.set(i);
        }
        self.acc.retx_queued += copies as i64 - (stats.flits_abandoned - abandoned0) as i64;
    }

    /// Phase 2b, per NI: one injection attempt, in-flight/retransmit
    /// accounting, send-set maintenance.
    #[inline]
    pub(crate) fn inject(&mut self, i: usize) {
        let now = self.fr.now;
        let ni = &mut self.own.nis[i - self.own.lo];
        let stats = &mut self.acc.stats;
        let (inj0, rtx0) = (stats.flits_injected, stats.flits_retransmitted);
        ni.try_inject(&mut self.own.routers[i - self.own.lo], now, stats);
        let retransmitted = stats.flits_retransmitted - rtx0;
        let entered = (stats.flits_injected - inj0) + retransmitted;
        if entered > 0 {
            self.acc.in_flight += entered as i64;
            self.router_active.set(i);
        }
        self.acc.retx_queued -= retransmitted as i64;
        if ni.pending_packets() > 0 || ni.pending_retransmits() > 0 {
            self.ni_send_active.set(i);
        } else {
            self.ni_send_active.clear(i);
        }
    }

    /// Phase 3, per router: replay pending idle cycles, step it on its own
    /// `(cycle, router)` RNG stream, and route its outputs onto link lanes,
    /// the local NI and the NACK circuit.
    pub(crate) fn step_one_router(&mut self, i: usize) -> Result<(), SimError> {
        let fr = &self.fr;
        let now = fr.now;
        let router = &mut self.own.routers[i - self.own.lo];
        let accounted = &mut self.own.accounted_upto[i - self.own.lo];
        let pending_idle = now - *accounted;
        if pending_idle > 0 {
            #[cfg(debug_assertions)]
            let expected = router.counters_view(pending_idle);
            router.note_idle_cycles(pending_idle);
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                *router.counters(),
                expected,
                "router {i}: note_idle_cycles disagrees with counters_view"
            );
        }
        *accounted = now + 1;

        let out = &mut *self.scratch;
        out.clear();
        let mut rng = fr.rng.fork((now << 16) ^ i as u64);
        router.step(now, &mut rng, out);

        for dir in Direction::ALL {
            if let Some(flit) = out.flits[PortId::Net(dir)] {
                let Some(chan) = fr.out_chan[i].get(dir) else {
                    return Err(SimError::Misrouted {
                        cycle: now,
                        node: NodeId::new(i),
                        dir,
                        flit,
                    });
                };
                self.own.lanes.push_flit(chan, flit);
            }
            for &credit in &out.credits[PortId::Net(dir)] {
                if let Some(chan) = fr.in_chan[i].get(dir) {
                    self.own.lanes.push_credit(chan, credit);
                    self.acc.credits_pushed += 1;
                }
            }
        }
        if out.flits[PortId::Local].is_some() {
            return Err(SimError::ProtocolViolation {
                cycle: now,
                node: NodeId::new(i),
                what: "routers must use `ejected`, not the Local flit slot",
            });
        }
        for &signal in &out.control {
            for dir in Direction::ALL {
                if let Some(chan) = fr.in_chan[i].get(dir) {
                    self.own.lanes.push_control(chan, signal);
                }
            }
        }
        if !out.ejected.is_empty() {
            let ni = &mut self.own.nis[i - self.own.lo];
            self.acc.in_flight -= out.ejected.len() as i64;
            let stats = &mut self.acc.stats;
            ni.receive_flits(out.ejected.drain(..), fr.packets, now, stats);
            self.acc.ni_high_water_max = self.acc.ni_high_water_max.max(ni.reassembly_high_water());
            if ni.has_delivered() {
                self.ni_delivered.set(i);
            }
        }
        // Dropped flits ride the modeled NACK circuit back to their source:
        // latency proportional to the Manhattan distance, plus a small
        // fixed processing cost.
        if !out.dropped.is_empty() {
            self.acc.in_flight -= out.dropped.len() as i64;
            for flit in out.dropped.drain(..) {
                let dist = fr.mesh.distance(NodeId::new(i), flit.src) as u64;
                let ready = now + dist * fr.config.link_latency + 2;
                self.acc.nack_queue.push(ready, flit);
            }
        }

        let mode = router.mode();
        let cached = &mut self.own.modes_cache[i - self.own.lo];
        if mode != *cached {
            self.acc.mode_counts[Network::mode_slot(*cached)] -= 1;
            self.acc.mode_counts[Network::mode_slot(mode)] += 1;
            *cached = mode;
        }
        if router.is_quiescent() {
            self.router_active.clear(i);
        } else {
            self.router_active.set(i);
        }
        Ok(())
    }
}

/// Visits the members of `[lo, hi)` in ascending order, one bitmask word
/// at a time: `word(cx, wi)` is read once per word, so a bit set while
/// that word is being walked — behind the cursor or ahead of it — is not
/// visited this cycle, while bits set in later words are. Feeding all-ones
/// words visits exactly `lo..hi`. Stops at the first error.
#[inline]
pub(crate) fn walk<C, E>(
    cx: &mut C,
    lo: usize,
    hi: usize,
    word: impl Fn(&C, usize) -> u64,
    mut visit: impl FnMut(&mut C, usize) -> Result<(), E>,
) -> Result<(), E> {
    if lo >= hi {
        return Ok(());
    }
    let (w_lo, w_hi) = (lo >> 6, (hi - 1) >> 6);
    for wi in w_lo..=w_hi {
        let mut w = word(cx, wi);
        if wi == w_lo {
            w &= !0u64 << (lo & 63);
        }
        if wi == hi >> 6 {
            // Only reachable when `hi % 64 != 0` (else `hi >> 6 > w_hi`).
            w &= (1u64 << (hi & 63)) - 1;
        }
        while w != 0 {
            let i = (wi << 6) + w.trailing_zeros() as usize;
            w &= w - 1;
            visit(cx, i)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{walk, DueQueue};
    use crate::flit::{Cycle, Flit, PacketId};
    use crate::geom::NodeId;
    use crate::rng::SimRng;
    use crate::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};

    /// Walks `[lo, hi)` of `words` (all-ones words when `full`); visiting
    /// member 10 sets 3 (behind the cursor), 20 (ahead, same word) and 70
    /// (a later word), and member `fail` is a terminal error.
    fn visited(words: &mut [u64], lo: usize, hi: usize, full: bool, fail: usize) -> Vec<usize> {
        let (mut words, mut seen) = (words, Vec::new());
        let result = walk(
            &mut words,
            lo,
            hi,
            |w, wi| if full { !0 } else { w[wi] },
            |w, i| {
                seen.push(i);
                if i == 10 && !full {
                    w[0] |= (1 << 3) | (1 << 20);
                    w[1] |= 1 << 6;
                }
                if i == fail {
                    Err(i)
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(result.is_err(), seen.last() == Some(&fail));
        seen
    }

    #[test]
    fn walk_reads_each_word_once_ascending_and_stops_at_an_error() {
        let none = usize::MAX;
        // Bits set while their word is being walked wait for the next
        // walk; bits set in a later word are visited by this one.
        let mut words = [1u64 << 10, 0];
        assert_eq!(visited(&mut words, 0, 128, false, none), [10, 70]);
        assert_eq!(visited(&mut words, 0, 128, false, none), [3, 10, 20, 70]);
        assert_eq!(visited(&mut words, 4, 70, false, none), [10, 20]);
        assert_eq!(visited(&mut words, 0, 128, false, 10), [3, 10]);
    }

    #[test]
    fn walk_of_all_ones_words_visits_exactly_the_range() {
        for (lo, hi) in [
            (0, 1),
            (0, 63),
            (0, 64),
            (0, 65),
            (0, 130),
            (70, 75),
            (5, 5),
        ] {
            let seen = visited(&mut [0u64; 3], lo, hi, true, usize::MAX);
            assert_eq!(seen, (lo..hi).collect::<Vec<_>>(), "{lo}..{hi}");
        }
    }

    /// The circuit queue [`DueQueue`] replaced: a `Vec<(Cycle, T)>` retired
    /// by a whole-vector scan that `swap_remove`s each due entry and
    /// re-checks its index.
    fn reference_retire<T>(queue: &mut Vec<(Cycle, T)>, now: Cycle, out: &mut Vec<T>) {
        let mut i = 0;
        while i < queue.len() {
            if queue[i].0 <= now {
                out.push(queue.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
    }

    fn pairs<T: Copy>(q: &DueQueue<T>) -> Vec<(Cycle, T)> {
        assert_eq!(q.due.len(), q.items.len(), "columns out of step");
        q.due.iter().copied().zip(q.items.iter().copied()).collect()
    }

    fn bytes(value: &impl Codec) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        value.put(&mut w);
        w.into_bytes()
    }

    /// Retires both queues at `now` and requires the same flits in the same
    /// order, and the same survivors in the same order.
    fn retire_both(q: &mut DueQueue<Flit>, reference: &mut Vec<(Cycle, Flit)>, now: Cycle) {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        q.retire(now, |f| got.push(f));
        reference_retire(reference, now, &mut want);
        assert_eq!(got, want, "retire order at cycle {now}");
        assert_eq!(pairs(q), *reference, "survivors at cycle {now}");
    }

    /// Checks `put` against `Vec<(Cycle, Flit)>`'s encoding, the round trip,
    /// and that every strict prefix of the stream is `Truncated`.
    fn check_codec(q: &DueQueue<Flit>, reference: &[(Cycle, Flit)], truncations: bool) {
        let encoded = bytes(q);
        assert_eq!(encoded, bytes(&reference.to_vec()), "put bytes");
        let mut back = DueQueue::default();
        back.push(7, Flit::default()); // load overwrites, never appends
        back.load(&mut SnapshotReader::new(&encoded)).unwrap();
        assert_eq!(pairs(&back), reference, "round trip");
        if truncations {
            for cut in 0..encoded.len() {
                let mut r = SnapshotReader::new(&encoded[..cut]);
                let err = DueQueue::<Flit>::default().load(&mut r).unwrap_err();
                assert!(
                    matches!(err, SnapshotError::Truncated { .. }),
                    "cut at {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn due_queue_retires_in_the_swap_remove_scan_order_with_the_vec_bytes() {
        let mut next = 0u64;
        let mut flit = |rng: &mut SimRng| {
            next += 1;
            // Packet ids are distinct, so every flit is told apart.
            let src = NodeId::new(rng.gen_index(16));
            Flit::test_flit(PacketId(next), src, NodeId::new(0))
        };
        for case in 0..48u64 {
            let mut rng = SimRng::seed_from(0xD0E_0000 + case);
            let mut q = DueQueue::default();
            let mut reference: Vec<(Cycle, Flit)> = Vec::new();
            // An empty queue retires nothing and encodes as an empty Vec.
            retire_both(&mut q, &mut reference, 0);
            check_codec(&q, &reference, true);
            let mut now: Cycle = 0;
            for step in 0..160 {
                match rng.gen_index(5) {
                    // A burst of pushes; a due window of 6 cycles makes
                    // ties common.
                    0 | 1 => {
                        for _ in 0..rng.gen_index(6) {
                            let due = now + rng.gen_range(6);
                            let f = flit(&mut rng);
                            q.push(due, f);
                            reference.push((due, f));
                        }
                    }
                    // A sharded cycle: per-shard queues appended in
                    // ascending shard order, some of them empty.
                    2 => {
                        for _ in 0..1 + rng.gen_index(4) {
                            let mut shard = DueQueue::default();
                            for _ in 0..rng.gen_index(4) {
                                let due = now + rng.gen_range(6);
                                let f = flit(&mut rng);
                                shard.push(due, f);
                                reference.push((due, f));
                            }
                            q.append(&mut shard);
                            assert!(shard.is_empty(), "append drains the shard");
                        }
                    }
                    _ => {
                        now += rng.gen_range(4);
                        retire_both(&mut q, &mut reference, now);
                    }
                }
                assert_eq!(q.len(), reference.len());
                if step % 16 == 0 {
                    check_codec(&q, &reference, case < 4);
                }
            }
            check_codec(&q, &reference, case < 4);
            // An all-due queue drains completely, in the reference order.
            retire_both(&mut q, &mut reference, Cycle::MAX);
            assert!(q.is_empty());
        }
    }
}
