//! Pipelined inter-router links: the cycle-stamped link wheel.
//!
//! Each directed adjacency in the mesh is a link with a forward lane
//! carrying at most one flit per cycle downstream and a reverse lane
//! carrying credits and control signals upstream. The paper models a link
//! as a fixed pipeline delay, so a lane needs no queue: an item pushed at
//! cycle `t` is written to slot `(t + delay) % W` stamped with its arrival
//! cycle `due = t + delay`, and the receiver at cycle `t` reads slot
//! `t % W` and accepts it iff `due == t`. Stale slots invalidate
//! themselves — nothing is rotated, popped, cleared or staged, and there is
//! no per-cycle heap traffic (DESIGN.md §8).
//!
//! All links of a network share one `LinkWheel`: a forward slab of
//! cache-line `{due, flit}` slots and a reverse slab of
//! `{due, credits, control}` slots, `W = delay + 1` stripes of one slot per
//! link each. With `W = delay + 1` the stripe read at `t` and the stripe
//! written at `t` are never the same, and each lane has exactly one writer
//! (the upstream router pushes flits, the downstream router pushes
//! credits/control) — the ownership split the parallel engine relies on
//! (DESIGN.md §12). [`Channel`] is the same kernel as a standalone
//! one-link wheel with its own clock.
//!
//! The forward lane has delay `L + 2`: one cycle of switch traversal at the
//! sender, `L` cycles of wire, with the downstream buffer write overlapped
//! with the last wire cycle (Table I of the paper). The reverse lane has
//! delay `L` — credits and the one-bit credit-tracking control line are pure
//! wires.

use crate::flit::{Cycle, Flit, VcId, VirtualNetwork};
use crate::geom::{Direction, NodeId};
use crate::kernel::Lanes;
use crate::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};

/// A buffer-release token flowing upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Credit {
    /// Frees one slot of a specific downstream VC (classic per-VC credit
    /// flow control, used by the backpressured baseline).
    Vc(VcId),
    /// Frees one slot anywhere in a downstream virtual network (AFC's lazy
    /// VC allocation tracks credits at virtual-network granularity,
    /// Section III-E).
    Vnet(VirtualNetwork),
}

/// A control signal on the one-bit sideband line (paper Section III-A).
///
/// Fault notifications ride the same sideband: a router that detects (or
/// learns of) a dead link rebroadcasts it to every neighbor, flooding
/// reachability knowledge across the mesh one hop per cycle — the same
/// gossip pattern AFC uses for congestion (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlSignal {
    /// The downstream router is switching to backpressured mode: start
    /// counting its credits now (arrives `L` cycles after the switch began).
    StartCreditTracking,
    /// The downstream router has switched to backpressureless mode: stop
    /// counting credits and treat its buffers as empty.
    StopCreditTracking,
    /// The directed link leaving `node` toward `dir` transitioned to
    /// `alive` at epoch `epoch`. Flooded hop-by-hop; receivers keep only
    /// the highest epoch per link, so a revival supersedes a kill (and
    /// vice versa) regardless of gossip arrival order (DESIGN.md §15).
    LinkFault {
        /// Upstream endpoint of the affected link.
        node: NodeId,
        /// Outgoing direction of the affected link at `node`.
        dir: Direction,
        /// Monotonic per-link epoch of the transition (1-based).
        epoch: u32,
        /// New alive state of the link.
        alive: bool,
    },
    /// Credit re-sync handshake (DESIGN.md §15): the downstream router's
    /// input buffers on the revived link `node -> dir` have fully drained,
    /// so the upstream router may reset that output port's credit counters
    /// to full. Sent once per revival epoch, on the revived link's own
    /// reverse lane — FIFO lane ordering guarantees every stale drain
    /// credit arrives before this signal.
    CreditResync {
        /// Upstream endpoint of the revived link (the signal's addressee).
        node: NodeId,
        /// Outgoing direction of the revived link at `node`.
        dir: Direction,
        /// Revival epoch this handshake belongs to (stale handshakes from
        /// an earlier revival are ignored).
        epoch: u32,
    },
}

/// Inline capacity of one reverse-lane slot.
///
/// A router emits at most one credit per input port and at most one mode
/// control signal per cycle onto a given channel (the invariant tests pin
/// this), so the per-cycle fan-in onto one reverse slot is a small
/// constant; 4 leaves slack. Overflow panics rather than spilling.
pub const LANE_CAP: usize = 4;

/// A fixed-capacity inline list: one cycle's worth of a reverse lane.
#[derive(Debug, Clone, Copy)]
struct LaneSlot<T: Copy> {
    len: u8,
    items: [T; LANE_CAP],
}

// Fill values are never observed: `len` gates every read.
impl LaneSlot<Credit> {
    const EMPTY: Self = LaneSlot {
        len: 0,
        items: [Credit::Vc(VcId(0)); LANE_CAP],
    };
}

impl LaneSlot<ControlSignal> {
    const EMPTY: Self = LaneSlot {
        len: 0,
        items: [ControlSignal::StartCreditTracking; LANE_CAP],
    };
}

impl<T: Copy> LaneSlot<T> {
    fn push(&mut self, item: T) {
        assert!(
            (self.len as usize) < LANE_CAP,
            "reverse-lane slot overflow: more than {LANE_CAP} items in one cycle"
        );
        self.items[self.len as usize] = item;
        self.len += 1;
    }

    fn as_slice(&self) -> &[T] {
        &self.items[..self.len as usize]
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// What a [`Channel`] delivers at the start of a cycle.
///
/// Plain-old-data with inline storage (no heap); iterate
/// [`credits`](Delivery::credits) / [`control`](Delivery::control) as
/// slices.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// Flit arriving at the downstream router, if any.
    pub flit: Option<Flit>,
    credits: LaneSlot<Credit>,
    control: LaneSlot<ControlSignal>,
}

impl Delivery {
    /// Credits arriving back at the upstream router.
    pub fn credits(&self) -> &[Credit] {
        self.credits.as_slice()
    }

    /// Control signals arriving back at the upstream router.
    pub fn control(&self) -> &[ControlSignal] {
        self.control.as_slice()
    }

    /// True if nothing arrived.
    pub fn is_empty(&self) -> bool {
        self.flit.is_none() && self.credits.is_empty() && self.control.is_empty()
    }
}

impl Codec for Credit {
    fn put(&self, w: &mut SnapshotWriter) {
        match *self {
            Credit::Vc(vc) => (0u8, vc).put(w),
            Credit::Vnet(vnet) => (1u8, vnet).put(w),
        }
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self = match r.get_u8("credit tag")? {
            0 => Credit::Vc(Codec::get(r)?),
            1 => Credit::Vnet(Codec::get(r)?),
            _ => return Err(SnapshotError::Malformed { what: "credit tag" }),
        };
        Ok(())
    }
}

/// A link fact's body is `(node, dir, epoch, alive)`, as the fault
/// awareness stores it ([`FaultAwareness`](crate::fault_aware::FaultAwareness)).
impl Codec for ControlSignal {
    fn put(&self, w: &mut SnapshotWriter) {
        match *self {
            ControlSignal::StartCreditTracking => 0u8.put(w),
            ControlSignal::StopCreditTracking => 1u8.put(w),
            ControlSignal::LinkFault {
                node,
                dir,
                epoch,
                alive,
            } => (2u8, (node, dir, epoch, alive)).put(w),
            ControlSignal::CreditResync { node, dir, epoch } => (3u8, (node, dir, epoch)).put(w),
        }
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self = match r.get_u8("control tag")? {
            0 => ControlSignal::StartCreditTracking,
            1 => ControlSignal::StopCreditTracking,
            2 => {
                let (node, dir, epoch, alive) = Codec::get(r)?;
                ControlSignal::LinkFault {
                    node,
                    dir,
                    epoch,
                    alive,
                }
            }
            3 => {
                let (node, dir, epoch) = Codec::get(r)?;
                ControlSignal::CreditResync { node, dir, epoch }
            }
            _ => {
                return Err(SnapshotError::Malformed {
                    what: "control tag",
                })
            }
        };
        Ok(())
    }
}

/// One byte of length, then the items.
impl<T: Codec + Copy> Codec for LaneSlot<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        self.len.put(w);
        self.as_slice().put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.len = r.get_u8("lane slot length")?;
        let items = self.items.get_mut(..self.len as usize);
        items
            .ok_or(SnapshotError::Malformed {
                what: "lane slot length",
            })?
            .load(r)
    }
}

/// `due` stamp of a slot that has never been written (or was reset): no
/// simulation reaches this cycle, so it never matches a read.
const NEVER: Cycle = Cycle::MAX;

/// Whether a slot stamped `due` still awaits delivery at cycle `now`.
#[inline]
fn live(due: Cycle, now: Cycle) -> bool {
    due != NEVER && due >= now
}

/// One forward-wheel slot: a flit stamped with its arrival cycle. Exactly
/// one cache line, so a phase-1 read or a phase-3 push touches one line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
pub(crate) struct FwdSlot {
    due: Cycle,
    flit: Option<Flit>,
}

impl FwdSlot {
    const EMPTY: FwdSlot = FwdSlot {
        due: NEVER,
        flit: None,
    };

    /// Stamps `flit` to arrive at cycle `due`.
    ///
    /// # Panics
    ///
    /// Panics if the slot already carries a flit due that cycle — two flits
    /// crossed the same link in the same cycle, a router bug.
    #[inline]
    pub(crate) fn push(&mut self, due: Cycle, flit: Flit) {
        if let (true, Some(first)) = (self.due == due, self.flit) {
            panic!("link overdriven: two flits pushed in one cycle ({first} then {flit})");
        }
        *self = FwdSlot {
            due,
            flit: Some(flit),
        };
    }

    /// The flit arriving at cycle `now`, if this slot holds one.
    #[inline]
    pub(crate) fn arrival(&self, now: Cycle) -> Option<Flit> {
        if self.due == now {
            self.flit
        } else {
            None
        }
    }
}

/// One reverse-wheel slot: the credits and control signals (one wire
/// bundle) stamped with their shared arrival cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RevSlot {
    due: Cycle,
    credits: LaneSlot<Credit>,
    control: LaneSlot<ControlSignal>,
}

impl RevSlot {
    const EMPTY: RevSlot = RevSlot {
        due: NEVER,
        credits: LaneSlot::<Credit>::EMPTY,
        control: LaneSlot::<ControlSignal>::EMPTY,
    };

    /// Re-stamps a stale slot for arrivals at `due`, discarding its old
    /// contents; a slot already stamped `due` keeps accumulating.
    #[inline]
    fn open(&mut self, due: Cycle) {
        if self.due != due {
            self.due = due;
            self.credits.clear();
            self.control.clear();
        }
    }

    /// Adds a credit arriving at cycle `due`.
    #[inline]
    pub(crate) fn push_credit(&mut self, due: Cycle, credit: Credit) {
        self.open(due);
        self.credits.push(credit);
    }

    /// Adds a control signal arriving at cycle `due`.
    #[inline]
    pub(crate) fn push_control(&mut self, due: Cycle, signal: ControlSignal) {
        self.open(due);
        self.control.push(signal);
    }

    /// This slot, if its contents arrive at cycle `now`.
    #[inline]
    pub(crate) fn arrival(&self, now: Cycle) -> Option<&RevSlot> {
        (self.due == now).then_some(self)
    }

    /// Credits carried by this slot.
    #[inline]
    pub(crate) fn credits(&self) -> &[Credit] {
        self.credits.as_slice()
    }

    /// Control signals carried by this slot.
    #[inline]
    pub(crate) fn control(&self) -> &[ControlSignal] {
        self.control.as_slice()
    }
}

/// Where one cycle reads and writes the wheel: slab offsets of the stripes
/// `now % W` (arrivals) and `(now + delay) % W` (pushes) of each lane, and
/// the `due` stamps pushes carry. A pure function of the clock, computed
/// once per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tick {
    pub(crate) now: Cycle,
    pub(crate) fwd_due: Cycle,
    pub(crate) rev_due: Cycle,
    fwd_rd: usize,
    fwd_wr: usize,
    rev_rd: usize,
    rev_wr: usize,
}

/// Slab indices of link `c`'s slots this cycle — the stripe layout, known
/// only to this module: arrivals are read at `*_read`, pushes land at
/// `*_write`.
impl Tick {
    #[inline]
    pub(crate) fn fwd_read(&self, c: usize) -> usize {
        self.fwd_rd + c
    }
    #[inline]
    pub(crate) fn fwd_write(&self, c: usize) -> usize {
        self.fwd_wr + c
    }
    #[inline]
    pub(crate) fn rev_read(&self, c: usize) -> usize {
        self.rev_rd + c
    }
    #[inline]
    pub(crate) fn rev_write(&self, c: usize) -> usize {
        self.rev_wr + c
    }
}

/// The arrival cycles of the newest pushes onto one link's forward and
/// reverse lanes (0 = never): the whole of a lane's occupancy bookkeeping,
/// each half written only by that lane's single writer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LastDue {
    pub(crate) fwd: Cycle,
    pub(crate) rev: Cycle,
}

/// Every link of a network as two slot slabs (see the module docs).
///
/// Slabs are stripe-major — slot `s` of link `c` lives at `s * links + c` —
/// so a cycle's arrivals are one contiguous stripe walked in ascending
/// link order; `last_due[c]` is link `c`'s [`LastDue`]. Fields are
/// crate-visible for the parallel engine, which pushes through raw slot
/// pointers at the [`Tick`] indices.
#[derive(Debug, Clone)]
pub(crate) struct LinkWheel {
    links: usize,
    fwd_delay: u64,
    rev_delay: u64,
    pub(crate) fwd: Vec<FwdSlot>,
    pub(crate) rev: Vec<RevSlot>,
    pub(crate) last_due: Vec<LastDue>,
}

impl LinkWheel {
    /// A wheel of `links` empty links of wire latency `link_latency`.
    pub(crate) fn new(links: usize, link_latency: u64) -> LinkWheel {
        assert!(link_latency >= 1, "link latency must be >= 1");
        let fwd_delay = link_latency + Channel::ROUTER_OVERHEAD;
        let rev_delay = link_latency;
        LinkWheel {
            links,
            fwd_delay,
            rev_delay,
            fwd: vec![FwdSlot::EMPTY; links * (fwd_delay as usize + 1)],
            rev: vec![RevSlot::EMPTY; links * (rev_delay as usize + 1)],
            last_due: vec![LastDue::default(); links],
        }
    }

    /// The stripe offsets and stamps for cycle `now`.
    pub(crate) fn tick(&self, now: Cycle) -> Tick {
        let stripe = |t: Cycle, delay: u64| (t % (delay + 1)) as usize * self.links;
        Tick {
            now,
            fwd_due: now + self.fwd_delay,
            rev_due: now + self.rev_delay,
            fwd_rd: stripe(now, self.fwd_delay),
            fwd_wr: stripe(now + self.fwd_delay, self.fwd_delay),
            rev_rd: stripe(now, self.rev_delay),
            rev_wr: stripe(now + self.rev_delay, self.rev_delay),
        }
    }

    /// `self.tick(t.now + 1)` without the divisions: every stripe moves up
    /// one, so next cycle writes where this one read.
    fn next_tick(&self, t: &Tick) -> Tick {
        let up = |rd: usize, len: usize| {
            if rd + self.links == len {
                0
            } else {
                rd + self.links
            }
        };
        Tick {
            now: t.now + 1,
            fwd_due: t.fwd_due + 1,
            rev_due: t.rev_due + 1,
            fwd_rd: up(t.fwd_rd, self.fwd.len()),
            fwd_wr: t.fwd_rd,
            rev_rd: up(t.rev_rd, self.rev.len()),
            rev_wr: t.rev_rd,
        }
    }

    /// The flit arriving on link `c` this cycle, if any.
    #[inline]
    pub(crate) fn flit_at(&self, t: &Tick, c: usize) -> Option<Flit> {
        self.fwd[t.fwd_read(c)].arrival(t.now)
    }

    /// Whether nothing on link `c` is due after cycle `now` — the link's
    /// activity bit may drop once this cycle's arrivals are delivered.
    #[inline]
    pub(crate) fn quiet_after(&self, c: usize, now: Cycle) -> bool {
        self.last_due[c].fwd.max(self.last_due[c].rev) <= now
    }

    /// Flits not yet delivered at cycle `now`, recounted from the slab.
    pub(crate) fn flits_in_flight(&self, now: Cycle) -> usize {
        self.fwd.iter().filter(|s| live(s.due, now)).count()
    }

    /// Credits not yet delivered at cycle `now`, recounted from the slab
    /// (feeds the network's credit-conservation audit).
    pub(crate) fn credits_in_flight(&self, now: Cycle) -> usize {
        self.rev
            .iter()
            .filter(|s| live(s.due, now))
            .map(|s| s.credits().len())
            .sum()
    }

    /// Heap bytes of the slabs: a function of link count and latency only.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.fwd.capacity() * size_of::<FwdSlot>()
            + self.rev.capacity() * size_of::<RevSlot>()
            + self.last_due.capacity() * size_of::<LastDue>()
    }

    /// Empties every link in place. Stamps must go: a reused wheel's clock
    /// restarts, and an old stamp could match a new cycle.
    pub(crate) fn reset(&mut self) {
        for s in &mut self.fwd {
            s.due = NEVER;
        }
        for s in &mut self.rev {
            s.due = NEVER;
        }
        self.last_due.fill(LastDue::default());
    }

    /// The ticks of the cycles anything on the wires before cycle `now`
    /// can arrive in: `now..now + fwd_delay` (the reverse lane's
    /// `rev_delay < fwd_delay` cycles are a prefix).
    fn arrival_ticks(&self, now: Cycle) -> Vec<Tick> {
        (now..now + self.fwd_delay).map(|t| self.tick(t)).collect()
    }

    /// Serializes what is on the wires between cycles `now - 1` and `now`,
    /// link by link in arrival order relative to `now`: `fwd_delay`
    /// optional flits, then `rev_delay` credit/control slot pairs. Slot
    /// positions, stale contents and `last_due` are not state.
    pub(crate) fn save(&self, w: &mut SnapshotWriter, now: Cycle) {
        let ticks = self.arrival_ticks(now);
        for c in 0..self.links {
            for t in &ticks {
                self.flit_at(t, c).put(w);
            }
            for t in &ticks[..self.rev_delay as usize] {
                let slot = self.rev_at(t, c).unwrap_or(&RevSlot::EMPTY);
                (slot.credits, slot.control).put(w);
            }
        }
    }

    /// Restores, in place, a wheel written by [`LinkWheel::save`] at the
    /// same `now` for the same link count and latency.
    pub(crate) fn load(
        &mut self,
        r: &mut SnapshotReader<'_>,
        now: Cycle,
    ) -> Result<(), SnapshotError> {
        self.reset();
        let ticks = self.arrival_ticks(now);
        for c in 0..self.links {
            for t in &ticks {
                let slot = &mut self.fwd[t.fwd_read(c)];
                slot.flit.load(r)?;
                if slot.flit.is_some() {
                    slot.due = t.now;
                    self.last_due[c].fwd = t.now;
                }
            }
            for t in &ticks[..self.rev_delay as usize] {
                let slot = &mut self.rev[t.rev_read(c)];
                slot.credits.load(r)?;
                slot.control.load(r)?;
                if !(slot.credits.is_empty() && slot.control.is_empty()) {
                    slot.due = t.now;
                    self.last_due[c].rev = t.now;
                }
            }
        }
        Ok(())
    }
}

impl Lanes for LinkWheel {
    #[inline]
    fn rev_at(&self, t: &Tick, c: usize) -> Option<&RevSlot> {
        self.rev[t.rev_read(c)].arrival(t.now)
    }
    #[inline]
    fn push_flit(&mut self, t: &Tick, c: usize, flit: Flit) {
        self.fwd[t.fwd_write(c)].push(t.fwd_due, flit);
        self.last_due[c].fwd = t.fwd_due;
    }
    #[inline]
    fn push_credit(&mut self, t: &Tick, c: usize, credit: Credit) {
        self.rev[t.rev_write(c)].push_credit(t.rev_due, credit);
        self.last_due[c].rev = t.rev_due;
    }
    #[inline]
    fn push_control(&mut self, t: &Tick, c: usize, signal: ControlSignal) {
        self.rev[t.rev_write(c)].push_control(t.rev_due, signal);
        self.last_due[c].rev = t.rev_due;
    }
}

/// A single directed link between two adjacent routers: a one-link
/// `LinkWheel` with its own clock, advanced by [`Channel::advance`].
///
/// # Examples
///
/// ```
/// use afc_netsim::channel::Channel;
/// use afc_netsim::flit::{Flit, PacketId};
/// use afc_netsim::geom::NodeId;
///
/// let mut ch = Channel::new(2); // L = 2 => flit delay 4, credit delay 2
/// ch.push_flit(Flit::test_flit(PacketId(0), NodeId::new(0), NodeId::new(1)));
/// let mut arrived_after = 0;
/// for cycle in 1..=10 {
///     let d = ch.advance();
///     if d.flit.is_some() {
///         arrived_after = cycle;
///         break;
///     }
/// }
/// assert_eq!(arrived_after, 4);
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    wheel: LinkWheel,
    tick: Tick,
}

impl Channel {
    /// Extra forward-lane delay on top of the wire latency: one cycle of
    /// switch traversal plus the (overlapped) downstream buffer write.
    pub const ROUTER_OVERHEAD: u64 = 2;

    /// Creates a channel for a link of latency `link_latency` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `link_latency` is zero (validated earlier by
    /// [`NetworkConfig::validate`](crate::config::NetworkConfig::validate)).
    pub fn new(link_latency: u64) -> Channel {
        let wheel = LinkWheel::new(1, link_latency);
        let tick = wheel.tick(0);
        Channel { wheel, tick }
    }

    /// Total forward delay (cycles from arbitration win to downstream
    /// arbitration eligibility).
    pub fn forward_delay(&self) -> u64 {
        self.wheel.fwd_delay
    }

    /// Sends a flit downstream. At most one flit may be pushed per cycle.
    ///
    /// # Panics
    ///
    /// Panics if a flit was already pushed this cycle — that would mean two
    /// flits crossed the same link in the same cycle, a router bug.
    pub fn push_flit(&mut self, flit: Flit) {
        self.wheel.push_flit(&self.tick, 0, flit);
    }

    /// Sends a credit upstream.
    pub fn push_credit(&mut self, credit: Credit) {
        self.wheel.push_credit(&self.tick, 0, credit);
    }

    /// Sends a control signal upstream.
    pub fn push_control(&mut self, signal: ControlSignal) {
        self.wheel.push_control(&self.tick, 0, signal);
    }

    /// Advances the clock one cycle and returns what arrives.
    pub fn advance(&mut self) -> Delivery {
        self.tick = self.wheel.next_tick(&self.tick);
        let rev = self.wheel.rev_at(&self.tick, 0).unwrap_or(&RevSlot::EMPTY);
        Delivery {
            flit: self.wheel.flit_at(&self.tick, 0),
            credits: rev.credits,
            control: rev.control,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketId;
    use std::collections::VecDeque;

    fn flit(n: u64) -> Flit {
        Flit::test_flit(PacketId(n), NodeId::new(0), NodeId::new(1))
    }

    /// `(flits, credits)` still on `ch`'s wires after its last advance.
    fn in_flight(ch: &Channel) -> (usize, usize) {
        let next = ch.tick.now + 1;
        (
            ch.wheel.flits_in_flight(next),
            ch.wheel.credits_in_flight(next),
        )
    }

    fn is_drained(ch: &Channel) -> bool {
        ch.wheel.quiet_after(0, ch.tick.now)
    }

    #[test]
    fn slots_are_cache_line_sized() {
        assert_eq!(std::mem::size_of::<FwdSlot>(), 64);
        assert_eq!(std::mem::align_of::<FwdSlot>(), 64);
        assert!(std::mem::size_of::<RevSlot>() <= 128);
    }

    #[test]
    fn next_tick_is_tick_of_the_next_cycle() {
        for link_latency in 1..=4 {
            for links in [1, 3] {
                let wheel = LinkWheel::new(links, link_latency);
                let mut t = wheel.tick(0);
                for now in 1..60 {
                    t = wheel.next_tick(&t);
                    assert_eq!(t, wheel.tick(now));
                    assert!(t.fwd_rd != t.fwd_wr && t.rev_rd != t.rev_wr);
                }
            }
        }
    }

    #[test]
    fn forward_delay_is_latency_plus_two() {
        for latency in 1..=4 {
            let mut ch = Channel::new(latency);
            assert_eq!(ch.forward_delay(), latency + 2);
            ch.push_flit(flit(1));
            let mut cycles = 0;
            loop {
                cycles += 1;
                if ch.advance().flit.is_some() {
                    break;
                }
                assert!(cycles < 100);
            }
            assert_eq!(cycles, latency + 2);
        }
    }

    #[test]
    fn reverse_delay_is_latency() {
        let mut ch = Channel::new(3);
        ch.push_credit(Credit::Vc(VcId(2)));
        ch.push_control(ControlSignal::StartCreditTracking);
        let mut cycles = 0;
        loop {
            cycles += 1;
            let d = ch.advance();
            if !d.credits().is_empty() {
                assert_eq!(d.credits(), &[Credit::Vc(VcId(2))]);
                assert_eq!(d.control(), &[ControlSignal::StartCreditTracking]);
                break;
            }
            assert!(d.is_empty());
            assert!(cycles < 100);
        }
        assert_eq!(cycles, 3);
    }

    /// Spins the clock past several laps of the wheel so the panicking
    /// push lands on a slot that carries a stale stamp and stale contents.
    fn lapped_channel() -> Channel {
        let mut ch = Channel::new(1);
        for i in 0..11 {
            ch.push_flit(flit(i));
            for _ in 0..LANE_CAP {
                ch.push_credit(Credit::Vc(VcId(0)));
                ch.push_control(ControlSignal::StopCreditTracking);
            }
            ch.advance();
        }
        ch
    }

    #[test]
    #[should_panic(expected = "link overdriven")]
    fn double_push_panics() {
        let mut ch = lapped_channel();
        ch.push_flit(flit(1));
        ch.push_flit(flit(2));
    }

    #[test]
    #[should_panic(expected = "reverse-lane slot overflow")]
    fn lane_slot_overflow_panics() {
        let mut ch = lapped_channel();
        for _ in 0..=LANE_CAP {
            ch.push_credit(Credit::Vc(VcId(0)));
        }
    }

    #[test]
    fn pipelining_allows_one_flit_per_cycle() {
        let mut ch = Channel::new(2);
        let mut received = 0;
        for i in 0..20u64 {
            ch.push_flit(flit(i));
            if ch.advance().flit.is_some() {
                received += 1;
            }
        }
        // A flit pushed on iteration `i` arrives on the 4th advance, i.e. on
        // iteration `i + 3`.
        assert_eq!(received, 20 - 3);
        assert_eq!(in_flight(&ch), (3, 0));
        assert!(!is_drained(&ch));
    }

    #[test]
    fn drains_to_empty() {
        let mut ch = Channel::new(2);
        ch.push_flit(flit(0));
        ch.push_credit(Credit::Vnet(VirtualNetwork(1)));
        assert_eq!(in_flight(&ch), (1, 1));
        for _ in 0..10 {
            ch.advance();
        }
        assert!(is_drained(&ch));
        assert_eq!(in_flight(&ch), (0, 0));
    }

    #[test]
    fn credits_and_control_share_fifo_order() {
        // The reverse lane is one wire bundle: a credit sent the cycle
        // before a control signal must arrive the cycle before it. AFC's
        // correctness argument for the reverse switch relies on this.
        let mut ch = Channel::new(2);
        ch.push_credit(Credit::Vc(VcId(1)));
        let d1 = ch.advance();
        assert!(d1.credits().is_empty());
        ch.push_control(ControlSignal::StopCreditTracking);
        let d2 = ch.advance();
        assert_eq!(d2.credits(), &[Credit::Vc(VcId(1))]);
        assert!(d2.control().is_empty());
        let d3 = ch.advance();
        assert_eq!(d3.control(), &[ControlSignal::StopCreditTracking]);
    }

    #[test]
    fn flits_preserve_order() {
        let mut ch = Channel::new(1);
        let mut out = Vec::new();
        for i in 0..6u64 {
            ch.push_flit(flit(i));
            if let Some(f) = ch.advance().flit {
                out.push(f.packet.0);
            }
        }
        for _ in 0..6 {
            if let Some(f) = ch.advance().flit {
                out.push(f.packet.0);
            }
        }
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    /// The differential reference: a link as three unbounded queues of
    /// `(due, item)`, searched rather than indexed. Deliberately naive —
    /// it shares no logic with the wheel.
    #[derive(Default)]
    struct RefLink {
        flits: VecDeque<(Cycle, Flit)>,
        credits: VecDeque<(Cycle, Credit)>,
        control: VecDeque<(Cycle, ControlSignal)>,
    }

    fn take_due<T>(q: &mut VecDeque<(Cycle, T)>, now: Cycle) -> Vec<T> {
        let mut out = Vec::new();
        while q.front().is_some_and(|&(due, _)| due == now) {
            out.push(q.pop_front().expect("front checked").1);
        }
        assert!(
            q.front().is_none_or(|&(due, _)| due > now),
            "reference lost an arrival"
        );
        out
    }

    impl RefLink {
        fn is_empty(&self) -> bool {
            self.flits.is_empty() && self.credits.is_empty() && self.control.is_empty()
        }
    }

    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    fn arbitrary_control(rng: &mut XorShift) -> ControlSignal {
        match rng.below(4) {
            0 => ControlSignal::StartCreditTracking,
            1 => ControlSignal::StopCreditTracking,
            2 => ControlSignal::LinkFault {
                node: NodeId::new(rng.below(64) as usize),
                dir: Direction::ALL[rng.below(4) as usize],
                epoch: rng.below(9) as u32,
                alive: rng.below(2) == 0,
            },
            _ => ControlSignal::CreditResync {
                node: NodeId::new(rng.below(64) as usize),
                dir: Direction::ALL[rng.below(4) as usize],
                epoch: rng.below(9) as u32,
            },
        }
    }

    /// Drives a three-link wheel and three reference links through the
    /// same seeded schedule, the way the engine does: each cycle, for every
    /// *active* link, deliver arrivals (compared item by item), drop the
    /// activity flag when the wheel says the link is quiet, then push. A
    /// link whose flag is down is not read at all — for idle gaps forced
    /// longer than the wheel, so re-activation lands on stale slots.
    fn differential(link_latency: u64, seed: u64) {
        const LINKS: usize = 3;
        let mut rng = XorShift(seed | 1);
        let mut wheel = LinkWheel::new(LINKS, link_latency);
        let (fd, rd) = (wheel.fwd_delay, wheel.rev_delay);
        let mut refs: [RefLink; LINKS] = Default::default();
        let mut active = [false; LINKS];
        let mut idle_until = [0 as Cycle; LINKS];
        let mut next_flit = 0u64;
        let mut delivered = 0usize;
        for now in 0..(40 * (fd + 1)) {
            let t = wheel.tick(now);
            for c in 0..LINKS {
                if active[c] {
                    let r = &mut refs[c];
                    assert_eq!(
                        wheel.flit_at(&t, c).into_iter().collect::<Vec<_>>(),
                        take_due(&mut r.flits, now),
                        "L={link_latency} seed={seed} link {c} cycle {now}: flit"
                    );
                    let rev = wheel.rev_at(&t, c);
                    let got_credits = rev.map_or(&[][..], RevSlot::credits);
                    let got_control = rev.map_or(&[][..], RevSlot::control);
                    delivered += got_credits.len() + got_control.len();
                    assert_eq!(
                        got_credits,
                        take_due(&mut r.credits, now),
                        "cycle {now}: credits"
                    );
                    assert_eq!(
                        got_control,
                        take_due(&mut r.control, now),
                        "cycle {now}: control"
                    );
                    assert_eq!(
                        wheel.quiet_after(c, now),
                        r.is_empty(),
                        "cycle {now}: occupancy"
                    );
                    if wheel.quiet_after(c, now) {
                        active[c] = false;
                        if rng.below(3) == 0 {
                            // Longer than either lane's wheel.
                            idle_until[c] = now + fd + 2 + rng.below(2 * fd);
                        }
                    }
                } else {
                    assert!(refs[c].is_empty(), "an inactive link held traffic");
                }
                if now < idle_until[c] {
                    continue;
                }
                if rng.below(2) == 0 {
                    let f = flit(next_flit);
                    next_flit += 1;
                    wheel.push_flit(&t, c, f);
                    refs[c].flits.push_back((now + fd, f));
                    active[c] = true;
                }
                // Up to LANE_CAP credits and LANE_CAP control signals in
                // one cycle: both halves of a slot filled to the brim.
                for _ in 0..rng.below(LANE_CAP as u64 + 3).saturating_sub(2) {
                    if refs[c]
                        .credits
                        .iter()
                        .filter(|&&(due, _)| due == now + rd)
                        .count()
                        == LANE_CAP
                    {
                        break;
                    }
                    let credit = if rng.below(2) == 0 {
                        Credit::Vc(VcId(rng.below(8) as u8))
                    } else {
                        Credit::Vnet(VirtualNetwork(rng.below(3) as u8))
                    };
                    wheel.push_credit(&t, c, credit);
                    refs[c].credits.push_back((now + rd, credit));
                    active[c] = true;
                }
                for _ in 0..rng.below(LANE_CAP as u64 + 4).saturating_sub(3) {
                    if refs[c]
                        .control
                        .iter()
                        .filter(|&&(due, _)| due == now + rd)
                        .count()
                        == LANE_CAP
                    {
                        break;
                    }
                    let signal = arbitrary_control(&mut rng);
                    wheel.push_control(&t, c, signal);
                    refs[c].control.push_back((now + rd, signal));
                    active[c] = true;
                }
            }
            // Between-cycle recounts (what the audits and snapshots see).
            assert_eq!(
                wheel.flits_in_flight(now + 1),
                refs.iter().map(|r| r.flits.len()).sum::<usize>()
            );
            assert_eq!(
                wheel.credits_in_flight(now + 1),
                refs.iter().map(|r| r.credits.len()).sum::<usize>()
            );
        }
        assert!(next_flit > 10 && delivered > 10, "schedule was vacuous");
    }

    #[test]
    fn wheel_matches_naive_queues_for_every_latency() {
        let mut full_slots = 0;
        for link_latency in 1..=4 {
            for seed in 1..=24u64 {
                differential(link_latency, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            // Same-cycle fan-in up to the cap on both halves of one slot.
            let mut ch = Channel::new(link_latency);
            for lap in 0..3 * (link_latency + 1) {
                for _ in 0..LANE_CAP {
                    ch.push_credit(Credit::Vc(VcId(lap as u8)));
                    ch.push_control(ControlSignal::StartCreditTracking);
                }
                let d = ch.advance();
                if lap >= link_latency - 1 {
                    assert_eq!(
                        d.credits(),
                        &[Credit::Vc(VcId((lap + 1 - link_latency) as u8)); LANE_CAP]
                    );
                    assert_eq!(d.control().len(), LANE_CAP);
                    full_slots += 1;
                } else {
                    assert!(d.is_empty());
                }
            }
        }
        assert!(full_slots > 0);
    }

    #[test]
    fn wheel_snapshot_round_trip_is_exact() {
        for link_latency in 1..=4 {
            let mut wheel = LinkWheel::new(2, link_latency);
            // Lap the wheel first so the save has stale slots to ignore.
            let mut now = 0;
            for i in 0..17u64 {
                let t = wheel.tick(now);
                if i % 3 != 1 {
                    wheel.push_flit(&t, (i % 2) as usize, flit(i));
                }
                wheel.push_credit(&t, 0, Credit::Vc(VcId(i as u8)));
                if i % 4 == 0 {
                    wheel.push_credit(&t, 1, Credit::Vnet(VirtualNetwork(2)));
                    wheel.push_control(&t, 1, ControlSignal::StopCreditTracking);
                }
                now += 1;
            }
            let mut w = SnapshotWriter::new();
            wheel.save(&mut w, now);
            let bytes = w.into_bytes();
            let mut restored = LinkWheel::new(2, link_latency);
            let mut r = SnapshotReader::new(&bytes);
            restored.load(&mut r, now).unwrap();
            r.finish("wheel").unwrap();
            let mut w = SnapshotWriter::new();
            restored.save(&mut w, now);
            assert_eq!(
                w.into_bytes(),
                bytes,
                "save -> load -> save must be byte-stable"
            );
            assert_eq!(restored.flits_in_flight(now), wheel.flits_in_flight(now));
            assert_eq!(
                restored.credits_in_flight(now),
                wheel.credits_in_flight(now)
            );
            // Draining both must produce identical arrivals.
            for now in now..now + 10 {
                let t = wheel.tick(now);
                for c in 0..2 {
                    assert_eq!(wheel.flit_at(&t, c), restored.flit_at(&t, c));
                    let (a, b) = (wheel.rev_at(&t, c), restored.rev_at(&t, c));
                    assert_eq!(a.map(RevSlot::credits), b.map(RevSlot::credits));
                    assert_eq!(a.map(RevSlot::control), b.map(RevSlot::control));
                    assert_eq!(wheel.quiet_after(c, now), restored.quiet_after(c, now));
                }
            }
            assert_eq!(restored.flits_in_flight(now + 10), 0);
        }
    }

    #[test]
    fn reset_forgets_old_stamps() {
        let mut wheel = LinkWheel::new(1, 1);
        let t = wheel.tick(0);
        wheel.push_flit(&t, 0, flit(7));
        wheel.push_credit(&t, 0, Credit::Vc(VcId(0)));
        wheel.reset();
        // The restarted clock passes the old arrival cycles and sees nothing.
        for now in 0..8 {
            let t = wheel.tick(now);
            assert!(wheel.flit_at(&t, 0).is_none() && wheel.rev_at(&t, 0).is_none());
            assert!(wheel.quiet_after(0, now));
        }
        assert_eq!(
            (wheel.flits_in_flight(0), wheel.credits_in_flight(0)),
            (0, 0)
        );
    }
}
