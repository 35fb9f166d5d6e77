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
//! All links of a network share one `LinkWheel`: a forward slab of 40-byte
//! `{due, flit}` slots and two reverse slabs, 24-byte `{due, credits}` and
//! 64-byte `{due, control}` slots, `W = delay + 1` stripes of one slot per
//! lane each. With `W = delay + 1` the stripe read at `t` and the stripe
//! written at `t` are never the same, and each lane has exactly one writer
//! (the upstream router pushes flits, the downstream router pushes
//! credits/control). Beside the slabs the wheel keeps arrival bitmasks per
//! stripe, indexed by link — one for flits, one for the reverse lane and
//! one for control alone, so a credit never reads the control slab: a push
//! sets its link's bits in the write stripe, phase 1 visits the links whose
//! flit or reverse bit is set in the read stripe and then zeroes that
//! stripe's masks, which the next cycle writes. So a link with nothing
//! arriving is never touched, and a link is busy — has anything on the
//! wires — iff its bit is set in some stripe. Schedules reach the wheel
//! only through a `Lanes` view — read stripes shared, a node range's write
//! slots exclusive — which the sharded engine cuts into one view per shard
//! (DESIGN.md §12).
//! [`Channel`] is the same kernel as a standalone one-link wheel with its
//! own clock.
//!
//! The forward lane has delay `L + 2`: one cycle of switch traversal at the
//! sender, `L` cycles of wire, with the downstream buffer write overlapped
//! with the last wire cycle (Table I of the paper). The reverse lane has
//! delay `L` — credits and the one-bit credit-tracking control line are pure
//! wires.

use crate::flit::{Cycle, Flit, VcId, VirtualNetwork};
use crate::geom::{Direction, NodeId};
use crate::kernel::Bits;
use crate::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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

/// One forward-wheel slot: a 32-byte flit stamped with its arrival cycle,
/// 40 bytes, deliberately not padded to a 64-byte line: the slab is 5/8
/// the size, at the cost of some slots straddling two lines.
#[derive(Debug, Clone, Copy)]
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

/// One reverse-wheel slot: the credits (`T = Credit`) or the control
/// signals (`T = ControlSignal`) of one reverse lane, stamped with their
/// shared arrival cycle. The reverse lane is one wire bundle kept in two
/// slabs, stamped apart: a credit slot is 24 bytes, and the 52-byte
/// control lane rides in a slab of its own behind an arrival mask of its
/// own, so the credit every buffered hop returns never drags it through
/// the cache.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RevSlot<T: Copy> {
    due: Cycle,
    items: LaneSlot<T>,
}

impl RevSlot<Credit> {
    const EMPTY: Self = RevSlot {
        due: NEVER,
        items: LaneSlot::<Credit>::EMPTY,
    };
}

impl RevSlot<ControlSignal> {
    const EMPTY: Self = RevSlot {
        due: NEVER,
        items: LaneSlot::<ControlSignal>::EMPTY,
    };
}

impl<T: Copy> RevSlot<T> {
    /// Adds an item arriving at cycle `due`: a stale slot is re-stamped
    /// and its old contents discarded, one already stamped `due` keeps
    /// accumulating.
    #[inline]
    fn push(&mut self, due: Cycle, item: T) {
        if self.due != due {
            self.due = due;
            self.items.clear();
        }
        self.items.push(item);
    }

    /// The items arriving at cycle `now`, if this slot holds any.
    #[inline]
    fn arrival(&self, now: Cycle) -> Option<&LaneSlot<T>> {
        (self.due == now).then_some(&self.items)
    }
}

/// Where cycle `now` reads and writes the wheel: the stripes `now % W`
/// (arrivals) and `(now + delay) % W` (pushes) of each slab (the two
/// reverse slabs share theirs), and the `due` stamps pushes carry. A pure
/// function of the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tick {
    now: Cycle,
    fwd_due: Cycle,
    rev_due: Cycle,
    fwd_rd: usize,
    fwd_wr: usize,
    rev_rd: usize,
    rev_wr: usize,
}

/// Every link of a network as three slot slabs and their arrival masks
/// (see the module docs).
///
/// Slabs are stripe-major — slot `s` of lane `l` lives at `s * links + l` —
/// so a cycle's arrivals are one contiguous stripe. A forward lane is
/// numbered like its link (by upstream node: `Network::new` creates links
/// node by node), a reverse lane by its link's downstream node, so the
/// lanes one router drives — the forward lanes of its outgoing links, the
/// reverse lanes of its incoming ones — and so those of any node range are
/// one contiguous run of each stripe. [`Lanes`] is the only way in.
#[derive(Debug)]
pub(crate) struct LinkWheel {
    links: usize,
    fwd_delay: u64,
    rev_delay: u64,
    fwd: Vec<FwdSlot>,
    credit: Vec<RevSlot<Credit>>,
    control: Vec<RevSlot<ControlSignal>>,
    /// Which lanes are whose: link `c`'s reverse lane is `rev_lane[c]`, and
    /// node `j` drives forward lanes `start[j][0]..start[j + 1][0]` and
    /// reverse lanes `start[j][1]..start[j + 1][1]`.
    rev_lane: Vec<u32>,
    start: Vec<[u32; 2]>,
    /// The arrival masks, `words` per stripe, stripe-major: the forward
    /// slab's `fwd_delay + 1` stripes, then `rev_delay + 1` of the reverse
    /// lane (credits or control), then `rev_delay + 1` of its control
    /// slab alone. Bit `c` of a stripe is set iff link `c`'s slots in that
    /// stripe hold an arrival not yet delivered. Atomic so the shards of a
    /// sharded cycle can set bits of shared words; through `&mut` they are
    /// plain words.
    masks: Box<[AtomicU64]>,
    words: usize,
}

impl Clone for LinkWheel {
    fn clone(&self) -> LinkWheel {
        LinkWheel {
            fwd: self.fwd.clone(),
            credit: self.credit.clone(),
            control: self.control.clone(),
            rev_lane: self.rev_lane.clone(),
            start: self.start.clone(),
            masks: (self.masks.iter())
                .map(|m| AtomicU64::new(m.load(Relaxed)))
                .collect(),
            ..*self
        }
    }
}

impl LinkWheel {
    /// A wheel of empty links of wire latency `link_latency` between
    /// `nodes` nodes: link `c` runs from node `ends[c].0` to node
    /// `ends[c].1`, and links are numbered by upstream node.
    pub(crate) fn new(nodes: usize, ends: &[(usize, usize)], link_latency: u64) -> LinkWheel {
        assert!(link_latency >= 1, "link latency must be >= 1");
        assert!(
            ends.is_sorted_by_key(|e| e.0),
            "links are numbered by upstream node"
        );
        let mut start = vec![[0u32; 2]; nodes + 1];
        for &(from, to) in ends {
            start[from + 1][0] += 1;
            start[to + 1][1] += 1;
        }
        for j in 0..nodes {
            start[j + 1] = [start[j + 1][0] + start[j][0], start[j + 1][1] + start[j][1]];
        }
        let mut next: Vec<u32> = start.iter().map(|s| s[1]).collect();
        let rev_lane = (ends.iter())
            .map(|&(_, to)| {
                next[to] += 1;
                next[to] - 1
            })
            .collect();
        let links = ends.len();
        let fwd_delay = link_latency + Channel::ROUTER_OVERHEAD;
        let rev_delay = link_latency;
        let rev_slots = links * (rev_delay as usize + 1);
        let (words, stripes) = (links.div_ceil(64), (fwd_delay + 2 * rev_delay) as usize + 3);
        LinkWheel {
            links,
            fwd_delay,
            rev_delay,
            fwd: vec![FwdSlot::EMPTY; links * (fwd_delay as usize + 1)],
            credit: vec![RevSlot::<Credit>::EMPTY; rev_slots],
            control: vec![RevSlot::<ControlSignal>::EMPTY; rev_slots],
            rev_lane,
            start,
            masks: (0..words * stripes).map(|_| AtomicU64::new(0)).collect(),
            words,
        }
    }

    /// Stripes of the forward slab; each reverse slab has
    /// `rev_delay + 1`.
    fn fwd_stripes(&self) -> usize {
        self.fwd_delay as usize + 1
    }

    /// The stripes and stamps of cycle `now`.
    fn tick(&self, now: Cycle) -> Tick {
        let stripe = |t: Cycle, delay: u64| (t % (delay + 1)) as usize;
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
        let up = |rd: usize, delay: u64| if rd as u64 == delay { 0 } else { rd + 1 };
        Tick {
            now: t.now + 1,
            fwd_due: t.fwd_due + 1,
            rev_due: t.rev_due + 1,
            fwd_rd: up(t.fwd_rd, self.fwd_delay),
            fwd_wr: t.fwd_rd,
            rev_rd: up(t.rev_rd, self.rev_delay),
            rev_wr: t.rev_rd,
        }
    }

    /// Every lane as cycle `now` reaches it.
    pub(crate) fn lanes(&mut self, now: Cycle) -> Lanes<'_, &mut [AtomicU64]> {
        let t = self.tick(now);
        self.lanes_at(&t)
    }

    fn lanes_at(&mut self, t: &Tick) -> Lanes<'_, &mut [AtomicU64]> {
        let (links, words, fwd_stripes) = (self.links, self.words, self.fwd_stripes());
        let (fwd_in, fwd) = stripes(&mut self.fwd, links, t.fwd_rd, t.fwd_wr);
        let (credit_in, credit) = stripes(&mut self.credit, links, t.rev_rd, t.rev_wr);
        let (control_in, control) = stripes(&mut self.control, links, t.rev_rd, t.rev_wr);
        let (fwd_masks, rev_masks) = self.masks.split_at_mut(fwd_stripes * words);
        let (credit_masks, control_masks) = rev_masks.split_at_mut(rev_masks.len() / 2);
        let (fwd_arrived, fwd_sent) = stripes(fwd_masks, words, t.fwd_rd, t.fwd_wr);
        let (credit_arrived, credit_sent) = stripes(credit_masks, words, t.rev_rd, t.rev_wr);
        let (control_arrived, control_sent) = stripes(control_masks, words, t.rev_rd, t.rev_wr);
        Lanes {
            rev_lane: &self.rev_lane,
            start: &self.start,
            t: *t,
            fwd_in,
            credit_in,
            control_in,
            arrived: [fwd_arrived, credit_arrived, control_arrived],
            sent: [fwd_sent, credit_sent, control_sent],
            fwd: Run { lo: 0, slots: fwd },
            credit: Run {
                lo: 0,
                slots: credit,
            },
            control: Run {
                lo: 0,
                slots: control,
            },
        }
    }

    /// Word `wi` of the busy links: those with a bit set in any stripe of
    /// either mask. Between cycles `now - 1` and `now`, the links with
    /// anything due at or after `now`.
    pub(crate) fn busy_word(&self, wi: usize) -> u64 {
        let column = self.masks[wi..].iter().step_by(self.words);
        column.fold(0, |busy, m| busy | m.load(Relaxed))
    }

    /// Whether link `c` is busy (see [`LinkWheel::busy_word`]).
    pub(crate) fn busy(&self, c: usize) -> bool {
        self.busy_word(c >> 6) & (1u64 << (c & 63)) != 0
    }

    /// The number of busy links.
    pub(crate) fn busy_links(&self) -> usize {
        (0..self.words)
            .map(|wi| self.busy_word(wi).count_ones() as usize)
            .sum()
    }

    /// Flits not yet delivered at cycle `now`, recounted from the slab.
    pub(crate) fn flits_in_flight(&self, now: Cycle) -> usize {
        self.fwd.iter().filter(|s| live(s.due, now)).count()
    }

    /// Credits not yet delivered at cycle `now`, recounted from the slab
    /// (feeds the network's credit-conservation audit).
    pub(crate) fn credits_in_flight(&self, now: Cycle) -> usize {
        self.credit
            .iter()
            .filter(|s| live(s.due, now))
            .map(|s| s.items.as_slice().len())
            .sum()
    }

    /// Heap bytes of the slabs and tables: a function of the link count,
    /// node count and latency only.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.fwd.capacity() * size_of::<FwdSlot>()
            + self.credit.capacity() * size_of::<RevSlot<Credit>>()
            + self.control.capacity() * size_of::<RevSlot<ControlSignal>>()
            + self.rev_lane.capacity() * size_of::<u32>()
            + self.start.capacity() * size_of::<[u32; 2]>()
            + self.masks.len() * size_of::<AtomicU64>()
    }

    /// Empties every link in place. Stamps must go: a reused wheel's clock
    /// restarts, and an old stamp could match a new cycle.
    pub(crate) fn reset(&mut self) {
        for s in &mut self.fwd {
            s.due = NEVER;
        }
        for s in &mut self.credit {
            s.due = NEVER;
        }
        for s in &mut self.control {
            s.due = NEVER;
        }
        self.masks.iter_mut().for_each(|m| *m.get_mut() = 0);
    }

    /// The ticks of the cycles anything on the wires before cycle `now`
    /// can arrive in: `now..now + fwd_delay` (the reverse lane's
    /// `rev_delay < fwd_delay` cycles are a prefix).
    fn arrival_ticks(&self, now: Cycle) -> Vec<Tick> {
        (now..now + self.fwd_delay).map(|t| self.tick(t)).collect()
    }

    /// Serializes what is on the wires between cycles `now - 1` and `now`,
    /// link by link in arrival order relative to `now`: `fwd_delay`
    /// optional flits, then `rev_delay` credit/control slot pairs (one
    /// wire bundle, whichever slabs hold it). Slot positions, lane numbers,
    /// stale contents and the masks are not state.
    pub(crate) fn save(&self, w: &mut SnapshotWriter, now: Cycle) {
        let ticks = self.arrival_ticks(now);
        for c in 0..self.links {
            for t in &ticks {
                self.fwd[t.fwd_rd * self.links + c].arrival(t.now).put(w);
            }
            let lane = self.rev_lane[c] as usize;
            for t in &ticks[..self.rev_delay as usize] {
                let at = t.rev_rd * self.links + lane;
                let credits = self.credit[at].arrival(t.now);
                let control = self.control[at].arrival(t.now);
                credits.unwrap_or(&LaneSlot::<Credit>::EMPTY).put(w);
                control.unwrap_or(&LaneSlot::<ControlSignal>::EMPTY).put(w);
            }
        }
    }

    /// Restores, in place, a wheel written by [`LinkWheel::save`] at the
    /// same `now` for the same links and latency, masks rebuilt.
    pub(crate) fn load(
        &mut self,
        r: &mut SnapshotReader<'_>,
        now: Cycle,
    ) -> Result<(), SnapshotError> {
        self.reset();
        let ticks = self.arrival_ticks(now);
        let (links, words) = (self.links, self.words);
        let rev_masks = self.fwd_stripes() * words;
        let control_masks = rev_masks + (self.rev_delay as usize + 1) * words;
        let mut mark = |stripe_start: usize, c: usize| {
            *self.masks[stripe_start + (c >> 6)].get_mut() |= 1u64 << (c & 63);
        };
        for c in 0..links {
            let lane = self.rev_lane[c] as usize;
            for t in &ticks {
                let slot = &mut self.fwd[t.fwd_rd * links + c];
                slot.flit.load(r)?;
                if slot.flit.is_some() {
                    slot.due = t.now;
                    mark(t.fwd_rd * words, c);
                }
            }
            for t in &ticks[..self.rev_delay as usize] {
                let at = t.rev_rd * links + lane;
                let credits = &mut self.credit[at];
                credits.items.load(r)?;
                if !credits.items.is_empty() {
                    credits.due = t.now;
                    mark(rev_masks + t.rev_rd * words, c);
                }
                let control = &mut self.control[at];
                control.items.load(r)?;
                if !control.items.is_empty() {
                    control.due = t.now;
                    mark(rev_masks + t.rev_rd * words, c);
                    mark(control_masks + t.rev_rd * words, c);
                }
            }
        }
        Ok(())
    }
}

/// One cycle of the link wheel as a schedule reaches it: every lane's
/// arrival slots and the arrival masks, and the write slots of the lanes a
/// node range drives with the masks they set. `B` is how mask words are
/// reached ([`Bits`]): the serial schedule's view, over every node, holds
/// them through `&mut` and zeroes the read masks after phase 1
/// ([`Lanes::clear_arrivals`]); the sharded engine [`shares`](Lanes::share)
/// it and cuts it at its shard boundaries with [`Lanes::split_front`], so
/// two shards never hold the same write slot and set shared mask words
/// atomically. The read and write stripes are different slots of every
/// lane (`W = delay + 1`), so all views share the read stripes.
pub(crate) struct Lanes<'a, B> {
    rev_lane: &'a [u32],
    start: &'a [[u32; 2]],
    t: Tick,
    fwd_in: &'a [FwdSlot],
    credit_in: &'a [RevSlot<Credit>],
    control_in: &'a [RevSlot<ControlSignal>],
    /// The read stripes' masks: flits, the reverse lane (credits or
    /// control) and control alone.
    arrived: [B; 3],
    /// The write stripes' masks, in the same order.
    sent: [B; 3],
    fwd: Run<'a, FwdSlot>,
    credit: Run<'a, RevSlot<Credit>>,
    control: Run<'a, RevSlot<ControlSignal>>,
}

/// [`Lanes`]' mask indices. A control push sets both `REV` and `CONTROL`,
/// so phase 1 scans flit and reverse bits only and a credit arrival never
/// reads the control slab.
const FWD: usize = 0;
const REV: usize = 1;
const CONTROL: usize = 2;

/// The write slots of lanes `lo..lo + slots.len()`.
struct Run<'a, S> {
    lo: usize,
    slots: &'a mut [S],
}

/// Stripes `rd` and `wr != rd` of a stripe-major slab of `len`-long
/// stripes.
fn stripes<T>(slab: &mut [T], len: usize, rd: usize, wr: usize) -> (&mut [T], &mut [T]) {
    let (head, tail) = slab.split_at_mut(rd.max(wr) * len);
    let (low, high) = (&mut head[rd.min(wr) * len..][..len], &mut tail[..len]);
    if rd < wr {
        (low, high)
    } else {
        (high, low)
    }
}

impl<'a, S> Run<'a, S> {
    /// Lane `lane`'s write slot.
    #[inline]
    fn slot(&mut self, lane: usize) -> &mut S {
        &mut self.slots[lane - self.lo]
    }

    /// Splits off the lanes below `lane`, keeping the rest.
    fn split_front(&mut self, lane: usize) -> Run<'a, S> {
        let k = lane - self.lo;
        Run {
            lo: std::mem::replace(&mut self.lo, lane),
            slots: self.slots.split_off_mut(..k).expect("lane in the run"),
        }
    }
}

impl<'a, B: Bits> Lanes<'a, B> {
    /// The flit arriving on link `c` this cycle, if any, by its stamp.
    #[inline]
    pub(crate) fn flit_at(&self, c: usize) -> Option<Flit> {
        self.fwd_in[c].arrival(self.t.now)
    }

    /// The credits arriving on link `c` this cycle, if any, by their stamp.
    #[inline]
    pub(crate) fn credits_at(&self, c: usize) -> Option<&'a [Credit]> {
        let credit_in: &'a [RevSlot<Credit>] = self.credit_in;
        let slot = credit_in[self.rev_lane[c] as usize].arrival(self.t.now);
        slot.map(LaneSlot::as_slice)
    }

    /// The control signals arriving on link `c` this cycle, if any, by
    /// their stamp.
    #[inline]
    pub(crate) fn control_at(&self, c: usize) -> Option<&'a [ControlSignal]> {
        let control_in: &'a [RevSlot<ControlSignal>] = self.control_in;
        let slot = control_in[self.rev_lane[c] as usize].arrival(self.t.now);
        slot.map(LaneSlot::as_slice)
    }

    /// Whether link `c`'s bit is set in this cycle's arrival mask of slab
    /// `slab`.
    #[inline]
    fn arrived(&self, slab: usize, c: usize) -> bool {
        self.arrived[slab].word(c >> 6) & (1u64 << (c & 63)) != 0
    }

    /// Whether a flit arrives on link `c` this cycle, by the mask.
    #[inline]
    pub(crate) fn has_fwd(&self, c: usize) -> bool {
        self.arrived(FWD, c)
    }

    /// Whether control signals arrive on link `c` this cycle, by the mask.
    #[inline]
    pub(crate) fn has_control(&self, c: usize) -> bool {
        self.arrived(CONTROL, c)
    }

    /// Whether credits or control arrive on link `c` this cycle, by the
    /// mask.
    #[inline]
    pub(crate) fn has_rev(&self, c: usize) -> bool {
        self.arrived(REV, c)
    }

    /// Whether link `c`'s arrival bits say what its slots' stamps say.
    pub(crate) fn masks_match_stamps(&self, c: usize) -> bool {
        let bits = (self.has_fwd(c), self.has_rev(c), self.has_control(c));
        let stamps = (self.flit_at(c), self.credits_at(c), self.control_at(c));
        let rev = stamps.1.is_some() || stamps.2.is_some();
        bits == (stamps.0.is_some(), rev, stamps.2.is_some())
    }

    /// Word `wi` of the links with anything arriving this cycle.
    #[inline]
    pub(crate) fn arrivals(&self, wi: usize) -> u64 {
        self.arrived[FWD].word(wi) | self.arrived[REV].word(wi)
    }

    /// Sends a flit down link `c`, an outgoing link of the view's nodes.
    #[inline]
    pub(crate) fn push_flit(&mut self, c: usize, flit: Flit) {
        self.sent[FWD].set(c);
        self.fwd.slot(c).push(self.t.fwd_due, flit);
    }

    /// Sends a credit up link `c`, an incoming link of the view's nodes.
    #[inline]
    pub(crate) fn push_credit(&mut self, c: usize, credit: Credit) {
        self.sent[REV].set(c);
        let lane = self.rev_lane[c] as usize;
        self.credit.slot(lane).push(self.t.rev_due, credit);
    }

    /// Sends a control signal up link `c`, an incoming link of the view's
    /// nodes.
    #[inline]
    pub(crate) fn push_control(&mut self, c: usize, signal: ControlSignal) {
        self.sent[REV].set(c);
        self.sent[CONTROL].set(c);
        let lane = self.rev_lane[c] as usize;
        self.control.slot(lane).push(self.t.rev_due, signal);
    }
}

impl<'a> Lanes<'a, &'a mut [AtomicU64]> {
    /// Zeroes this cycle's arrival masks once its arrivals are delivered:
    /// they are the write stripes of the next cycle.
    pub(crate) fn clear_arrivals(&mut self) {
        for m in self.arrived.iter_mut().flat_map(|a| a.iter_mut()) {
            *m.get_mut() = 0;
        }
    }

    /// The same view with its mask words shared, to be cut into shards.
    pub(crate) fn share(self) -> Lanes<'a, &'a [AtomicU64]> {
        Lanes {
            rev_lane: self.rev_lane,
            start: self.start,
            t: self.t,
            fwd_in: self.fwd_in,
            credit_in: self.credit_in,
            control_in: self.control_in,
            arrived: self.arrived.map(|m| &*m),
            sent: self.sent.map(|m| &*m),
            fwd: self.fwd,
            credit: self.credit,
            control: self.control,
        }
    }
}

impl<'a> Lanes<'a, &'a [AtomicU64]> {
    /// Splits off the lanes driven by the nodes below `mid`, keeping the
    /// rest.
    pub(crate) fn split_front(&mut self, mid: usize) -> Lanes<'a, &'a [AtomicU64]> {
        let [fwd, rev] = self.start[mid];
        Lanes {
            fwd: self.fwd.split_front(fwd as usize),
            credit: self.credit.split_front(rev as usize),
            control: self.control.split_front(rev as usize),
            ..*self
        }
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
        let wheel = LinkWheel::new(2, &[(0, 1)], link_latency);
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
        self.wheel.lanes_at(&self.tick).push_flit(0, flit);
    }

    /// Sends a credit upstream.
    pub fn push_credit(&mut self, credit: Credit) {
        self.wheel.lanes_at(&self.tick).push_credit(0, credit);
    }

    /// Sends a control signal upstream.
    pub fn push_control(&mut self, signal: ControlSignal) {
        self.wheel.lanes_at(&self.tick).push_control(0, signal);
    }

    /// Advances the clock one cycle and returns what arrives.
    pub fn advance(&mut self) -> Delivery {
        self.tick = self.wheel.next_tick(&self.tick);
        // One link: its slot of each slab is the stripe's only one.
        let (w, t) = (&self.wheel, &self.tick);
        let delivery = Delivery {
            flit: w.fwd[t.fwd_rd].arrival(t.now),
            credits: *(w.credit[t.rev_rd].arrival(t.now)).unwrap_or(&LaneSlot::<Credit>::EMPTY),
            control: *(w.control[t.rev_rd].arrival(t.now))
                .unwrap_or(&LaneSlot::<ControlSignal>::EMPTY),
        };
        self.wheel.lanes_at(&self.tick).clear_arrivals();
        delivery
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
        !ch.wheel.busy(0)
    }

    /// Every arrival-mask word of `wheel`, stripe-major.
    fn mask_words(wheel: &LinkWheel) -> Vec<u64> {
        wheel.masks.iter().map(|m| m.load(Relaxed)).collect()
    }

    /// A wheel of `links` links between `links` nodes whose downstream
    /// order reverses their upstream order, so every link's reverse lane
    /// number differs from its own (for odd `links`, all but the middle).
    fn reversed_wheel(links: usize, link_latency: u64) -> LinkWheel {
        let ends: Vec<_> = (0..links).map(|c| (c, links - 1 - c)).collect();
        LinkWheel::new(links, &ends, link_latency)
    }

    #[test]
    fn forward_slots_are_a_flit_and_a_stamp() {
        assert_eq!(std::mem::size_of::<FwdSlot>(), 40);
        assert_eq!(std::mem::align_of::<FwdSlot>(), 8);
    }

    /// The credit every buffered hop returns fills a 24-byte slot, three
    /// to a line pair, and never shares it with the control lane.
    #[test]
    fn credit_slots_leave_the_control_lane_out() {
        use std::mem::{offset_of, size_of};
        assert!(size_of::<RevSlot<Credit>>() <= 24);
        assert_eq!(offset_of!(RevSlot<Credit>, items), 8);
        assert_eq!(size_of::<RevSlot<ControlSignal>>(), 64);
    }

    #[test]
    fn next_tick_is_tick_of_the_next_cycle() {
        for link_latency in 1..=4 {
            for links in [1, 3] {
                let wheel = reversed_wheel(links, link_latency);
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

    /// Link `c`'s flit, reverse and control arrival bits.
    fn bits<B: Bits>(lanes: &Lanes<'_, B>, c: usize) -> (bool, bool, bool) {
        (lanes.has_fwd(c), lanes.has_rev(c), lanes.has_control(c))
    }

    /// One push onto a link, whichever lane it takes.
    #[derive(Clone, Copy)]
    enum Push {
        Flit(Flit),
        Credit(Credit),
        Control(ControlSignal),
    }

    fn push<B: Bits>(lanes: &mut Lanes<'_, B>, c: usize, item: Push) {
        match item {
            Push::Flit(f) => lanes.push_flit(c, f),
            Push::Credit(credit) => lanes.push_credit(c, credit),
            Push::Control(signal) => lanes.push_control(c, signal),
        }
    }

    /// Drives a three-link wheel and three reference links through the
    /// same seeded schedule, the way the engine does: each cycle, every
    /// link's arrivals are delivered (compared item by item, and with the
    /// arrival masks), the read masks are zeroed, then the cycle pushes —
    /// through the whole view, or through views cut at random nodes, each
    /// push through the view of the node that drives its lane, as shards
    /// do. Between cycles, a link is busy iff its reference holds traffic,
    /// and a save → load rebuilds the same masks. Links fall idle for gaps
    /// longer than the wheel, so pushes land on stale slots.
    fn differential(link_latency: u64, seed: u64) {
        const LINKS: usize = 3;
        let mut rng = XorShift(seed | 1);
        let mut wheel = reversed_wheel(LINKS, link_latency);
        let (fd, rd) = (wheel.fwd_delay, wheel.rev_delay);
        let mut refs: [RefLink; LINKS] = Default::default();
        let mut idle_until = [0 as Cycle; LINKS];
        let mut next_flit = 0u64;
        let mut delivered = 0usize;
        let mut pushes = Vec::new();
        for now in 0..(40 * (fd + 1)) {
            let at = format!("L={link_latency} seed={seed} cycle {now}");
            let mut lanes = wheel.lanes(now);
            for (c, r) in refs.iter_mut().enumerate() {
                let flit = lanes.flit_at(c);
                assert_eq!(lanes.has_fwd(c), flit.is_some(), "{at} link {c}: flit bit");
                assert_eq!(
                    flit.into_iter().collect::<Vec<_>>(),
                    take_due(&mut r.flits, now),
                    "{at} link {c}: flit"
                );
                assert!(lanes.masks_match_stamps(c), "{at} link {c}: reverse bits");
                let got_credits = lanes.credits_at(c).unwrap_or_default();
                let got_control = lanes.control_at(c).unwrap_or_default();
                let got_rev = !(got_credits.is_empty() && got_control.is_empty());
                assert_eq!(lanes.has_rev(c), got_rev);
                assert_eq!(lanes.has_control(c), !got_control.is_empty());
                delivered += got_credits.len() + got_control.len();
                assert_eq!(got_credits, take_due(&mut r.credits, now), "{at}: credits");
                assert_eq!(got_control, take_due(&mut r.control, now), "{at}: control");
                let bit = 1u64 << c;
                assert_eq!(
                    lanes.arrivals(0) & bit != 0,
                    flit.is_some() || lanes.has_rev(c)
                );
            }
            lanes.clear_arrivals();

            pushes.clear();
            for c in 0..LINKS {
                if now < idle_until[c] {
                    continue;
                }
                if refs[c].is_empty() && rng.below(6) == 0 {
                    // Longer than either lane's wheel.
                    idle_until[c] = now + fd + 2 + rng.below(2 * fd);
                    continue;
                }
                if rng.below(2) == 0 {
                    let f = flit(next_flit);
                    next_flit += 1;
                    pushes.push((c, Push::Flit(f)));
                    refs[c].flits.push_back((now + fd, f));
                }
                // Up to LANE_CAP credits and LANE_CAP control signals in
                // one cycle: both halves of a slot filled to the brim.
                for _ in 0..rng.below(LANE_CAP as u64 + 3).saturating_sub(2) {
                    let credit = if rng.below(2) == 0 {
                        Credit::Vc(VcId(rng.below(8) as u8))
                    } else {
                        Credit::Vnet(VirtualNetwork(rng.below(3) as u8))
                    };
                    pushes.push((c, Push::Credit(credit)));
                    refs[c].credits.push_back((now + rd, credit));
                }
                for _ in 0..rng.below(LANE_CAP as u64 + 4).saturating_sub(3) {
                    let signal = arbitrary_control(&mut rng);
                    pushes.push((c, Push::Control(signal)));
                    refs[c].control.push_back((now + rd, signal));
                }
            }
            if rng.below(2) == 0 {
                for &(c, item) in &pushes {
                    push(&mut lanes, c, item);
                }
            } else {
                // Nodes 1 and 2 start a view each or not; link `c` runs
                // from node `c` to node `LINKS - 1 - c`.
                let cuts: Vec<usize> = (1..LINKS).filter(|_| rng.below(2) == 0).collect();
                let mut rest = lanes.share();
                let mut views: Vec<_> = cuts.iter().map(|&mid| rest.split_front(mid)).collect();
                views.push(rest);
                let owner = |node: usize| cuts.partition_point(|&mid| mid <= node);
                for &(c, item) in &pushes {
                    let driver = if let Push::Flit(_) = item {
                        c
                    } else {
                        LINKS - 1 - c
                    };
                    push(&mut views[owner(driver)], c, item);
                }
            }

            // Between cycles (what the audits, the gate and snapshots see).
            for (c, r) in refs.iter().enumerate() {
                assert_eq!(wheel.busy(c), !r.is_empty(), "{at} link {c}: busy");
            }
            assert_eq!(
                wheel.busy_links(),
                refs.iter().filter(|r| !r.is_empty()).count()
            );
            assert_eq!(
                wheel.flits_in_flight(now + 1),
                refs.iter().map(|r| r.flits.len()).sum::<usize>()
            );
            assert_eq!(
                wheel.credits_in_flight(now + 1),
                refs.iter().map(|r| r.credits.len()).sum::<usize>()
            );
            let mut w = SnapshotWriter::new();
            wheel.save(&mut w, now + 1);
            let bytes = w.into_bytes();
            let mut restored = reversed_wheel(LINKS, link_latency);
            restored
                .load(&mut SnapshotReader::new(&bytes), now + 1)
                .unwrap();
            assert_eq!(mask_words(&restored), mask_words(&wheel), "{at}: masks");
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
            let mut wheel = reversed_wheel(2, link_latency);
            // Lap the wheel first so the save has stale slots to ignore.
            let mut now = 0;
            for i in 0..17u64 {
                let mut lanes = wheel.lanes(now);
                lanes.clear_arrivals();
                if i % 3 != 1 {
                    lanes.push_flit((i % 2) as usize, flit(i));
                }
                lanes.push_credit(0, Credit::Vc(VcId(i as u8)));
                if i % 4 == 0 {
                    lanes.push_credit(1, Credit::Vnet(VirtualNetwork(2)));
                    lanes.push_control(1, ControlSignal::StopCreditTracking);
                }
                now += 1;
            }
            let mut w = SnapshotWriter::new();
            wheel.save(&mut w, now);
            let bytes = w.into_bytes();
            let mut restored = reversed_wheel(2, link_latency);
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
            assert_eq!(mask_words(&restored), mask_words(&wheel));
            // Draining both must produce identical arrivals.
            for now in now..now + 10 {
                let (mut a, mut b) = (wheel.lanes(now), restored.lanes(now));
                for c in 0..2 {
                    assert_eq!(a.flit_at(c), b.flit_at(c));
                    assert_eq!(a.credits_at(c), b.credits_at(c));
                    assert_eq!(a.control_at(c), b.control_at(c));
                    assert_eq!(bits(&a, c), bits(&b, c));
                }
                a.clear_arrivals();
                b.clear_arrivals();
            }
            assert_eq!(restored.flits_in_flight(now + 10), 0);
            assert_eq!((wheel.busy_links(), restored.busy_links()), (0, 0));
        }
    }

    /// Random link sets (links numbered by upstream node, any downstream
    /// node, self-loops and parallel links included) pushed through views
    /// cut at random node boundaries — each push through the view of the
    /// node that drives the lane — leave the wheel exactly as the same
    /// pushes through the whole view do, and every cut view reads the
    /// whole view's arrivals.
    #[test]
    fn split_views_write_what_the_whole_view_writes() {
        for case in 1..=40u64 {
            let mut rng = XorShift(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let nodes = 1 + rng.below(8) as usize;
            let mut ends = Vec::new();
            for from in 0..nodes {
                for _ in 0..rng.below(4) {
                    ends.push((from, rng.below(nodes as u64) as usize));
                }
            }
            let latency = 1 + rng.below(4);
            let mut whole = LinkWheel::new(nodes, &ends, latency);
            let mut cut = whole.clone();
            for now in 0..24 {
                let cuts: Vec<usize> = (1..nodes).filter(|_| rng.below(2) == 0).collect();
                let pushes: Vec<(usize, Push)> = (0..ends.len())
                    .flat_map(|c| {
                        [
                            Push::Flit(flit(now * 64 + c as u64)),
                            Push::Credit(Credit::Vc(VcId(c as u8))),
                            Push::Control(ControlSignal::StopCreditTracking),
                        ]
                        .map(|item| (c, item))
                    })
                    .filter(|_| rng.below(3) == 0)
                    .collect();
                let mut all = whole.lanes(now);
                let mut rest = cut.lanes(now).share();
                let mut views: Vec<_> = cuts.iter().map(|&mid| rest.split_front(mid)).collect();
                views.push(rest);
                let owner = |node: usize| cuts.partition_point(|&mid| mid <= node);
                for view in &views {
                    for c in 0..ends.len() {
                        assert_eq!(view.flit_at(c), all.flit_at(c), "case {case} cycle {now}");
                        assert_eq!(view.credits_at(c), all.credits_at(c));
                        assert_eq!(view.control_at(c), all.control_at(c));
                        assert_eq!(bits(view, c), bits(&all, c));
                        assert!(all.masks_match_stamps(c));
                    }
                }
                for &(c, item) in &pushes {
                    push(&mut all, c, item);
                    let driver = match item {
                        Push::Flit(_) => ends[c].0,
                        _ => ends[c].1,
                    };
                    push(&mut views[owner(driver)], c, item);
                }
                drop((views, all));
                // The epilogue's clear, on a fresh whole view.
                whole.lanes(now).clear_arrivals();
                cut.lanes(now).clear_arrivals();
                assert_eq!(
                    mask_words(&whole),
                    mask_words(&cut),
                    "case {case} cycle {now}"
                );
                let (mut a, mut b) = (SnapshotWriter::new(), SnapshotWriter::new());
                whole.save(&mut a, now + 1);
                cut.save(&mut b, now + 1);
                assert_eq!(a.into_bytes(), b.into_bytes(), "case {case} cycle {now}");
            }
        }
    }

    #[test]
    fn reset_forgets_old_stamps() {
        let mut wheel = reversed_wheel(1, 1);
        let mut lanes = wheel.lanes(0);
        lanes.push_flit(0, flit(7));
        lanes.push_credit(0, Credit::Vc(VcId(0)));
        wheel.reset();
        // The restarted clock passes the old arrival cycles and sees nothing.
        assert!(!wheel.busy(0));
        for now in 0..8 {
            let lanes = wheel.lanes(now);
            assert!(lanes.flit_at(0).is_none() && lanes.credits_at(0).is_none());
            assert!(!lanes.has_fwd(0) && !lanes.has_rev(0));
        }
        assert_eq!(
            (wheel.flits_in_flight(0), wheel.credits_in_flight(0)),
            (0, 0)
        );
    }
}
