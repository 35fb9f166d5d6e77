//! Deterministic intra-run parallel cycle engine (DESIGN.md §12).
//!
//! The mesh is partitioned into `T` contiguous **spatial shards** — a node
//! range plus each node's ejection NI and the channels whose upstream end
//! lies in the range. Shard boundaries are *load-proportional*: they are
//! re-planned at deterministic points from the activity bitmasks, which is
//! output-neutral because byte-identity holds for **any** contiguous
//! ascending partition (see below).
//!
//! Each cycle runs as one barrier-released region on a persistent
//! `std::thread` pool, followed by a barrier-free binomial merge tree:
//!
//! * **Exclusive window** (main thread, workers parked): the previous
//!   cycle's epilogue, serial phase 2a queue retirement (NACK/ack queues —
//!   order-sensitive `swap_remove` scans), and publication of the cycle's
//!   `Job` (pointers + cycle number + RNG + current plan).
//! * **Region AB** (phases 1 + 2a-scan + 2b + 3, fused): each shard pulls
//!   what the link wheel has due on the links incident on its own routers
//!   (phase 1), scans its own NIs' retransmit timeouts (the sharded tail
//!   of phase 2a), injects from its own NIs (2b), then steps its own
//!   routers (3). Produced flits go onto the forward lane of the router's
//!   outgoing links; credits/control onto the *reverse* lane of its
//!   incoming links — exactly one shard writes each lane. Fusing 1 with 3
//!   is safe because of the wheel contract ([`crate::channel`]): at cycle
//!   `t` a lane is read at stripe `t % W` and written at stripe
//!   `(t + delay) % W`, and `W = delay + 1` makes those two different
//!   slots — no slot has a reader and a writer in the same cycle, and the
//!   start barrier orders this cycle's reads after last cycle's writes.
//! * **Merge tree**: per-shard deltas fold up a binomial tree — shard `k`
//!   merges shard `k+s` for `s = 1, 2, 4, …` while `k mod 2s == 0`,
//!   spin-waiting on the child's generation-tagged ready flag. Shard 0's
//!   root merge therefore transitively waits on every shard, so the main
//!   thread needs no further barrier before the epilogue: one barrier per
//!   cycle, total. Tree order concatenates shard vectors in ascending
//!   shard order, byte-identical to the old serial shard-order fold.
//! * **Epilogue** (main thread, exclusive again): besides folding the
//!   root delta into the network, it drops the activity bit of every link
//!   with nothing due after this cycle. The serial engine settles that bit
//!   in phase 1, before the cycle's pushes; here phase 1 of one shard runs
//!   alongside phase 3 of another, so a clear there would race a push's
//!   set — after the merge every push has landed and the same predicate
//!   (`LinkWheel::quiet_after`) yields the same bits, with no data moved.
//!
//! ## Why the output is byte-identical at any thread count
//!
//! Every mutation in a cycle either (a) targets state owned by exactly one
//! shard (router, NI, link lane, mode-cache slot,
//! `accounted_upto` slot, activity bit), in which case the per-owner
//! mutation order matches the serial walk (ascending index), or (b) is a
//! commutative fold (counter sums, latency-distribution merges, idempotent
//! bitmask inserts via atomic OR) replayed in ascending shard order by the
//! merge tree. Router-step randomness is already thread-free: the per-step
//! RNG is forked as a pure function of `(seed, cycle, router)`. Hence the
//! post-cycle state — including the bytes of a snapshot — is a function of
//! the pre-cycle state only, never of `T`, the boundaries, or the
//! interleaving. Re-planning shard boundaries mid-run is likewise
//! unobservable: per-owner walks stay ascending and the tree fold equals
//! ascending component order under any contiguous partition.
//!
//! Terminal errors keep their *identity* (the same `SimError` the serial
//! engine would have returned first) by taking the minimum over
//! `(phase, component index)` across shards; the post-error partial state
//! may differ from serial, which is fine because errors are terminal — the
//! network must not be stepped further either way.
//!
//! ## The adaptive gate
//!
//! Whether a cycle runs parallel at all is a pure wall-clock decision
//! (both engines are byte-identical). A static activity threshold filters
//! out near-idle cycles; on top of it, [`AdaptiveGate`] runs a
//! probe/commit controller that periodically times a few cycles of each
//! engine and commits to the faster one with hysteresis, so workloads
//! where the barriers do not pay (low load, oversubscribed hosts) fall
//! back to the serial walk instead of burning 4× the time.
#![allow(unsafe_code)]

use crate::channel::{FwdSlot, RevSlot, Tick};
use crate::error::SimError;
use crate::faults::{FaultEvent, FaultEventKind, FaultPlane};
use crate::flit::{Cycle, Flit};
use crate::geom::{DirMap, Direction, NodeId, PortId};
use crate::network::{ChannelEnds, Network};
use crate::ni::NodeInterface;
use crate::rng::SimRng;
use crate::router::{Router, RouterMode, RouterOutputs};
use crate::stats::NetworkStats;
use crate::topology::Mesh;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Minimum active components (routers + channels + sending NIs) per shard
/// for a cycle to be worth the barrier overhead; below this the engine
/// declines and the cycle runs serially.
pub(crate) const MIN_ACTIVE_PER_SHARD: usize = 16;

/// Default re-plan period: every this many parallel cycles the shard
/// boundaries are recomputed from the activity bitmasks (see
/// [`Network::set_replan_interval`]).
pub(crate) const DEFAULT_REPLAN_INTERVAL: u64 = 64;

/// Spins before a barrier/merge waiter starts yielding its timeslice.
const SPIN_LIMIT: u32 = 128;
/// Yields before a barrier waiter parks on the condvar (merge waits never
/// park — they are bounded by a fraction of one cycle).
const YIELD_LIMIT: u32 = 64;

/// Pads hot per-shard state to its own cache line pair so neighbouring
/// shards' writes (delta accumulation, ready flags, barrier counters)
/// never false-share.
#[repr(align(128))]
struct CachePadded<T>(T);

// ---------------------------------------------------------------------------
// Shard plan
// ---------------------------------------------------------------------------

/// The boundary-independent part of a plan, built once per engine and
/// shared (via `Arc`) across re-plans — re-planning only recomputes the
/// small boundary vectors, never the O(channels) tables.
struct PlanStatic {
    /// Flattened per-router phase-1 pull lists: `(channel, is_fwd)` pairs,
    /// ascending channel index. `is_fwd` = the router is the channel's
    /// downstream end (receives the flit); otherwise it is the upstream
    /// end (receives credits/control).
    events: Vec<(u32, bool)>,
    ev_off: Vec<u32>,
    /// The network's compiled fault plan. The fast path admits only
    /// deterministic plans, whose entire effect is `link_dead`.
    faults: Arc<FaultPlane>,
    /// Prefix sums of per-node outgoing-channel counts: node `j` owns
    /// channels `[node_chan_start[j], node_chan_start[j+1])`.
    node_chan_start: Vec<usize>,
    mesh: Mesh,
    link_latency: u64,
    max_flit_age: u64,
}

impl PlanStatic {
    fn build(net: &Network) -> PlanStatic {
        let n = net.routers.len();
        let chan_count = net.ends.len();

        // Channels are created grouped by their upstream node in ascending
        // node order (Network::new), so per-node channel ranges are
        // contiguous; the engine's channel-ownership ranges follow the
        // node ranges directly.
        debug_assert!(net
            .ends
            .windows(2)
            .all(|w| w[0].from.index() <= w[1].from.index()));
        let mut node_chan_start = vec![0usize; n + 1];
        for e in &net.ends {
            node_chan_start[e.from.index() + 1] += 1;
        }
        for i in 0..n {
            node_chan_start[i + 1] += node_chan_start[i];
        }
        debug_assert_eq!(node_chan_start[n], chan_count);

        let mut per: Vec<Vec<(u32, bool)>> = vec![Vec::new(); n];
        for (c, e) in net.ends.iter().enumerate() {
            per[e.from.index()].push((c as u32, false));
            per[e.to.index()].push((c as u32, true));
        }
        let mut events = Vec::with_capacity(2 * chan_count);
        let mut ev_off = vec![0u32; n + 1];
        for (j, mut list) in per.into_iter().enumerate() {
            list.sort_unstable_by_key(|&(c, _)| c);
            events.extend_from_slice(&list);
            ev_off[j + 1] = events.len() as u32;
        }

        PlanStatic {
            events,
            ev_off,
            faults: Arc::clone(&net.fault_plane),
            node_chan_start,
            mesh: net.mesh.clone(),
            link_latency: net.config.link_latency,
            max_flit_age: net.config.max_flit_age,
        }
    }
}

/// One concrete partition: the static tables plus current boundaries.
struct Plan {
    shards: usize,
    /// Node range of shard `k`: `[node_start[k], node_start[k+1])`.
    node_start: Vec<usize>,
    stat: Arc<PlanStatic>,
}

impl Plan {
    fn with_boundaries(stat: Arc<PlanStatic>, node_start: Vec<usize>) -> Plan {
        Plan {
            shards: node_start.len() - 1,
            node_start,
            stat,
        }
    }
}

/// Splits `weights.len()` nodes into `shards` contiguous non-empty ranges
/// whose weight sums are as even as a greedy left-to-right cut allows.
/// Returns the `shards + 1` boundary vector (`[0, …, n]`, strictly
/// increasing). Pure and deterministic: same inputs, same cuts — the
/// engine's re-plan points feed it bitmask-derived weights, so plans are a
/// function of simulation state only, never of wall-clock timing.
#[doc(hidden)]
pub fn shard_boundaries(weights: &[u64], shards: usize) -> Vec<usize> {
    let n = weights.len();
    let shards = shards.min(n).max(1);
    let mut starts = Vec::with_capacity(shards + 1);
    starts.push(0usize);
    let total: u64 = weights.iter().sum();
    if total == 0 {
        for k in 1..=shards {
            starts.push(k * n / shards);
        }
        return starts;
    }
    let mut acc: u64 = 0;
    let mut k = 1usize;
    for (j, &w) in weights.iter().enumerate() {
        if k == shards {
            break;
        }
        acc += w;
        // Cut when the running sum reaches the k-th even share, or when
        // exactly enough nodes remain to keep later shards non-empty.
        let reached = (acc as u128) * (shards as u128) >= (k as u128) * (total as u128);
        let forced = n - (j + 1) == shards - k;
        if reached || forced {
            starts.push(j + 1);
            k += 1;
        }
    }
    debug_assert_eq!(starts.len(), shards, "boundary cut invariant violated");
    starts.push(n);
    starts
}

/// Per-node load weights derived from the activity bitmasks: an active
/// router dominates (it pays the pipeline step), a sending NI and each
/// live upstream channel add smaller shares, and every node keeps a floor
/// of 1 so idle stretches still split evenly.
fn shard_weights(net: &Network, stat: &PlanStatic) -> Vec<u64> {
    let n = net.routers.len();
    let mut weights = vec![0u64; n];
    for (j, w) in weights.iter_mut().enumerate() {
        let mut wt = 1u64;
        if net.router_active.contains(j) {
            wt += 4;
        }
        if net.ni_send_active.contains(j) {
            wt += 2;
        }
        for c in stat.node_chan_start[j]..stat.node_chan_start[j + 1] {
            if net.chan_active.contains(c) {
                wt += 1;
            }
        }
        *w = wt;
    }
    weights
}

/// Builds the boundary vectors a fresh engine would use right now — the
/// test hook behind [`Network::debug_shard_plan`].
pub(crate) fn plan_preview(net: &Network, threads: usize) -> (Vec<usize>, Vec<usize>) {
    let stat = PlanStatic::build(net);
    let shards = threads.min(net.routers.len()).max(1);
    let weights = shard_weights(net, &stat);
    let node_start = shard_boundaries(&weights, shards);
    let chan_start = node_start
        .iter()
        .map(|&ns| stat.node_chan_start[ns])
        .collect();
    (node_start, chan_start)
}

// ---------------------------------------------------------------------------
// Per-cycle job + per-shard delta
// ---------------------------------------------------------------------------

/// Raw shard views published by the main thread before each cycle.
///
/// The pointers are bases of the `Network`'s component vectors, re-derived
/// every cycle (so snapshot restores, which replace contents in place, and
/// struct moves are both safe). Workers only ever dereference elements
/// their shard owns — or, for activity bitmasks, go through word-level
/// atomics — so no two threads form overlapping `&mut`. The `plan`
/// pointer is kept alive by the engine's `Arc`, which the main thread
/// replaces only inside the exclusive window (no worker holds a reference
/// then — the merge-tree flags prove it).
struct Job {
    seq: u64,
    rng: SimRng,
    plan: *const Plan,
    recovery: bool,
    routers: *mut Box<dyn Router>,
    nis: *mut NodeInterface,
    /// Link-wheel slabs and per-lane `last_due` words: a shard touches
    /// only this cycle's read slots of links incident on its routers and
    /// the write slots (and words) of the lanes its routers drive.
    tick: Tick,
    fwd: *mut FwdSlot,
    rev: *mut RevSlot,
    last_due: *mut Cycle,
    ends: *const ChannelEnds,
    out_chan: *const DirMap<Option<usize>>,
    in_chan: *const DirMap<Option<usize>>,
    accounted_upto: *mut Cycle,
    modes_cache: *mut RouterMode,
    router_active: *mut u64,
    chan_active: *mut u64,
    ni_send: *mut u64,
    ni_delivered: *mut u64,
}

/// Everything a shard accumulates during a cycle, folded by the merge
/// tree and the epilogue.
struct ShardDelta {
    stats: NetworkStats,
    credits_delivered: u64,
    credits_pushed: u64,
    credits_faulted: u64,
    in_flight: i64,
    retx_queued: i64,
    mode_counts: [i64; 3],
    ni_hw_max: usize,
    /// Dropped flits (NACK circuit), in this shard's router-walk order.
    dropped: Vec<(Cycle, Flit)>,
    /// Fault-plane events, tagged `(channel, is_flit_event)`. The epilogue
    /// stable-sorts the union by that key, which reproduces the serial
    /// engine's fault-log order (ascending channel, credits before the
    /// flit within one channel's delivery).
    fault_events: Vec<(u32, bool, FaultEvent)>,
    scratch: RouterOutputs,
    /// First/minimal terminal error: `(phase, component index, error)`.
    error: Option<(u8, u32, SimError)>,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl ShardDelta {
    fn new() -> ShardDelta {
        ShardDelta {
            stats: NetworkStats::new(),
            credits_delivered: 0,
            credits_pushed: 0,
            credits_faulted: 0,
            in_flight: 0,
            retx_queued: 0,
            mode_counts: [0; 3],
            ni_hw_max: 0,
            dropped: Vec::new(),
            fault_events: Vec::new(),
            scratch: RouterOutputs::new(),
            error: None,
            panic: None,
        }
    }

    fn reset(&mut self) {
        self.stats.clear();
        self.credits_delivered = 0;
        self.credits_pushed = 0;
        self.credits_faulted = 0;
        self.in_flight = 0;
        self.retx_queued = 0;
        self.mode_counts = [0; 3];
        self.ni_hw_max = 0;
        self.dropped.clear();
        self.fault_events.clear();
        self.error = None;
        self.panic = None;
    }

    fn heap_bytes(&self) -> usize {
        self.stats.heap_bytes()
            + self.dropped.capacity() * std::mem::size_of::<(Cycle, Flit)>()
            + self.fault_events.capacity() * std::mem::size_of::<(u32, bool, FaultEvent)>()
            + self.scratch.heap_bytes()
    }
}

/// Folds `src` into `dst`, preserving the ascending-shard concatenation
/// order for the vectors and the `(phase, index)` minimum for errors. The
/// binomial tree calls this bottom-up, so `dst`'s contents always cover a
/// contiguous shard range ending right where `src`'s begins.
fn merge_deltas(dst: &mut ShardDelta, src: &mut ShardDelta) {
    dst.stats.merge(&src.stats);
    dst.credits_delivered += src.credits_delivered;
    dst.credits_pushed += src.credits_pushed;
    dst.credits_faulted += src.credits_faulted;
    dst.in_flight += src.in_flight;
    dst.retx_queued += src.retx_queued;
    for (m, s) in dst.mode_counts.iter_mut().zip(src.mode_counts) {
        *m += s;
    }
    dst.ni_hw_max = dst.ni_hw_max.max(src.ni_hw_max);
    dst.dropped.append(&mut src.dropped);
    dst.fault_events.append(&mut src.fault_events);
    if let Some((p, i, e)) = src.error.take() {
        match &dst.error {
            Some((bp, bi, _)) if (*bp, *bi) <= (p, i) => {}
            _ => dst.error = Some((p, i, e)),
        }
    }
    if dst.panic.is_none() {
        dst.panic = src.panic.take();
    }
}

// ---------------------------------------------------------------------------
// Barrier + shared pool state
// ---------------------------------------------------------------------------

/// Sense-reversing barrier: bounded spin, then bounded yielding, then a
/// condvar park — so oversubscribed hosts (threads > cores) and workers
/// idling between parallel cycles never burn whole timeslices.
///
/// The last arriver's `fetch_add` closes the release chain over every
/// earlier arriver's writes and its `gen` store releases them to all
/// waiters, so crossing the barrier is an all-to-all happens-before edge —
/// which is why the engine's bitmask ops can be `Relaxed`.
///
/// Wake-up correctness: a parked waiter re-checks `gen` under the mutex
/// inside the condvar wait loop, and the releaser notifies *while holding
/// the same mutex* after storing `gen` — the classic monitor discipline,
/// so the store can never fall into the window between a waiter's check
/// and its park. The uncontended lock on the release path is one CAS.
struct SpinBarrier {
    count: CachePadded<AtomicUsize>,
    gen: CachePadded<AtomicUsize>,
    total: usize,
    lock: Mutex<()>,
    cond: Condvar,
}

impl SpinBarrier {
    fn new(total: usize) -> SpinBarrier {
        SpinBarrier {
            count: CachePadded(AtomicUsize::new(0)),
            gen: CachePadded(AtomicUsize::new(0)),
            total,
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    fn wait(&self) {
        let g = self.gen.0.load(Ordering::Relaxed);
        if self.count.0.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.0.store(0, Ordering::Relaxed);
            self.gen.0.store(g.wrapping_add(1), Ordering::Release);
            let guard = self.lock.lock().unwrap();
            self.cond.notify_all();
            drop(guard);
        } else {
            let mut spins = 0u32;
            loop {
                if self.gen.0.load(Ordering::Acquire) != g {
                    return;
                }
                spins = spins.saturating_add(1);
                if spins < SPIN_LIMIT {
                    std::hint::spin_loop();
                } else if spins < SPIN_LIMIT + YIELD_LIMIT {
                    std::thread::yield_now();
                } else {
                    let mut guard = self.lock.lock().unwrap();
                    while self.gen.0.load(Ordering::Acquire) == g {
                        guard = self.cond.wait(guard).unwrap();
                    }
                    return;
                }
            }
        }
    }
}

struct Shared {
    barrier: SpinBarrier,
    job: UnsafeCell<Option<Job>>,
    deltas: Vec<CachePadded<UnsafeCell<ShardDelta>>>,
    /// Merge-tree ready flags: shard `k` stores the cycle's `seq` after its
    /// last access to `deltas[k]`; a parent spin-waits the child's flag up
    /// to `seq` before merging. Generation-tagging (instead of a reset
    /// boolean) removes any cross-cycle reset race.
    ready: Vec<CachePadded<AtomicU64>>,
    shutdown: AtomicBool,
}

// SAFETY: `Job`'s raw pointers are only dereferenced between the barrier
// that publishes them and the merge-tree flag store that retires each
// shard's access, and only on shard-owned elements (or via word atomics) —
// see the module docs. The deltas are single-writer (their shard) until
// the shard's ready flag is set, after which only the unique tree parent
// touches them.
#[allow(unsafe_code)]
unsafe impl Send for Shared {}
#[allow(unsafe_code)]
unsafe impl Sync for Shared {}

/// Persistent shard plan + worker pool attached to a [`Network`].
pub(crate) struct Engine {
    /// The thread count this engine was built for (the adaptive gate may
    /// keep one engine per probed candidate).
    pub(crate) threads: usize,
    plan: Arc<Plan>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Parallel cycles stepped by this engine instance — the deterministic
    /// clock for re-plan points.
    cycles: u64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("shards", &self.plan.shards)
            .field("cycles", &self.cycles)
            .finish_non_exhaustive()
    }
}

impl Engine {
    fn new(net: &Network, threads: usize) -> Engine {
        let stat = Arc::new(PlanStatic::build(net));
        let shards = threads.min(net.routers.len()).max(1);
        let weights = shard_weights(net, &stat);
        let plan = Arc::new(Plan::with_boundaries(
            Arc::clone(&stat),
            shard_boundaries(&weights, shards),
        ));
        let shared = Arc::new(Shared {
            barrier: SpinBarrier::new(plan.shards),
            job: UnsafeCell::new(None),
            deltas: (0..plan.shards)
                .map(|_| CachePadded(UnsafeCell::new(ShardDelta::new())))
                .collect(),
            ready: (0..plan.shards)
                .map(|_| CachePadded(AtomicU64::new(0)))
                .collect(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..plan.shards)
            .map(|shard| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("afc-sim-{shard}"))
                    .spawn(move || worker_loop(&sh, shard))
                    .expect("failed to spawn sim worker thread")
            })
            .collect();
        Engine {
            threads,
            plan,
            shared,
            workers,
            cycles: 0,
        }
    }

    /// Recomputes load-proportional boundaries from the current activity
    /// bitmasks. Called only from the exclusive window (workers parked, no
    /// in-flight `Job` references the old plan), so swapping the `Arc` is
    /// safe; byte-identity is unaffected because any contiguous ascending
    /// partition produces the same output.
    fn replan(&mut self, net: &Network) {
        let weights = shard_weights(net, &self.plan.stat);
        let node_start = shard_boundaries(&weights, self.plan.shards);
        if node_start != self.plan.node_start {
            self.plan = Arc::new(Plan::with_boundaries(
                Arc::clone(&self.plan.stat),
                node_start,
            ));
        }
    }

    /// Heap bytes owned by the engine: plan tables (the only O(mesh)
    /// terms, ≤ ~32 bytes per node/channel) plus the per-shard deltas.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let stat = &self.plan.stat;
        let plan = stat.events.capacity() * size_of::<(u32, bool)>()
            + stat.ev_off.capacity() * size_of::<u32>()
            + stat.node_chan_start.capacity() * size_of::<usize>()
            + self.plan.node_start.capacity() * size_of::<usize>();
        // SAFETY: called only from the exclusive window between cycles
        // (workers parked at the start barrier), where the owning thread
        // has sole access to every delta.
        #[allow(unsafe_code)]
        let deltas: usize = self
            .shared
            .deltas
            .iter()
            .map(|d| unsafe { (*d.0.get()).heap_bytes() })
            .sum();
        plan + deltas
            + self.shared.deltas.capacity() * size_of::<CachePadded<UnsafeCell<ShardDelta>>>()
            + self.shared.ready.capacity() * size_of::<CachePadded<AtomicU64>>()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        // Workers are parked at the start barrier between cycles; one
        // crossing releases them to observe the shutdown flag and exit.
        self.shared.barrier.wait();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Atomic bitmask helpers
// ---------------------------------------------------------------------------

/// # Safety
/// `words` must point at a live `u64` bitmask covering bit `i`, aligned for
/// `AtomicU64` (u64 and AtomicU64 share layout and alignment on supported
/// 64-bit targets).
#[inline]
unsafe fn set_bit(words: *mut u64, i: usize) {
    AtomicU64::from_ptr(words.add(i >> 6)).fetch_or(1u64 << (i & 63), Ordering::Relaxed);
}

/// # Safety
/// See [`set_bit`].
#[inline]
unsafe fn clear_bit(words: *mut u64, i: usize) {
    AtomicU64::from_ptr(words.add(i >> 6)).fetch_and(!(1u64 << (i & 63)), Ordering::Relaxed);
}

/// Walks set bits of `[lo, hi)` in ascending order from per-word snapshots
/// (the serial engine's exact iteration discipline, masked to the shard's
/// range). The callback returns `false` to stop early.
///
/// # Safety
/// `words` must cover bit range `[lo, hi)` and stay live for the call.
unsafe fn walk_masked(words: *mut u64, lo: usize, hi: usize, mut f: impl FnMut(usize) -> bool) {
    if lo >= hi {
        return;
    }
    let w_lo = lo >> 6;
    let w_hi = (hi - 1) >> 6;
    for wi in w_lo..=w_hi {
        let mut w = AtomicU64::from_ptr(words.add(wi)).load(Ordering::Relaxed);
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
            if !f(i) {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cycle regions
// ---------------------------------------------------------------------------

fn min_error(delta: &mut ShardDelta, phase: u8, index: u32, err: SimError) {
    match &delta.error {
        Some((p, i, _)) if (*p, *i) <= (phase, index) => {}
        _ => delta.error = Some((phase, index, err)),
    }
}

/// Region AB: fused phases 1 (pull this cycle's arrivals), 2a-scan (own NIs'
/// retransmit timeouts), 2b (inject from own NIs) and 3 (step own
/// routers, route outputs onto owned link lanes).
///
/// # Safety
/// Must run after the start barrier with a valid published `Job`; only
/// shard `shard` may call it for that shard.
unsafe fn region_ab(job: &Job, plan: &Plan, shard: usize, delta: &mut ShardDelta) {
    let stat = &*plan.stat;
    let now = job.tick.now;
    let tick = &job.tick;
    let (lo, hi) = (plan.node_start[shard], plan.node_start[shard + 1]);

    // Phase 1: every shard pulls the arrivals incident on its own routers
    // — credits/control from the reverse read slots of its routers'
    // outgoing links, flits from the forward read slots of its incoming
    // links —
    // walking each router's incident channels in ascending channel order,
    // which reproduces the serial engine's per-router mutation sequence
    // exactly. Deliveries cross the *deterministic* fault plane here: a
    // flit or credit on a permanently killed channel is eaten (the only
    // fault kind the fast path admits — kills draw no RNG), with the event
    // recorded in the shard delta tagged by channel index so the epilogue
    // can replay the fault log in the serial engine's channel order.
    // Reading the read stripe while other shards run phase 3 is race-free:
    // phase 3 writes the write stripe, a different slot of every lane.
    for j in lo..hi {
        let router = &mut *job.routers.add(j);
        let evs = &stat.events[stat.ev_off[j] as usize..stat.ev_off[j + 1] as usize];
        for &(c32, is_fwd) in evs {
            let c = c32 as usize;
            if is_fwd {
                let Some(flit) = (*job.fwd.add(tick.fwd_rd + c)).arrival(now) else {
                    continue;
                };
                if stat.faults.link_dead(c, now) {
                    // Deterministic fault plane: the link is dead, the flit
                    // is eaten — exactly the serial engine's `flit_fate`,
                    // which runs before the age check (a killed flit can
                    // never be the serial run's first error).
                    if delta.error.is_none() {
                        let ends = &*job.ends.add(c);
                        delta.stats.flits_lost_to_faults += 1;
                        delta.stats.faults_injected += 1;
                        delta.in_flight -= 1;
                        delta.fault_events.push((
                            c32,
                            true,
                            FaultEvent::for_flit(now, ends.from, ends.dir, &flit, true),
                        ));
                    }
                    continue;
                }
                if stat.max_flit_age > 0 {
                    let age = now.saturating_sub(flit.injected_at);
                    if age > stat.max_flit_age {
                        min_error(
                            delta,
                            1,
                            c32,
                            SimError::FlitOverAge {
                                cycle: now,
                                limit: stat.max_flit_age,
                                age,
                                node: (*job.ends.add(c)).to,
                                flit,
                            },
                        );
                        continue;
                    }
                }
                if delta.error.is_some() {
                    // After an error only keep age-checking (read-only) so
                    // the minimal erroring channel — the serial engine's
                    // first — is reported; stop mutating router state.
                    continue;
                }
                let dir = (*job.ends.add(c)).dir;
                set_bit(job.router_active, j);
                router.receive_flit(PortId::Net(dir.opposite()), flit, now);
            } else {
                if delta.error.is_some() {
                    continue;
                }
                let Some(pend) = (*job.rev.add(tick.rev_rd + c)).arrival(now) else {
                    continue;
                };
                let ends = &*job.ends.add(c);
                let dir = ends.dir;
                if stat.faults.link_dead(c, now) {
                    // A dead link loses its credits too (serial
                    // `credit_lost`); control signals are sideband and
                    // still cross, keeping fault gossip alive.
                    for _ in pend.credits() {
                        delta.stats.credits_lost += 1;
                        delta.stats.faults_injected += 1;
                        delta.credits_faulted += 1;
                        delta.fault_events.push((
                            c32,
                            false,
                            FaultEvent {
                                cycle: now,
                                from: ends.from,
                                dir,
                                kind: FaultEventKind::CreditLost,
                            },
                        ));
                    }
                } else {
                    for &credit in pend.credits() {
                        delta.credits_delivered += 1;
                        set_bit(job.router_active, j);
                        router.receive_credit(PortId::Net(dir), credit, now);
                    }
                }
                for &signal in pend.control() {
                    set_bit(job.router_active, j);
                    router.receive_control(PortId::Net(dir), signal, now);
                }
            }
        }
    }

    if delta.error.is_some() {
        return;
    }

    // Phase 2a, sharded tail: NI retransmit timeouts fire, mirroring the
    // serial engine's ascending scan (bounded attempts may retire packets
    // as unreachable here). Per-NI state is shard-owned and the scan
    // touches nothing else, so sharding it is order-preserving; the
    // order-sensitive NACK/ack queue retirement already ran serially in
    // the exclusive window.
    if job.recovery {
        for i in lo..hi {
            let c0 = delta.stats.flits_retransmit_copies;
            let a0 = delta.stats.flits_abandoned;
            (&mut *job.nis.add(i)).check_timeouts(now, &mut delta.stats);
            let copies = delta.stats.flits_retransmit_copies - c0;
            if copies > 0 {
                // Re-materialized copies must be visible to the masked
                // injection walk below.
                set_bit(job.ni_send, i);
            }
            delta.retx_queued += copies as i64;
            // Copies purged when a packet was given up never inject.
            delta.retx_queued -= (delta.stats.flits_abandoned - a0) as i64;
        }
    }

    // Phase 2b: injection attempts from own NIs.
    walk_masked(job.ni_send, lo, hi, |i| {
        let ni = &mut *job.nis.add(i);
        let router = &mut *job.routers.add(i);
        let inj0 = delta.stats.flits_injected;
        let rtx0 = delta.stats.flits_retransmitted;
        ni.try_inject(router.as_mut(), now, &mut delta.stats);
        let retransmitted = delta.stats.flits_retransmitted - rtx0;
        let entered = (delta.stats.flits_injected - inj0) + retransmitted;
        if entered > 0 {
            delta.in_flight += entered as i64;
            set_bit(job.router_active, i);
        }
        delta.retx_queued -= retransmitted as i64;
        if ni.pending_packets() > 0 || ni.pending_retransmits() > 0 {
            set_bit(job.ni_send, i);
        } else {
            clear_bit(job.ni_send, i);
        }
        true
    });

    // Phase 3: step own routers.
    walk_masked(job.router_active, lo, hi, |i| {
        step_one_router(job, plan, delta, i);
        // Stop this shard at its first terminal error: within-shard router
        // order is ascending, so the shard's error is its minimal one.
        delta.error.is_none()
    });
}

/// One router's phase-3 step (the parallel twin of the serial
/// `Network::step_one_router`, writing into shard-owned link lanes and the
/// shard's delta instead of the global accumulators).
unsafe fn step_one_router(job: &Job, plan: &Plan, delta: &mut ShardDelta, i: usize) {
    let stat = &*plan.stat;
    let now = job.tick.now;
    let tick = &job.tick;
    let router = &mut *job.routers.add(i);
    let accounted = &mut *job.accounted_upto.add(i);
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

    delta.scratch.clear();
    let mut rng = job.rng.fork((now << 16) ^ i as u64);
    router.step(now, &mut rng, &mut delta.scratch);

    for dir in Direction::ALL {
        if let Some(flit) = delta.scratch.flits[PortId::Net(dir)] {
            let Some(chan) = (&*job.out_chan.add(i))[dir] else {
                min_error(
                    delta,
                    3,
                    i as u32,
                    SimError::Misrouted {
                        cycle: now,
                        node: NodeId::new(i),
                        dir,
                        flit,
                    },
                );
                return;
            };
            set_bit(job.chan_active, chan);
            // Forward lane owned by this shard (the link's upstream end is
            // router `i`); the downstream shard may concurrently write the
            // reverse lane and read this lane's read slot — all distinct
            // slots and words, no overlapping `&mut` formed.
            (*job.fwd.add(tick.fwd_wr + chan)).push(tick.fwd_due, flit);
            *job.last_due.add(2 * chan) = tick.fwd_due;
        }
        for &credit in &delta.scratch.credits[PortId::Net(dir)] {
            if let Some(chan) = (&*job.in_chan.add(i))[dir] {
                set_bit(job.chan_active, chan);
                (*job.rev.add(tick.rev_wr + chan)).push_credit(tick.rev_due, credit);
                *job.last_due.add(2 * chan + 1) = tick.rev_due;
                delta.credits_pushed += 1;
            }
        }
    }
    if delta.scratch.flits[PortId::Local].is_some() {
        min_error(
            delta,
            3,
            i as u32,
            SimError::ProtocolViolation {
                cycle: now,
                node: NodeId::new(i),
                what: "routers must use `ejected`, not the Local flit slot",
            },
        );
        return;
    }
    for &signal in &delta.scratch.control {
        for dir in Direction::ALL {
            if let Some(chan) = (&*job.in_chan.add(i))[dir] {
                set_bit(job.chan_active, chan);
                (*job.rev.add(tick.rev_wr + chan)).push_control(tick.rev_due, signal);
                *job.last_due.add(2 * chan + 1) = tick.rev_due;
            }
        }
    }
    if !delta.scratch.ejected.is_empty() {
        let ni = &mut *job.nis.add(i);
        delta.in_flight -= delta.scratch.ejected.len() as i64;
        ni.receive_flits(delta.scratch.ejected.drain(..), now, &mut delta.stats);
        delta.ni_hw_max = delta.ni_hw_max.max(ni.reassembly_high_water());
        if ni.has_delivered() {
            set_bit(job.ni_delivered, i);
        }
    }
    if !delta.scratch.dropped.is_empty() {
        delta.in_flight -= delta.scratch.dropped.len() as i64;
        for flit in delta.scratch.dropped.drain(..) {
            let dist = stat.mesh.distance(NodeId::new(i), flit.src) as u64;
            let ready = now + dist * stat.link_latency + 2;
            delta.dropped.push((ready, flit));
        }
    }

    let mode = router.mode();
    let cached = &mut *job.modes_cache.add(i);
    if mode != *cached {
        delta.mode_counts[Network::mode_slot(*cached)] -= 1;
        delta.mode_counts[Network::mode_slot(mode)] += 1;
        *cached = mode;
    }
    if router.is_quiescent() {
        clear_bit(job.router_active, i);
    } else {
        set_bit(job.router_active, i);
    }
}

// ---------------------------------------------------------------------------
// Worker loop + merge tree + main-thread orchestration
// ---------------------------------------------------------------------------

fn run_guarded(shared: &Shared, shard: usize, f: impl FnOnce(&mut ShardDelta)) {
    // SAFETY: each delta is written only by its shard until the shard's
    // ready flag is set (which happens strictly after this call).
    let delta = unsafe { &mut *shared.deltas[shard].0.get() };
    let result = catch_unwind(AssertUnwindSafe(|| f(delta)));
    // SAFETY: as above (the closure's borrow ended with the call).
    let delta = unsafe { &mut *shared.deltas[shard].0.get() };
    if let Err(payload) = result {
        if delta.panic.is_none() {
            delta.panic = Some(payload);
        }
    }
}

/// Spin-waits (bounded, then yielding — merge waits are shorter than a
/// cycle, so they never park) until `flag` reaches `seq`.
fn wait_ready(flag: &AtomicU64, seq: u64) {
    let mut spins = 0u32;
    while flag.load(Ordering::Acquire) < seq {
        spins = spins.saturating_add(1);
        if spins < SPIN_LIMIT {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Binomial-tree fold: shard `k` merges shard `k + s` for
/// `s = 1, 2, 4, …` while `k mod 2s == 0`, then publishes its own ready
/// flag — *unconditionally*, even if a merge panicked (the payload rides
/// up in the delta), so the tree can never deadlock. Shard 0's return
/// therefore means every shard's full delta (and last `Job` access) is
/// complete: the tree replaces both the final barrier and the serial
/// shard-order fold, with an identical ascending concatenation order.
fn merge_subtree(shared: &Shared, shard: usize, seq: u64) {
    let shards = shared.deltas.len();
    let mut stride = 1usize;
    while shard.is_multiple_of(stride * 2) && shard + stride < shards {
        let child = shard + stride;
        wait_ready(&shared.ready[child].0, seq);
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the child's flag at `seq` retires its (and its whole
            // subtree's) delta accesses for this cycle; this shard is the
            // unique tree parent of `child`.
            let dst = unsafe { &mut *shared.deltas[shard].0.get() };
            let src = unsafe { &mut *shared.deltas[child].0.get() };
            merge_deltas(dst, src);
        }));
        if let Err(payload) = result {
            // SAFETY: as above — sole accessor of both deltas right now.
            let dst = unsafe { &mut *shared.deltas[shard].0.get() };
            if dst.panic.is_none() {
                dst.panic = Some(payload);
            }
        }
        stride *= 2;
    }
    shared.ready[shard].0.store(seq, Ordering::Release);
}

fn worker_loop(shared: &Shared, shard: usize) {
    loop {
        shared.barrier.wait(); // start barrier: job published (or shutdown)
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // SAFETY: the job is published before the start barrier and not
        // mutated again until every shard's ready flag retires the cycle;
        // reading it here is data-race free.
        let job = unsafe { (*shared.job.get()).as_ref().expect("job published") };
        // SAFETY: the engine's plan Arc outlives the cycle (it is only
        // replaced in the exclusive window, when no job is in flight).
        let plan = unsafe { &*job.plan };
        let seq = job.seq;
        run_guarded(shared, shard, |d| {
            d.reset();
            // SAFETY: after the start barrier, on this shard.
            unsafe { region_ab(job, plan, shard, d) }
        });
        merge_subtree(shared, shard, seq);
    }
}

/// Serial head of phase 2a, run in the exclusive window: NACKs that have
/// reached their source become pending retransmissions and end-to-end
/// acks retire outstanding packets. Both retire queue entries with
/// order-sensitive `swap_remove` scans, so they stay serial; running them
/// *before* phase 1 (instead of after, as in the serial engine) is legal
/// because they touch only NI/queue state disjoint from phase 1's
/// router/staging writes.
fn phase_2a_queues(net: &mut Network, now: Cycle) {
    let recovery = net.config.retransmit.is_some();
    if !net.nack_queue.is_empty() {
        let mut i = 0;
        while i < net.nack_queue.len() {
            if net.nack_queue[i].0 <= now {
                let (_, flit) = net.nack_queue.swap_remove(i);
                let src = flit.src.index();
                net.nis[src].nack(flit, now, &mut net.stats);
                if !recovery {
                    // Without end-to-end recovery a NACK requeues the flit
                    // directly; with it the copy is absorbed and the
                    // timeout path re-materializes the packet.
                    net.retx_queued += 1;
                }
                net.ni_send_active.insert(src);
            } else {
                i += 1;
            }
        }
    }
    if !net.ack_queue.is_empty() {
        let mut i = 0;
        while i < net.ack_queue.len() {
            if net.ack_queue[i].0 <= now {
                let (_, src, id) = net.ack_queue.swap_remove(i);
                net.nis[src.index()].acknowledge(id, &mut net.stats);
            } else {
                i += 1;
            }
        }
    }
}

/// Static activity gate: true when the cycle has enough live components to
/// amortize the barrier cost and no residual held-back flits (from a
/// restored faulted run) force the serial walk.
pub(crate) fn static_gate(net: &Network) -> bool {
    let threads = net.sim_threads().min(net.routers.len());
    if threads < 2 {
        return false;
    }
    let active =
        net.router_active.popcount() + net.chan_active.popcount() + net.ni_send_active.popcount();
    if active < net.par_min_active.saturating_mul(threads) {
        return false;
    }
    net.held_flits == 0
}

/// Builds the engine (plan + worker pool) for `threads` workers if it
/// does not exist yet, so timed gate probes never charge thread-spawn
/// cost to a parallel sample. The cache holds one engine per thread count
/// the adaptive gate probes — at most two ([`AdaptiveGate`]'s parallel
/// candidates are 2 and the full budget).
pub(crate) fn ensure_engine_for(net: &mut Network, threads: usize) {
    let threads = threads.min(net.routers.len()).max(2);
    if !net.engines.iter().any(|e| e.threads == threads) {
        let engine = Engine::new(net, threads);
        net.engines.push(engine);
    }
}

/// Steps one cycle on the parallel engine built for `threads` workers.
/// Callers must have passed [`static_gate`]; the adaptive gate's decision
/// is made by the caller.
pub(crate) fn step_parallel_with(net: &mut Network, threads: usize) -> Result<(), SimError> {
    ensure_engine_for(net, threads);
    let threads = threads.min(net.routers.len()).max(2);
    let idx = net
        .engines
        .iter()
        .position(|e| e.threads == threads)
        .expect("engine just ensured");
    let mut engine = net.engines.swap_remove(idx);
    engine.cycles += 1;
    let seq = engine.cycles;
    if net.replan_every > 0 && seq.is_multiple_of(net.replan_every) {
        engine.replan(net);
    }
    let shared = Arc::clone(&engine.shared);
    let plan = Arc::clone(&engine.plan);
    net.engines.push(engine);
    step_cycle(net, &shared, &plan, seq)
}

fn step_cycle(
    net: &mut Network,
    shared: &Shared,
    plan: &Arc<Plan>,
    seq: u64,
) -> Result<(), SimError> {
    let now = net.now;
    net.parallel_cycles += 1;

    // Exclusive window: workers are parked at the start barrier. The
    // serial queue head of phase 2a runs first (commutes with phase 1 —
    // disjoint state), then the job is published.
    phase_2a_queues(net, now);
    // SAFETY: sole accessor of the job cell until the barrier crossing;
    // every prior cycle's accesses were retired by its merge-tree flags.
    unsafe {
        *shared.job.get() = Some(Job {
            seq,
            rng: net.rng.clone(),
            plan: Arc::as_ptr(plan),
            recovery: net.config.retransmit.is_some(),
            routers: net.routers.as_mut_ptr(),
            nis: net.nis.as_mut_ptr(),
            tick: net.wheel.tick(now),
            fwd: net.wheel.fwd.as_mut_ptr(),
            rev: net.wheel.rev.as_mut_ptr(),
            last_due: net.wheel.last_due.as_mut_ptr(),
            ends: net.ends.as_ptr(),
            out_chan: net.out_chan.as_ptr(),
            in_chan: net.in_chan.as_ptr(),
            accounted_upto: net.accounted_upto.as_mut_ptr(),
            modes_cache: net.modes_cache.as_mut_ptr(),
            router_active: net.router_active.words.as_mut_ptr(),
            chan_active: net.chan_active.words.as_mut_ptr(),
            ni_send: net.ni_send_active.words.as_mut_ptr(),
            ni_delivered: net.ni_delivered.words.as_mut_ptr(),
        });
    }

    {
        // SAFETY: published above; immutable until every ready flag
        // reaches `seq` (shard 0's merge below transitively waits for
        // that). Scoped so the borrow ends before the epilogue.
        let job = unsafe { (*shared.job.get()).as_ref().expect("job just published") };
        shared.barrier.wait(); // start barrier
        run_guarded(shared, 0, |d| {
            d.reset();
            // SAFETY: after the start barrier, on shard 0.
            unsafe { region_ab(job, plan, 0, d) }
        });
        merge_subtree(shared, 0, seq);
    }

    // Epilogue (exclusive again: the root merge waited on every shard).
    // The tree already folded all deltas into shard 0's in ascending shard
    // order — the serial engine's accumulation order.
    let (fault_events, error, panic_payload) = {
        // SAFETY: all ready flags reached `seq`; main is the sole accessor.
        let d = unsafe { &mut *shared.deltas[0].0.get() };
        net.stats.merge(&d.stats);
        net.credits_delivered += d.credits_delivered;
        net.credits_pushed += d.credits_pushed;
        net.credits_faulted += d.credits_faulted;
        net.in_flight = (net.in_flight as i64 + d.in_flight) as usize;
        net.retx_queued = (net.retx_queued as i64 + d.retx_queued) as usize;
        for (m, dm) in net.mode_counts.iter_mut().zip(d.mode_counts) {
            *m = (*m as i64 + dm) as u64;
        }
        net.ni_high_water_max = net.ni_high_water_max.max(d.ni_hw_max);
        net.nack_queue.append(&mut d.dropped);
        (
            std::mem::take(&mut d.fault_events),
            d.error.take(),
            d.panic.take(),
        )
    };
    if !fault_events.is_empty() {
        // Serial fault-log order: ascending channel, a channel's lost
        // credits before its dropped flit (one flit per channel per cycle,
        // so the key is a total order up to same-channel credits, whose
        // relative order the stable sort preserves).
        let mut fault_events = fault_events;
        fault_events.sort_by_key(|&(c, is_flit, _)| (c, is_flit));
        for (_, _, ev) in fault_events {
            net.log_fault(ev);
        }
    }

    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }
    if let Some((_, _, e)) = error {
        return Err(e);
    }

    // Every push of the cycle has landed: drop the activity bit of links
    // with nothing due after it (see the module docs; `held` is empty on
    // this path — the static gate checked).
    for wi in 0..net.chan_active.word_count() {
        let mut w = net.chan_active.word(wi);
        while w != 0 {
            let c = (wi << 6) + w.trailing_zeros() as usize;
            w &= w - 1;
            if net.wheel.quiet_after(c, now) {
                net.chan_active.remove(c);
            }
        }
    }

    // Serial phase 3b — NI sideband buffers only, so running it after the
    // region is byte-identical to the serial placement after phase 3.
    net.collect_ni_sideband(now);

    net.now += 1;
    net.stats.cycles += 1;
    net.stats.cycles_backpressured += net.mode_counts[0];
    net.stats.cycles_backpressureless += net.mode_counts[1];
    net.stats.cycles_transitioning += net.mode_counts[2];
    net.stats.reassembly_high_water = net.stats.reassembly_high_water.max(net.ni_high_water_max);

    #[cfg(debug_assertions)]
    if net.check_conservation {
        debug_assert_eq!(
            net.in_flight,
            net.flits_in_network(),
            "incremental in-flight accounting diverged (parallel engine)"
        );
        debug_assert_eq!(
            net.retx_queued,
            net.nis
                .iter()
                .map(NodeInterface::pending_retransmits)
                .sum::<usize>(),
            "incremental retransmit-queue accounting diverged (parallel engine)"
        );
    }

    let progress =
        net.stats.flits_injected + net.stats.flits_delivered + net.stats.packets_unreachable;
    if progress != net.last_progress {
        net.last_progress = progress;
        net.last_progress_cycle = net.now;
    } else if net.config.stall_watchdog > 0
        && net.now.saturating_sub(net.last_progress_cycle) >= net.config.stall_watchdog
    {
        let in_flight = net.unaccounted_flits() as u64;
        if in_flight > 0 {
            return Err(SimError::Stalled {
                cycle: net.now,
                in_flight,
                per_router_occupancy: net.routers.iter().map(|r| r.occupancy()).collect(),
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Adaptive gate
// ---------------------------------------------------------------------------

/// Cycles timed per probe burst.
const PROBE_CYCLES: u32 = 8;
/// Untimed cycles between probe reviews.
const COMMIT_CYCLES: u32 = 256;
/// Switching to a *more*-threaded candidate needs a 10% projected win
/// (hysteresis); dropping threads happens on any measured loss.
const SWITCH_UP_MARGIN: f64 = 0.9;

#[derive(Debug, Clone, Copy)]
enum GatePhase {
    /// Timing candidate `cand` (an index into `candidates`), starting
    /// with the committed candidate so its estimate stays freshest.
    Probe {
        /// Position in the review's probe sequence (0 = committed).
        pos: usize,
        /// Timed cycles left for this candidate.
        left: u32,
    },
    /// Running the committed candidate untimed.
    Committed(u32),
}

/// Probe/commit wall-clock controller for the thread-count choice.
///
/// Every engine configuration is byte-identical, so this gate can never
/// affect results — only wall-clock time. It maintains an EWMA of
/// ns/cycle for each *candidate thread count* — serial, 2 threads, and
/// the configured maximum (deduplicated) — refreshed by brief probe
/// bursts every [`COMMIT_CYCLES`] gated cycles, and commits to the
/// fastest with hysteresis: claiming more threads requires a
/// [`SWITCH_UP_MARGIN`] projected win, shedding threads happens on any
/// measured loss. The intermediate 2-thread candidate is what rescues
/// small meshes, where the full thread budget loses to serial but a
/// two-way split still pays. Because every review probes every
/// candidate, the controller never starves itself of fresh evidence;
/// committed stretches pay zero timer overhead.
#[derive(Debug)]
pub(crate) struct AdaptiveGate {
    adaptive: bool,
    /// Candidate thread counts, ascending, deduplicated; `candidates[0]`
    /// is always 1 (serial) and the last entry is the configured budget.
    candidates: Vec<usize>,
    /// Index of the committed candidate.
    committed: usize,
    phase: GatePhase,
    /// EWMA ns/cycle per candidate; 0.0 = no sample yet.
    estimates: Vec<f64>,
}

impl AdaptiveGate {
    /// `adaptive = false` pins the gate open (always the full
    /// `max_threads` budget when the static gate passes) — the
    /// pre-hysteresis behavior, used by CI equivalence suites (forced via
    /// `AFC_SIM_THREADS`) and benchmarks that measure the raw engine.
    pub(crate) fn new(adaptive: bool, max_threads: usize) -> AdaptiveGate {
        let mut candidates = vec![1usize, 2, max_threads.max(1)];
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|&t| t == 1 || t <= max_threads);
        let n = candidates.len();
        AdaptiveGate {
            adaptive,
            candidates,
            committed: n - 1,
            phase: GatePhase::Probe {
                pos: 0,
                left: PROBE_CYCLES,
            },
            estimates: vec![0.0; n],
        }
    }

    pub(crate) fn set_adaptive(&mut self, on: bool) {
        self.adaptive = on;
        self.reset();
    }

    pub(crate) fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// Forgets learned estimates (call when the thread budget changes —
    /// via [`AdaptiveGate::new`] when the candidate set itself changes).
    pub(crate) fn reset(&mut self) {
        self.committed = self.candidates.len() - 1;
        self.phase = GatePhase::Probe {
            pos: 0,
            left: PROBE_CYCLES,
        };
        self.estimates.fill(0.0);
    }

    /// Maps a probe-sequence position to a candidate index: position 0 is
    /// the committed candidate, the rest are the others in ascending
    /// order.
    fn probe_candidate(&self, pos: usize) -> usize {
        if pos == 0 {
            self.committed
        } else {
            // Skip the committed candidate in the ascending walk.
            let i = pos - 1;
            if i < self.committed {
                i
            } else {
                i + 1
            }
        }
    }

    /// Picks the thread count for one gated cycle: `(threads, timed)`.
    /// `threads == 1` means serial. When `timed`, the caller must report
    /// the cycle's wall-clock cost via [`AdaptiveGate::feedback`].
    pub(crate) fn decide(&mut self) -> (usize, bool) {
        let max = *self.candidates.last().expect("at least one candidate");
        if !self.adaptive {
            return (max, false);
        }
        match &mut self.phase {
            GatePhase::Probe { pos, .. } => {
                let pos = *pos;
                (self.candidates[self.probe_candidate(pos)], true)
            }
            GatePhase::Committed(left) => {
                if *left > 0 {
                    *left -= 1;
                    (self.candidates[self.committed], false)
                } else {
                    self.phase = GatePhase::Probe {
                        pos: 0,
                        left: PROBE_CYCLES,
                    };
                    (self.candidates[self.committed], true)
                }
            }
        }
    }

    /// Feeds one timed cycle back; advances the probe state machine and,
    /// at the end of a review (every candidate probed), re-commits to the
    /// fastest with hysteresis.
    pub(crate) fn feedback(&mut self, threads: usize, ns: f64) {
        if let Some(i) = self.candidates.iter().position(|&t| t == threads) {
            let est = &mut self.estimates[i];
            *est = if *est == 0.0 {
                ns
            } else {
                0.75 * *est + 0.25 * ns
            };
        }
        if let GatePhase::Probe { pos, left } = &mut self.phase {
            *left -= 1;
            if *left == 0 {
                if *pos + 1 < self.candidates.len() {
                    self.phase = GatePhase::Probe {
                        pos: *pos + 1,
                        left: PROBE_CYCLES,
                    };
                } else {
                    self.commit();
                    self.phase = GatePhase::Committed(COMMIT_CYCLES);
                }
            }
        }
    }

    /// End-of-review commitment: the candidate with the lowest estimate
    /// wins, but claiming *more* threads than currently committed
    /// requires beating the incumbent by [`SWITCH_UP_MARGIN`].
    fn commit(&mut self) {
        let sampled = |i: usize| self.estimates[i] > 0.0;
        let mut best = self.committed;
        for i in 0..self.candidates.len() {
            if !sampled(i) || i == best {
                continue;
            }
            if self.estimates[i] < self.estimates[best] {
                best = i;
            }
        }
        if best == self.committed || !sampled(self.committed) {
            self.committed = best;
            return;
        }
        if self.candidates[best] > self.candidates[self.committed] {
            if self.estimates[best] < SWITCH_UP_MARGIN * self.estimates[self.committed] {
                self.committed = best;
            }
        } else if self.estimates[best] < self.estimates[self.committed] {
            self.committed = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_is_all_to_all() {
        let barrier = Arc::new(SpinBarrier::new(4));
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let b = Arc::clone(&barrier);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for round in 1..=100usize {
                    c.fetch_add(1, Ordering::Relaxed);
                    b.wait();
                    // Every participant's pre-barrier increment is visible.
                    assert!(c.load(Ordering::Relaxed) >= 4 * round);
                    b.wait();
                }
            }));
        }
        for round in 1..=100usize {
            counter.fetch_add(1, Ordering::Relaxed);
            barrier.wait();
            assert!(counter.load(Ordering::Relaxed) >= 4 * round);
            barrier.wait();
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn masked_walk_matches_reference() {
        let mut words = [0u64; 4];
        let bits = [0usize, 1, 5, 63, 64, 65, 127, 128, 200, 255];
        for &b in &bits {
            words[b >> 6] |= 1 << (b & 63);
        }
        for (lo, hi) in [(0, 256), (1, 255), (64, 128), (63, 65), (65, 65), (5, 6)] {
            let mut got = Vec::new();
            // SAFETY: `words` outlives the call and covers [0, 256).
            unsafe {
                walk_masked(words.as_mut_ptr(), lo, hi, |i| {
                    got.push(i);
                    true
                });
            }
            let want: Vec<usize> = bits
                .iter()
                .copied()
                .filter(|&b| b >= lo && b < hi)
                .collect();
            assert_eq!(got, want, "range [{lo}, {hi})");
        }
    }

    fn check_partition(starts: &[usize], n: usize, shards: usize) {
        assert_eq!(starts.len(), shards + 1);
        assert_eq!(starts[0], 0);
        assert_eq!(*starts.last().unwrap(), n);
        for w in starts.windows(2) {
            assert!(w[0] < w[1], "empty or inverted shard in {starts:?}");
        }
    }

    #[test]
    fn boundaries_partition_any_weights() {
        // A tiny deterministic LCG stands in for arbitrary activity.
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for n in [1usize, 2, 3, 7, 9, 64, 100, 1024] {
            for shards in [1usize, 2, 3, 5, 8, 16, 200] {
                let eff = shards.min(n).max(1);
                // Uniform-ish weights.
                let weights: Vec<u64> = (0..n).map(|_| rand() % 9).collect();
                check_partition(&shard_boundaries(&weights, shards), n, eff);
                // All-zero weights fall back to even splits.
                check_partition(&shard_boundaries(&vec![0; n], shards), n, eff);
                // One node carries all the load.
                let mut skew = vec![0u64; n];
                skew[(rand() % n as u64) as usize] = 1 << 40;
                check_partition(&shard_boundaries(&skew, shards), n, eff);
            }
        }
    }

    #[test]
    fn boundaries_track_load() {
        // Heavy left half → the first shard should take fewer nodes than
        // an even split would give it.
        let mut weights = vec![1u64; 100];
        for w in weights.iter_mut().take(10) {
            *w = 100;
        }
        let starts = shard_boundaries(&weights, 4);
        check_partition(&starts, 100, 4);
        assert!(
            starts[1] <= 13,
            "first shard should hug the hot region: {starts:?}"
        );
    }

    #[cfg(target_os = "linux")]
    fn process_cpu_ms() -> u64 {
        // utime + stime from /proc/self/stat, fields 14/15 (1-indexed)
        // after the parenthesised comm. USER_HZ is 100 on every supported
        // Linux configuration; the test's margins are far wider than any
        // plausible deviation.
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        let rest = &stat[stat.rfind(')').unwrap() + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: u64 = fields[11].parse().unwrap();
        let stime: u64 = fields[12].parse().unwrap();
        (utime + stime) * 10
    }

    /// Satellite regression: waiters parked at a barrier must not burn the
    /// host while the releaser is busy elsewhere — even when the pool is
    /// oversubscribed (threads = 4× cores).
    #[test]
    #[cfg(target_os = "linux")]
    fn parked_barrier_waiters_burn_no_cpu() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let total = 4 * cores + 1;
        let barrier = Arc::new(SpinBarrier::new(total));
        let handles: Vec<_> = (0..total - 1)
            .map(|_| {
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    b.wait(); // round 1: rendezvous
                    b.wait(); // round 2: park here while main sleeps
                })
            })
            .collect();
        barrier.wait(); // round 1 complete; workers move to round 2
        std::thread::sleep(std::time::Duration::from_millis(100));
        let cpu0 = process_cpu_ms();
        std::thread::sleep(std::time::Duration::from_millis(400));
        let cpu1 = process_cpu_ms();
        barrier.wait(); // release round 2
        for h in handles {
            h.join().unwrap();
        }
        let burned = cpu1.saturating_sub(cpu0);
        assert!(
            burned < 150,
            "parked barrier waiters burned {burned} ms of CPU over a 400 ms sleep \
             ({total} threads on {cores} cores)"
        );
    }

    /// Runs the gate for `cycles` gated cycles against a synthetic cost
    /// model (ns per cycle as a function of thread count), returning the
    /// last committed, untimed decision observed.
    fn drive(gate: &mut AdaptiveGate, cycles: u32, cost: impl Fn(usize) -> f64) -> usize {
        let mut last_committed = 0;
        for _ in 0..cycles {
            let (threads, timed) = gate.decide();
            if timed {
                gate.feedback(threads, cost(threads));
            } else {
                last_committed = threads;
            }
        }
        last_committed
    }

    /// One full review (every candidate probed) plus a committed stretch.
    const REVIEW: u32 = COMMIT_CYCLES + 3 * PROBE_CYCLES + 4;

    #[test]
    fn adaptive_gate_commits_to_the_fastest_thread_count() {
        let mut gate = AdaptiveGate::new(true, 8);
        // Small-mesh regime: the full budget loses badly, two threads
        // lose mildly — the gate must fall back to serial.
        let committed = drive(&mut gate, 2 * REVIEW, |t| match t {
            1 => 1000.0,
            2 => 1500.0,
            _ => 4000.0,
        });
        assert_eq!(committed, 1, "gate should have committed to serial");
        // Two threads become the sweet spot (the 8×8 over-threading fix:
        // neither serial nor the full budget wins, the middle does).
        let committed = drive(&mut gate, 4 * REVIEW, |t| match t {
            1 => 1000.0,
            2 => 600.0,
            _ => 1200.0,
        });
        assert_eq!(committed, 2, "gate should have committed to 2 threads");
        // Load grows until the full budget wins by >10%: switch up.
        let committed = drive(&mut gate, 4 * REVIEW, |t| match t {
            1 => 4000.0,
            2 => 2000.0,
            _ => 900.0,
        });
        assert_eq!(committed, 8, "gate should have claimed the full budget");
        // A <10% projected win must NOT unseat a smaller commitment
        // (hysteresis): drop back to 2, then offer 8 a marginal edge.
        let committed = drive(&mut gate, 4 * REVIEW, |t| match t {
            1 => 2000.0,
            2 => 1000.0,
            _ => 1500.0,
        });
        assert_eq!(committed, 2);
        let committed = drive(&mut gate, 4 * REVIEW, |t| match t {
            1 => 2000.0,
            2 => 1000.0,
            _ => 950.0,
        });
        assert_eq!(committed, 2, "a sub-margin win must not claim more threads");
    }

    #[test]
    fn adaptive_gate_keeps_probing_every_candidate() {
        let mut gate = AdaptiveGate::new(true, 8);
        // Commit to serial, then verify later reviews still time 2 and 8.
        drive(
            &mut gate,
            2 * REVIEW,
            |t| if t == 1 { 100.0 } else { 9000.0 },
        );
        let mut probed = [false; 3];
        for _ in 0..(2 * REVIEW) {
            let (threads, timed) = gate.decide();
            if timed {
                match threads {
                    1 => probed[0] = true,
                    2 => probed[1] = true,
                    8 => probed[2] = true,
                    other => panic!("unexpected candidate {other}"),
                }
                gate.feedback(threads, if threads == 1 { 100.0 } else { 9000.0 });
            }
        }
        assert_eq!(
            probed, [true; 3],
            "reviews must keep probing every candidate"
        );
    }

    #[test]
    fn gate_candidates_deduplicate() {
        // Budget 2: candidates collapse to {1, 2}.
        let mut gate = AdaptiveGate::new(true, 2);
        let committed = drive(&mut gate, 2 * REVIEW, |t| match t {
            1 => 1000.0,
            2 => 500.0,
            other => panic!("budget-2 gate probed {other} threads"),
        });
        assert_eq!(committed, 2);
    }

    #[test]
    fn non_adaptive_gate_is_always_full_budget_untimed() {
        let mut gate = AdaptiveGate::new(false, 8);
        for _ in 0..100 {
            assert_eq!(gate.decide(), (8, false));
        }
    }
}
