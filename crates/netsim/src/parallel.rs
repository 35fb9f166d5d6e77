//! The sharded schedule: a deterministic intra-run parallel cycle engine
//! (DESIGN.md §12 has the cycle and the byte-identity argument in full).
//! The phase bodies are [`crate::kernel`]'s — the code the serial engine
//! runs; this file only decides who visits what on which thread, and folds
//! the per-thread counts.
//!
//! The mesh is cut into `T` contiguous **shards** — a node range plus each
//! node's NI and the links whose upstream end lies in the range — at
//! load-proportional boundaries, re-planned every [`REPLAN_INTERVAL`]
//! parallel cycles. Each cycle the main thread, workers parked, publishes a
//! `Job`, and then every thread crosses one [`SpinBarrier`] twice:
//!
//! * **Region** (between the crossings, on a persistent `std::thread`
//!   pool): each shard locks its own delta, builds a [`Cx`] over its node
//!   range and runs phase 1 for the links incident on its routers, the NI
//!   timeout scan, the injection walk and the router walk. One shard writes
//!   each link lane, and the wheel contract ([`crate::channel`]) keeps a
//!   cycle's read slots apart from its write slots, so phase 1 fuses with
//!   phase 3.
//! * **Epilogue** (main thread, after the end crossing — exclusive again):
//!   the deltas fold in ascending shard order — each [`Accum`] merges into
//!   the network's totals, the tagged fault events are sorted into the
//!   serial log order, the minimal error and the first panic are kept —
//!   and the activity bit of every link with nothing due after this cycle
//!   drops. The serial schedule settles that bit in phase 1, before the
//!   cycle's pushes; here one shard's phase 1 runs alongside another's
//!   phase 3, so a clear there would race a push's set — after the end
//!   crossing every push has landed and the same predicate
//!   (`LinkWheel::quiet_after`) yields the same bits.
//!
//! Output is byte-identical at any thread count because every mutation in
//! a cycle either targets state owned by exactly one shard, whose
//! per-owner order matches the serial walk (ascending index), or is a
//! commutative fold replayed in ascending shard order; router-step
//! randomness is a pure function of `(seed, cycle, router)`. Terminal
//! errors keep their *identity* (the `SimError` the serial engine would
//! have returned first) by taking the minimum over `(phase, component
//! index)` across shards; the post-error partial state may differ from
//! serial, which is fine because errors are terminal.
//!
//! Whether a cycle runs here at all is [`gate`]'s call — a pure function
//! of simulation state, so *which engine ran* is as reproducible as the
//! results.
#![allow(unsafe_code)]

use crate::channel::{ControlSignal, Credit, FwdSlot, LastDue, RevSlot, Tick};
use crate::error::SimError;
use crate::faults::FaultEvent;
use crate::flit::{Cycle, Flit};
use crate::kernel::{walk, Accum, Bits, Cx, FaultLog, Frame, Lanes};
use crate::network::Network;
use crate::ni::NodeInterface;
use crate::rng::SimRng;
use crate::router::{Router, RouterMode, RouterOutputs};
use std::cell::UnsafeCell;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The gate's floor: active components (routers + channels + sending NIs)
/// below which a cycle runs serially. Calibrated on the committed
/// `results/BENCH_parallel.json` rows (EXPERIMENTS.md, "The engine gate"):
/// forced sharding loses at every budget on an 8×8 (≤ 290 active at
/// saturation) and no better than breaks even on a 16×16 (≤ 1 130 at
/// saturation, 1 472 components in all), and wins from 24×24 at 0.10
/// (≥ 1 680) and 32×32 at 0.08 (≥ 3 150) up, at 2–8 threads alike — so the
/// floor sits between, just above what a 16×16 can ever reach.
pub(crate) const MIN_ACTIVE: usize = 1536;

/// Parallel cycles between deterministic re-plan points, where the shard
/// boundaries are recomputed from the activity bitmasks (output-neutral:
/// any contiguous partition yields the same bytes).
const REPLAN_INTERVAL: u64 = 64;

/// Spins before a barrier waiter starts yielding its timeslice.
const SPIN_LIMIT: u32 = 128;
/// Yields before a barrier waiter parks on the condvar.
const YIELD_LIMIT: u32 = 64;

/// Pads hot per-shard state to its own cache line pair so neighbouring
/// shards' writes (delta accumulation, barrier counters) never false-share.
#[repr(align(128))]
struct CachePadded<T>(T);

// ---------------------------------------------------------------------------
// Shard plan
// ---------------------------------------------------------------------------

/// The boundary-independent tables of an engine, built once — re-planning
/// only recomputes the small boundary vector (`Engine::node_start`).
struct Plan {
    /// Flattened per-router phase-1 pull lists: `(channel, is_fwd)` pairs,
    /// ascending channel index. `is_fwd` = the router is the channel's
    /// downstream end (receives the flit); otherwise it is the upstream
    /// end (receives credits/control).
    events: Vec<(u32, bool)>,
    ev_off: Vec<u32>,
    /// Prefix sums of per-node outgoing-channel counts: node `j` owns
    /// channels `[node_chan_start[j], node_chan_start[j+1])`.
    node_chan_start: Vec<usize>,
}

impl Plan {
    fn build(net: &Network) -> Plan {
        let n = net.nis.len();
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

        Plan {
            events,
            ev_off,
            node_chan_start,
        }
    }
}

/// Splits `weights.len()` nodes into `shards` contiguous non-empty ranges
/// whose weight sums are as even as a greedy left-to-right cut allows.
/// Returns the `shards + 1` boundary vector (`[0, …, n]`, strictly
/// increasing). Pure and deterministic: same inputs, same cuts — the
/// engine's re-plan points feed it bitmask-derived weights, so plans are a
/// function of simulation state only, never of wall-clock timing.
fn shard_boundaries(weights: &[u64], shards: usize) -> Vec<usize> {
    let mut starts = Vec::new();
    shard_boundaries_into(weights, shards, &mut starts);
    starts
}

/// [`shard_boundaries`] into a reused vector: a re-plan point allocates
/// nothing.
fn shard_boundaries_into(weights: &[u64], shards: usize, starts: &mut Vec<usize>) {
    let n = weights.len();
    let shards = shards.min(n).max(1);
    starts.clear();
    starts.push(0usize);
    let total: u64 = weights.iter().sum();
    if total == 0 {
        starts.extend((1..=shards).map(|k| k * n / shards));
        return;
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
}

/// Per-node load weights derived from the activity bitmasks: an active
/// router dominates (it pays the pipeline step), a sending NI and each
/// live upstream channel add smaller shares, and every node keeps a floor
/// of 1 so idle stretches still split evenly.
fn shard_weights(net: &Network, plan: &Plan, weights: &mut Vec<u64>) {
    weights.clear();
    weights.extend((0..net.nis.len()).map(|j| {
        let mut wt = 1u64;
        if net.router_active.contains(j) {
            wt += 4;
        }
        if net.ni_send_active.contains(j) {
            wt += 2;
        }
        for c in plan.node_chan_start[j]..plan.node_chan_start[j + 1] {
            if net.chan_active.contains(c) {
                wt += 1;
            }
        }
        wt
    }));
}

// ---------------------------------------------------------------------------
// Per-cycle job, shard handles, per-shard delta
// ---------------------------------------------------------------------------

/// The link wheel as a shard reaches it: slab bases and the per-link
/// [`LastDue`] pairs, indexed where the cycle's [`Tick`] says.
///
/// Soundness of every access below: a shard reads only this cycle's read
/// slots of links incident on its own routers and writes only the write
/// slots (and `last_due` halves) of the lanes its routers drive — the
/// forward lane of their outgoing links, the reverse lane of their
/// incoming ones. Read and write stripes are different slots of every lane
/// (`W = delay + 1`) and each lane has one writer, so no two threads touch
/// the same slot or word in a cycle and no overlapping `&mut` is formed.
#[derive(Clone, Copy)]
struct RawLanes {
    fwd: *mut FwdSlot,
    rev: *mut RevSlot,
    last_due: *mut LastDue,
}

impl RawLanes {
    /// The flit arriving on link `c` this cycle, if any.
    #[inline]
    fn flit_at(&self, t: &Tick, c: usize) -> Option<Flit> {
        // SAFETY: a read slot of a link incident on this shard's routers.
        unsafe { (*self.fwd.add(t.fwd_read(c))).arrival(t.now) }
    }
}

impl Lanes for RawLanes {
    #[inline]
    fn rev_at(&self, t: &Tick, c: usize) -> Option<&RevSlot> {
        // SAFETY: as above; nothing writes a read slot during the region.
        unsafe { (*self.rev.add(t.rev_read(c))).arrival(t.now) }
    }
    #[inline]
    fn push_flit(&mut self, t: &Tick, c: usize, flit: Flit) {
        // SAFETY: the forward lane of an outgoing link of an own router.
        unsafe {
            (*self.fwd.add(t.fwd_write(c))).push(t.fwd_due, flit);
            (*self.last_due.add(c)).fwd = t.fwd_due;
        }
    }
    #[inline]
    fn push_credit(&mut self, t: &Tick, c: usize, credit: Credit) {
        // SAFETY: the reverse lane of an incoming link of an own router.
        unsafe {
            (*self.rev.add(t.rev_write(c))).push_credit(t.rev_due, credit);
            (*self.last_due.add(c)).rev = t.rev_due;
        }
    }
    #[inline]
    fn push_control(&mut self, t: &Tick, c: usize, signal: ControlSignal) {
        // SAFETY: as for `push_credit`.
        unsafe {
            (*self.rev.add(t.rev_write(c))).push_control(t.rev_due, signal);
            (*self.last_due.add(c)).rev = t.rev_due;
        }
    }
}

/// An activity bitmask shared by every shard: each bit has one writer per
/// phase, but bits of different shards share words, so updates are
/// word-level atomic RMWs. `Relaxed` suffices — the barrier's two crossings
/// order them against everything outside the region.
impl Bits for &[AtomicU64] {
    #[inline]
    fn set(&mut self, i: usize) {
        self[i >> 6].fetch_or(1u64 << (i & 63), Ordering::Relaxed);
    }
    #[inline]
    fn clear(&mut self, i: usize) {
        self[i >> 6].fetch_and(!(1u64 << (i & 63)), Ordering::Relaxed);
    }
    #[inline]
    fn word(&self, wi: usize) -> u64 {
        self[wi].load(Ordering::Relaxed)
    }
}

/// Fault-plane events tagged `(channel, is_flit_event)`. The epilogue
/// stable-sorts the union by that key, which reproduces the serial
/// schedule's fault-log order (ascending channel, credits before the flit
/// within one channel's delivery).
type TaggedFaults = Vec<(u32, bool, FaultEvent)>;

impl FaultLog for &mut TaggedFaults {
    fn log(&mut self, c: usize, is_flit: bool, ev: FaultEvent) {
        self.push((c as u32, is_flit, ev));
    }
}

type ShardCx<'a, R> = Cx<'a, R, &'a [AtomicU64], RawLanes, &'a mut TaggedFaults>;

/// What the main thread publishes before each cycle: the frame, the plan
/// with its current boundaries (shard `k` owns nodes
/// `node_start[k]..node_start[k + 1]`), and the network's state as shards
/// may reach it — bases of the per-node arrays (each shard slices out its
/// own range), the wheel slabs, and the bitmasks' atomic words. Derived
/// afresh every cycle from [`Network::view`], so snapshot restores and
/// struct moves are both safe. `routers` is the base of the bank's `Vec<R>`
/// with `R` erased; `run` is [`run_shard`] compiled for that `R`.
struct Job<'a> {
    plan: &'a Plan,
    node_start: &'a [usize],
    fr: Frame<'a>,
    run: fn(&Shared, &Job<'_>, usize),
    routers: *mut (),
    nis: *mut NodeInterface,
    accounted_upto: *mut Cycle,
    modes_cache: *mut RouterMode,
    lanes: RawLanes,
    router_active: &'a [AtomicU64],
    chan_active: &'a [AtomicU64],
    ni_send_active: &'a [AtomicU64],
    ni_delivered: &'a [AtomicU64],
}

impl<'a> Job<'a> {
    /// Shard `shard`'s [`Cx`], ready for [`region`]: its node range of the
    /// per-node arrays, the shared handles, and `delta` to count into. The
    /// one place raw node-array pointers become slices; `R` is the bank's
    /// router type, which only [`run_shard`] (`run`) knows.
    fn shard_cx<R>(
        &'a self,
        shard: usize,
        delta: &'a mut ShardDelta,
        lanes: &'a mut RawLanes,
    ) -> ShardCx<'a, R> {
        let lo = self.node_start[shard];
        let len = self.node_start[shard + 1] - lo;
        // SAFETY: the job is live from the start crossing to the end
        // crossing of the cycle `Engine::run::<R>` published it for, and
        // each shard calls this for its own index, once per cycle, holding
        // its delta's lock. Node ranges of distinct shards are disjoint, so
        // these slices never overlap another thread's.
        let (routers, nis, accounted_upto, modes_cache) = unsafe {
            (
                std::slice::from_raw_parts_mut(self.routers.cast::<R>().add(lo), len),
                std::slice::from_raw_parts_mut(self.nis.add(lo), len),
                std::slice::from_raw_parts_mut(self.accounted_upto.add(lo), len),
                std::slice::from_raw_parts_mut(self.modes_cache.add(lo), len),
            )
        };
        Cx {
            fr: self.fr,
            lo,
            routers,
            nis,
            accounted_upto,
            modes_cache,
            acc: &mut delta.acc,
            scratch: &mut delta.scratch,
            fault_rng: &mut delta.fault_rng,
            router_active: self.router_active,
            chan_active: self.chan_active,
            ni_send_active: self.ni_send_active,
            ni_delivered: self.ni_delivered,
            lanes,
            fault_log: &mut delta.fault_events,
        }
    }
}

/// Everything a shard accumulates during a cycle, folded by the epilogue.
struct ShardDelta {
    acc: Accum,
    fault_events: TaggedFaults,
    scratch: RouterOutputs,
    /// Stand-in for the network's fault stream: the gate admits only
    /// deterministic plans, which never draw.
    fault_rng: SimRng,
    /// First/minimal terminal error: `(phase, component index, error)`.
    error: Option<(u8, u32, SimError)>,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl ShardDelta {
    fn new() -> ShardDelta {
        ShardDelta {
            acc: Accum::default(),
            fault_events: Vec::new(),
            scratch: RouterOutputs::new(),
            fault_rng: SimRng::seed_from(0),
            error: None,
            panic: None,
        }
    }

    fn reset(&mut self) {
        self.acc.clear();
        self.fault_events.clear();
        self.error = None;
        self.panic = None;
    }

    fn heap_bytes(&self) -> usize {
        self.acc.heap_bytes()
            + self.fault_events.capacity() * std::mem::size_of::<(u32, bool, FaultEvent)>()
            + self.scratch.heap_bytes()
    }
}

fn min_error(slot: &mut Option<(u8, u32, SimError)>, phase: u8, index: u32, err: SimError) {
    match slot {
        Some((p, i, _)) if (*p, *i) <= (phase, index) => {}
        _ => *slot = Some((phase, index, err)),
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
    job: UnsafeCell<Option<Job<'static>>>,
    /// Shard `k`'s delta: locked by shard `k` for its region and by the
    /// main thread for the fold after the end crossing, so never contended.
    deltas: Vec<CachePadded<Mutex<ShardDelta>>>,
    shutdown: AtomicBool,
}

// SAFETY: the published `Job` (its raw pointers, and its borrows whose
// `'static` is a fiction bounded by `Engine::run`) is only used between the
// two barrier crossings of the cycle it was published for, and only on
// shard-owned elements or through word atomics — see `RawLanes` and
// `Job::shard_cx`. The barrier, the deltas' mutexes and the shutdown flag
// are thread-safe on their own.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

/// Locks a shard's delta. Recovering a poisoned guard is sound because
/// every region starts by resetting its delta; and poisoning cannot happen
/// while the engine lives: a region's panic is caught before its guard
/// drops, and a panic in the fold drops the engine on its way out.
fn lock(delta: &CachePadded<Mutex<ShardDelta>>) -> MutexGuard<'_, ShardDelta> {
    delta.0.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Persistent shard plan + worker pool attached to a [`Network`].
pub(crate) struct Engine {
    plan: Plan,
    /// Current shard boundaries (`shards + 1` entries).
    node_start: Vec<usize>,
    /// Per-node weight scratch of the re-plan points.
    weights: Vec<u64>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Parallel cycles stepped by this engine instance — the deterministic
    /// clock for re-plan points.
    cycles: u64,
}

impl Engine {
    fn new(net: &Network, threads: usize) -> Engine {
        let plan = Plan::build(net);
        let mut weights = Vec::new();
        shard_weights(net, &plan, &mut weights);
        let node_start = shard_boundaries(&weights, threads);
        let shards = node_start.len() - 1;
        let shared = Arc::new(Shared {
            barrier: SpinBarrier::new(shards),
            job: UnsafeCell::new(None),
            deltas: (0..shards)
                .map(|_| CachePadded(Mutex::new(ShardDelta::new())))
                .collect(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..shards)
            .map(|shard| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("afc-sim-{shard}"))
                    .spawn(move || worker_loop(&sh, shard))
                    .expect("failed to spawn sim worker thread")
            })
            .collect();
        Engine {
            plan,
            node_start,
            weights,
            shared,
            workers,
            cycles: 0,
        }
    }

    /// Recomputes load-proportional boundaries from the current activity
    /// bitmasks. Called only from the exclusive window (workers parked, no
    /// job in flight); byte-identity is unaffected because any contiguous
    /// ascending partition produces the same output.
    fn replan(&mut self, net: &Network) {
        let shards = self.node_start.len() - 1;
        shard_weights(net, &self.plan, &mut self.weights);
        shard_boundaries_into(&self.weights, shards, &mut self.node_start);
    }

    /// Heap bytes owned by the engine: plan tables (the only O(mesh)
    /// terms, ≤ ~32 bytes per node/channel) plus the per-shard deltas.
    /// Called between cycles, when no shard holds its delta.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let plan = self.plan.events.capacity() * size_of::<(u32, bool)>()
            + self.plan.ev_off.capacity() * size_of::<u32>()
            + self.plan.node_chan_start.capacity() * size_of::<usize>()
            + self.node_start.capacity() * size_of::<usize>()
            + self.weights.capacity() * size_of::<u64>();
        let deltas = &self.shared.deltas;
        plan + deltas.iter().map(|d| lock(d).heap_bytes()).sum::<usize>()
            + deltas.capacity() * size_of::<CachePadded<Mutex<ShardDelta>>>()
    }

    /// One cycle's region and epilogue (see the module docs), on a bank of
    /// `R`.
    fn run<R: Router + 'static>(&self, net: &mut Network) -> Result<(), SimError> {
        let shared = &*self.shared;
        // The exclusive view of the whole network. Everything the shards
        // touch during the region is derived from it, and it is not used
        // again until the end crossing.
        let (mut cx, _, _) = net.view::<R>();
        let job = Job {
            plan: &self.plan,
            node_start: &self.node_start,
            fr: cx.fr,
            run: run_shard::<R>,
            routers: cx.routers.as_mut_ptr().cast(),
            nis: cx.nis.as_mut_ptr(),
            accounted_upto: cx.accounted_upto.as_mut_ptr(),
            modes_cache: cx.modes_cache.as_mut_ptr(),
            lanes: RawLanes {
                fwd: cx.lanes.fwd.as_mut_ptr(),
                rev: cx.lanes.rev.as_mut_ptr(),
                last_due: cx.lanes.last_due.as_mut_ptr(),
            },
            router_active: &cx.router_active.words,
            chan_active: &cx.chan_active.words,
            ni_send_active: &cx.ni_send_active.words,
            ni_delivered: &cx.ni_delivered.words,
        };
        // SAFETY: workers are parked at the start barrier and every prior
        // cycle's accesses ended at its end crossing, so main is the sole
        // accessor of the job cell. The lifetime extension is sound because
        // nothing reads the job after this cycle's end crossing below,
        // which happens inside the borrows it erases.
        let job = unsafe {
            let cell = &mut *shared.job.get();
            &*cell.insert(std::mem::transmute::<Job<'_>, Job<'static>>(job))
        };
        shared.barrier.wait(); // start crossing
        run_shard::<R>(shared, job, 0);
        shared.barrier.wait(); // end crossing: every shard's region is over

        // Epilogue (exclusive again): fold the deltas in ascending shard
        // order — the serial schedule's accumulation order.
        let mut d0 = lock(&shared.deltas[0]);
        let (mut error, mut panic) = (d0.error.take(), d0.panic.take());
        cx.acc.merge(&mut d0.acc);
        for delta in &shared.deltas[1..] {
            let mut d = lock(delta);
            cx.acc.merge(&mut d.acc);
            d0.fault_events.append(&mut d.fault_events);
            if let Some((p, i, e)) = d.error.take() {
                min_error(&mut error, p, i, e);
            }
            panic = panic.or_else(|| d.panic.take());
        }
        // Serial fault-log order: ascending channel, a channel's lost
        // credits before its dropped flit (one flit per channel per cycle,
        // so the key is a total order up to same-channel credits, which one
        // shard raised in order and the stable sort keeps).
        d0.fault_events.sort_by_key(|&(c, is_flit, _)| (c, is_flit));
        for (c, is_flit, ev) in d0.fault_events.drain(..) {
            cx.fault_log.log(c as usize, is_flit, ev);
        }
        drop(d0);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        if let Some((_, _, e)) = error {
            return Err(e);
        }
        // Every push of the cycle has landed: drop the activity bit of
        // links with nothing due after it (`held` is empty — the gate
        // checked).
        let (now, links) = (cx.fr.tick.now, cx.fr.ends.len());
        let Ok(()) = walk(
            &mut cx,
            0,
            links,
            |cx, wi| cx.chan_active.word(wi),
            |cx, c| {
                if cx.lanes.quiet_after(c, now) {
                    cx.chan_active.remove(c);
                }
                Ok::<(), Infallible>(())
            },
        );
        Ok(())
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
// The region: phases 1, 2a-scan, 2b and 3 over one shard
// ---------------------------------------------------------------------------

/// Runs the kernel bodies over the node range of a ready shard [`Cx`] and
/// returns the shard's minimal terminal error. The schedule's own rules
/// live here: each router pulls its incident links in ascending order;
/// after a terminal error the shard stops mutating and only keeps
/// age-checking arrivals, so that the minimal erroring link — the serial
/// walk's first — is the one reported; a shard with a phase-1 error skips
/// the later phases (any phase-3 error sorts after it).
fn region<R: Router>(mut cx: ShardCx<'_, R>, plan: &Plan) -> Option<(u8, u32, SimError)> {
    let (lo, hi, fr) = (cx.lo, cx.lo + cx.routers.len(), cx.fr);
    let mut error = None;

    for j in lo..hi {
        for &(c32, is_fwd) in &plan.events[plan.ev_off[j] as usize..plan.ev_off[j + 1] as usize] {
            let c = c32 as usize;
            if !is_fwd {
                if error.is_none() {
                    cx.deliver_reverse(c);
                }
                continue;
            }
            let Some(flit) = cx.lanes.flit_at(&fr.tick, c) else {
                continue;
            };
            let result = if error.is_none() {
                cx.deliver_flit(c, flit)
            } else if fr.faults_active && fr.faults.link_dead(c, fr.tick.now) {
                Ok(()) // eaten before the age check, as in `deliver_flit`
            } else {
                fr.check_age(fr.ends[c].to, flit)
            };
            if let Err(e) = result {
                min_error(&mut error, 1, c32, e);
            }
        }
    }

    if error.is_none() {
        if fr.config.retransmit.is_some() {
            for i in lo..hi {
                cx.check_timeouts(i);
            }
        }
        let Ok(()) = walk(
            &mut cx,
            lo,
            hi,
            |cx, wi| cx.ni_send_active.word(wi),
            |cx, i| {
                cx.inject(i);
                Ok::<(), Infallible>(())
            },
        );
        // Within-shard router order is ascending, so the first error is
        // the shard's minimal one.
        let stepped = walk(
            &mut cx,
            lo,
            hi,
            |cx, wi| cx.router_active.word(wi),
            |cx, i| cx.step_one_router(i).map_err(|e| (i, e)),
        );
        if let Err((i, e)) = stepped {
            error = Some((3, i as u32, e));
        }
    }
    error
}

// ---------------------------------------------------------------------------
// Worker loop + main-thread orchestration
// ---------------------------------------------------------------------------

/// Shard `shard`'s part of a cycle: lock and reset its delta, then run the
/// region over it. A panic is caught and rides to the fold in the delta, so
/// the shard still reaches the end crossing. `R` is the bank's router type;
/// workers reach this through `Job::run`.
fn run_shard<R: Router>(shared: &Shared, job: &Job<'_>, shard: usize) {
    let mut delta = lock(&shared.deltas[shard]);
    delta.reset();
    let mut lanes = job.lanes;
    let result = catch_unwind(AssertUnwindSafe(|| {
        region(job.shard_cx::<R>(shard, &mut delta, &mut lanes), job.plan)
    }));
    match result {
        Ok(error) => delta.error = error,
        Err(payload) => delta.panic = Some(payload),
    }
}

fn worker_loop(shared: &Shared, shard: usize) {
    loop {
        shared.barrier.wait(); // start crossing: job published (or shutdown)
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // SAFETY: the job is published before the start crossing and not
        // touched again until after the end crossing.
        let job = unsafe { (*shared.job.get()).as_ref().expect("job published") };
        (job.run)(shared, job, shard);
        shared.barrier.wait(); // end crossing
    }
}

/// The engine gate: whether this cycle runs sharded. A pure function of
/// simulation state — the thread budget, the fast path (a probabilistic
/// fault plane and the full-scan self-check are inherently serial walks),
/// no flits held back at a stalled receiver (the hold-back queues are the
/// serial schedule's), and enough active components to amortize the
/// barrier. Runs after phase 0 and queue retirement, whose marks it
/// therefore sees.
#[inline]
pub(crate) fn gate(net: &Network) -> bool {
    let threads = net.sim_threads.min(net.nis.len());
    if threads < 2 || !net.fast_path() || net.held_flits != 0 {
        return false;
    }
    let active =
        net.router_active.popcount() + net.chan_active.popcount() + net.ni_send_active.popcount();
    active >= net.par_min_active
}

/// Steps phases 1–3 of one cycle on the parallel engine over a bank of
/// `R`, building the engine (plan + worker pool) on first use. Callers
/// must have passed [`gate`].
pub(crate) fn step_sharded<R: Router + 'static>(net: &mut Network) -> Result<(), SimError> {
    let mut engine = match net.engine.take() {
        Some(engine) => engine,
        None => Engine::new(net, net.sim_threads),
    };
    engine.cycles += 1;
    if engine.cycles.is_multiple_of(REPLAN_INTERVAL) {
        engine.replan(net);
    }
    net.parallel_cycles += 1;
    let result = engine.run::<R>(net);
    net.engine = Some(engine);
    result
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
        // The shard's walk: `kernel::walk` over atomic words, masked to the
        // shard's node range.
        let bits = [0usize, 1, 5, 63, 64, 65, 127, 128, 200, 255];
        let mut words = [0u64; 4];
        for &b in &bits {
            words[b >> 6] |= 1 << (b & 63);
        }
        let words: Vec<AtomicU64> = words.into_iter().map(AtomicU64::new).collect();
        let mut atomics = &words[..];
        for (lo, hi) in [(0, 256), (1, 255), (64, 128), (63, 65), (65, 65), (5, 6)] {
            let mut got = Vec::new();
            let visit = |_: &mut _, i| {
                got.push(i);
                Ok::<(), Infallible>(())
            };
            let Ok(()) = walk(&mut atomics, lo, hi, |a, wi| a.word(wi), visit);
            let want = bits.iter().copied().filter(|&b| b >= lo && b < hi);
            assert_eq!(got, want.collect::<Vec<_>>(), "range [{lo}, {hi})");
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

    /// Random mesh sizes and shard requests, each node's weight drawn from
    /// its own regime (zero, small, heavy-tailed): the cuts still partition.
    #[test]
    fn shard_boundaries_partition_for_arbitrary_inputs() {
        use crate::rng::SimRng;
        for case in 0..40u64 {
            let mut p = SimRng::seed_from(0x5AAD + case);
            let n = 1 + p.gen_index(300);
            let shards = 1 + p.gen_index(24);
            let weights: Vec<u64> = (0..n)
                .map(|_| match p.gen_index(3) {
                    0 => 0,
                    1 => 1 + p.gen_range(8),
                    _ => p.gen_range(10_000),
                })
                .collect();
            check_partition(&shard_boundaries(&weights, shards), n, shards.min(n));
        }
    }

    /// Boundaries of `weights` cut into 4 shards, none heavier than an
    /// even share plus the largest single weight (each cut lands at or just
    /// past its even share).
    fn balanced_quarters(weights: &[u64]) -> Vec<usize> {
        let starts = shard_boundaries(weights, 4);
        check_partition(&starts, weights.len(), 4);
        let total: u64 = weights.iter().sum();
        let max = weights.iter().copied().max().unwrap_or(0);
        for k in 0..4 {
            let load: u64 = weights[starts[k]..starts[k + 1]].iter().sum();
            assert!(
                load <= total / 4 + max + 1,
                "shard {k} overloaded: {load} of {total} ({starts:?})"
            );
        }
        starts
    }

    #[test]
    fn boundaries_track_load() {
        // Heavy left half → the first shard should take fewer nodes than
        // an even split would give it.
        let mut weights = vec![1u64; 100];
        for w in weights.iter_mut().take(10) {
            *w = 100;
        }
        let starts = balanced_quarters(&weights);
        assert!(
            starts[1] <= 13,
            "first shard should hug the hot region: {starts:?}"
        );
    }

    #[test]
    fn shard_boundaries_track_skewed_load() {
        // All the load in the last quarter: an even node split would put
        // almost all of it in the last shard, so the cuts must move right.
        let weights: Vec<u64> = (0..256).map(|i| if i >= 192 { 100 } else { 1 }).collect();
        let starts = balanced_quarters(&weights);
        assert!(starts[3] > 192, "planner ignored the load skew: {starts:?}");
    }

    /// The boundary vectors (node starts, channel starts) a fresh engine
    /// would use right now for `threads`.
    fn plan_preview(net: &Network, threads: usize) -> (Vec<usize>, Vec<usize>) {
        let plan = Plan::build(net);
        let mut weights = Vec::new();
        shard_weights(net, &plan, &mut weights);
        let node_start = shard_boundaries(&weights, threads);
        let chan_start = node_start
            .iter()
            .map(|&ns| plan.node_chan_start[ns])
            .collect();
        (node_start, chan_start)
    }

    /// On live networks of any shape, thread count and load, the node plan
    /// partitions routers/NIs and the channel plan partitions channels,
    /// channel ranges following node ownership (channels are grouped by
    /// upstream node).
    #[test]
    fn live_shard_plans_partition_routers_and_channels() {
        use crate::config::NetworkConfig;
        use crate::flit::{PacketKind, VirtualNetwork};
        use crate::geom::NodeId;
        use crate::packet::PacketInput;
        use crate::rng::SimRng;
        use crate::testutil::FifoFactory;

        for case in 0..8u64 {
            let mut p = SimRng::seed_from(0x91A + case);
            let (w, h) = (2 + p.gen_index(9), 2 + p.gen_index(9));
            let threads = [1usize, 2, 3, 4, 8, 16][p.gen_index(6)];
            let rate = p.gen_f64() * 0.2;
            let cfg = NetworkConfig {
                width: w as u16,
                height: h as u16,
                ..NetworkConfig::paper_3x3()
            };
            let mut net = Network::new(cfg, &FifoFactory::default(), case).unwrap();
            let n = w * h;
            let chan_count = 2 * ((w - 1) * h + w * (h - 1));
            let k = threads.min(n);
            // Plans must partition at cold start, mid-burst, and after the
            // burst drains back to idle.
            for (phase, offering) in [true, false, false].into_iter().enumerate() {
                let (node_start, chan_start) = plan_preview(&net, threads);
                let at = format!("case {case} phase {phase}");
                check_partition(&node_start, n, k);
                assert_eq!(chan_start.len(), k + 1, "{at}");
                assert_eq!(chan_start[0], 0, "{at}");
                assert_eq!(chan_start[k], chan_count, "{at}: every channel");
                assert!(
                    chan_start.windows(2).all(|v| v[0] <= v[1]),
                    "{at}: channel ranges overlap: {chan_start:?}"
                );
                for _ in 0..120 {
                    for src in 0..n {
                        if !offering || !p.gen_bool(rate) {
                            continue;
                        }
                        let input = PacketInput {
                            dest: NodeId::new((src + 1 + p.gen_index(n - 1)) % n),
                            vnet: VirtualNetwork(0),
                            len: 1 + p.gen_index(5) as u16,
                            kind: PacketKind::Synthetic,
                            tag: 0,
                        };
                        net.offer_packet(NodeId::new(src), input);
                    }
                    net.step();
                    net.take_delivered();
                }
            }
        }
    }

    /// CPU time (user + system) of the `/proc` task directories `tasks`.
    #[cfg(target_os = "linux")]
    fn cpu_ms(tasks: &[std::path::PathBuf]) -> u64 {
        // utime + stime from `stat`, fields 14/15 (1-indexed) after the
        // parenthesised comm. USER_HZ is 100 on every supported Linux
        // configuration; the test's margins are far wider than any
        // plausible deviation.
        let ticks = |task: &std::path::PathBuf| {
            let stat = std::fs::read_to_string(task.join("stat")).unwrap();
            let rest = &stat[stat.rfind(')').unwrap() + 2..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
        };
        tasks.iter().map(ticks).sum::<u64>() * 10
    }

    /// Satellite regression: waiters parked at a barrier must not burn the
    /// host while the releaser is busy elsewhere — even when the pool is
    /// oversubscribed (threads = 4× cores). Only the waiters' own threads
    /// are metered: sibling tests share the process and may be busy.
    #[test]
    #[cfg(target_os = "linux")]
    fn parked_barrier_waiters_burn_no_cpu() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let total = 4 * cores + 1;
        let barrier = Arc::new(SpinBarrier::new(total));
        let (tx, rx) = std::sync::mpsc::channel();
        let handles: Vec<_> = (0..total - 1)
            .map(|_| {
                let (b, tx) = (Arc::clone(&barrier), tx.clone());
                std::thread::spawn(move || {
                    let task = std::fs::read_link("/proc/thread-self").unwrap();
                    tx.send(std::path::Path::new("/proc").join(task)).unwrap();
                    b.wait(); // round 1: rendezvous
                    b.wait(); // round 2: park here while main sleeps
                })
            })
            .collect();
        let waiters: Vec<_> = rx.iter().take(total - 1).collect();
        barrier.wait(); // round 1 complete; workers move to round 2
        std::thread::sleep(std::time::Duration::from_millis(100));
        let cpu0 = cpu_ms(&waiters);
        std::thread::sleep(std::time::Duration::from_millis(400));
        let cpu1 = cpu_ms(&waiters);
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
}
