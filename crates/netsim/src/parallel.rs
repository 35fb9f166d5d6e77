//! The sharded schedule: a deterministic intra-run parallel cycle engine
//! (DESIGN.md §12 has the cycle and the byte-identity argument in full).
//! The phase bodies are [`crate::kernel`]'s — the code the serial engine
//! runs; this file only decides who visits what on which thread, and folds
//! the per-thread counts.
//!
//! The mesh is cut into `T` contiguous **shards** — a node range with its
//! routers, NIs and per-node bookkeeping, and the link lanes those routers
//! drive — at load-proportional boundaries, re-planned every
//! [`REPLAN_INTERVAL`] parallel cycles. Each cycle the main thread takes the
//! serial schedule's view of the network ([`Network::view`]) and cuts its
//! node range at the shard boundaries ([`Nodes::split_front`], which cuts
//! the lanes too); each worker's piece and delta go into its slot of the
//! persistent pool ([`publish`]), and then every thread crosses one
//! [`SpinBarrier`] twice:
//!
//! * **Region** (between the crossings, on a persistent `std::thread`
//!   pool): each shard builds a [`Cx`] from its piece and its delta and
//!   runs phase 1 for the links incident on its routers whose arrival bit
//!   is set, the NI timeout scan, the injection walk and the router walk.
//!   All shards read the wheel's read stripes and their masks; each writes
//!   only its own lanes' write slots, and sets their bits in the write
//!   stripes' masks atomically (words are shared across shard
//!   boundaries), so phase 1 fuses with phase 3.
//! * **Epilogue** (main thread, after the end crossing — exclusive again):
//!   the deltas fold in ascending shard order — each [`Accum`] merges into
//!   the network's totals, the tagged fault events are sorted into the
//!   serial log order, the minimal error and the first panic are kept —
//!   and the read stripes' masks are zeroed, as the serial schedule does
//!   after its phase 1 ([`clear_arrivals`]); nothing is walked.
//!
//! [`clear_arrivals`]: crate::channel::Lanes::clear_arrivals
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

use crate::error::SimError;
use crate::faults::FaultEvent;
use crate::kernel::{walk, Accum, Bits, Cx, FaultLog, Frame, Nodes};
use crate::network::Network;
use crate::rng::SimRng;
use crate::router::{Router, RouterOutputs};
use std::any::Any;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The gate's floor: active components (routers + busy links + sending NIs)
/// below which a cycle runs serially. Calibrated on the committed
/// `results/BENCH_parallel.json` rows (EXPERIMENTS.md, "The engine gate"):
/// forced sharding loses at every budget on an 8×8 (≤ 290 active at
/// saturation) and no better than breaks even on a 16×16 (≤ 1 130 at
/// saturation, 1 472 components in all), and wins from 24×24 at 0.10
/// (≥ 1 680) and 32×32 at 0.08 (≥ 3 150) up, at 2–8 threads alike — so the
/// floor sits between, just above what a 16×16 can ever reach.
pub(crate) const MIN_ACTIVE: usize = 1536;

/// The most threads a network steps on: the engine spawns one OS thread
/// per shard beyond the caller's, so the budget is bounded far below what
/// a host could be asked to spawn, and well above the 2–8 threads where
/// sharding was measured to pay (EXPERIMENTS.md, "The engine gate").
pub const MAX_SIM_THREADS: usize = 64;

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

/// The boundary-independent table of an engine, built once — re-planning
/// only recomputes the small boundary vector (`Engine::node_start`).
struct Plan {
    /// Flattened per-router phase-1 pull lists: `(channel, is_fwd)` pairs,
    /// ascending channel index. `is_fwd` = the router is the channel's
    /// downstream end (receives the flit); otherwise it is the upstream
    /// end (receives credits/control).
    events: Vec<(u32, bool)>,
    ev_off: Vec<u32>,
}

impl Plan {
    fn build(net: &Network) -> Plan {
        let n = net.nis.len();
        let mut per: Vec<Vec<(u32, bool)>> = vec![Vec::new(); n];
        for (c, e) in net.ends.iter().enumerate() {
            per[e.from.index()].push((c as u32, false));
            per[e.to.index()].push((c as u32, true));
        }
        let mut events = Vec::with_capacity(2 * net.ends.len());
        let mut ev_off = vec![0u32; n + 1];
        for (j, mut list) in per.into_iter().enumerate() {
            list.sort_unstable_by_key(|&(c, _)| c);
            events.extend_from_slice(&list);
            ev_off[j + 1] = events.len() as u32;
        }
        Plan { events, ev_off }
    }
}

/// Splits `weights.len()` nodes into `shards` contiguous non-empty ranges
/// whose weight sums are as even as a greedy left-to-right cut allows,
/// writing the `shards + 1` boundary vector (`[0, …, n]`, strictly
/// increasing) into `starts` (a re-plan point allocates nothing). Pure and
/// deterministic: same inputs, same cuts — the engine's re-plan points
/// feed it bitmask-derived weights, so plans are a function of simulation
/// state only, never of wall-clock timing.
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

/// Per-node load weights derived from the activity bitmasks and the busy
/// links: an active router dominates (it pays the pipeline step), a
/// sending NI and each busy outgoing link add smaller shares, and every
/// node keeps a floor of 1 so idle stretches still split evenly.
fn shard_weights(net: &Network, weights: &mut Vec<u64>) {
    weights.clear();
    weights.extend((0..net.nis.len()).map(|j| {
        let mut wt = 1u64;
        if net.router_active.contains(j) {
            wt += 4;
        }
        if net.ni_send_active.contains(j) {
            wt += 2;
        }
        for c in net.out_chan[j].iter() {
            if net.wheel.busy(c) {
                wt += 1;
            }
        }
        wt
    }));
}

// ---------------------------------------------------------------------------
// Per-cycle shard views, per-shard delta
// ---------------------------------------------------------------------------

/// One shard's cycle: what every shard reads (the frame, the plan, the
/// activity bitmasks' atomic words) and its own node range.
struct Job<'a, R> {
    fr: Frame<'a>,
    plan: &'a Plan,
    router_active: &'a [AtomicU64],
    ni_send_active: &'a [AtomicU64],
    ni_delivered: &'a [AtomicU64],
    nodes: Nodes<'a, R, &'a [AtomicU64]>,
}

/// A worker's job and delta for the cycle in flight; empty between cycles.
type Slot<R> = CachePadded<Mutex<Option<(Job<'static, R>, &'static mut ShardDelta)>>>;

/// Puts a worker's job and delta for this cycle into its slot of the
/// persistent pool, whose type cannot name the cycle's borrows.
#[allow(unsafe_code)]
fn publish<'a, R: Router>(slot: &Slot<R>, job: Job<'a, R>, delta: &'a mut ShardDelta) {
    // SAFETY: only the lifetime changes. `Engine::run` publishes before
    // the start crossing, inside its borrows of the network and the deltas,
    // and waits at the end crossing before they end. In between, the
    // slot's worker — and nothing else — takes the pair out and drops it
    // before it reaches the end crossing (`worker_loop`). So nothing
    // published outlives the real lifetime.
    let work = unsafe {
        std::mem::transmute::<
            (Job<'a, R>, &'a mut ShardDelta),
            (Job<'static, R>, &'static mut ShardDelta),
        >((job, delta))
    };
    *lock(slot) = Some(work);
}

/// Locks a job slot. Recovering a poisoned guard is sound because a slot
/// holds nothing between cycles, and no code that can panic runs under
/// the lock.
fn lock<T>(m: &CachePadded<Mutex<T>>) -> MutexGuard<'_, T> {
    m.0.lock().unwrap_or_else(PoisonError::into_inner)
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

/// Everything a shard accumulates during a cycle. The epilogue's fold
/// takes all of it, leaving the delta empty for the next cycle.
struct ShardDelta {
    acc: Accum,
    fault_events: TaggedFaults,
    scratch: RouterOutputs,
    /// Stand-in for the network's fault stream: the gate admits only
    /// deterministic plans, which never draw.
    fault_rng: SimRng,
    /// First/minimal terminal error: `(phase, component index, error)`.
    error: Option<(u8, u32, SimError)>,
    panic: Option<Box<dyn Any + Send>>,
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
    shutdown: AtomicBool,
    /// The workers' job slots, by shard: a `Vec<Slot<R>>` for the bank's
    /// router type `R` (shard 0 is the main thread's and leaves its slot
    /// empty).
    jobs: Box<dyn Any + Send + Sync>,
}

/// Persistent shard plan + worker pool attached to a [`Network`].
pub(crate) struct Engine {
    plan: Plan,
    /// Current shard boundaries (`shards + 1` entries).
    node_start: Vec<usize>,
    /// Per-node weight scratch of the re-plan points.
    weights: Vec<u64>,
    /// Shard `k`'s delta, lent to shard `k` for each region.
    deltas: Vec<CachePadded<ShardDelta>>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// An engine for a bank of `R`: its workers are compiled for it.
    fn new<R: Router + 'static>(net: &Network, threads: usize) -> Engine {
        let shards = threads.min(net.nis.len());
        let slots: Vec<Slot<R>> = (0..shards).map(|_| CachePadded(Mutex::new(None))).collect();
        let shared = Arc::new(Shared {
            barrier: SpinBarrier::new(shards),
            shutdown: AtomicBool::new(false),
            jobs: Box::new(slots),
        });
        let workers = (1..shards)
            .map(|shard| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("afc-sim-{shard}"))
                    .spawn(move || worker_loop::<R>(&sh, shard))
                    .expect("failed to spawn sim worker thread")
            })
            .collect();
        let mut engine = Engine {
            plan: Plan::build(net),
            node_start: vec![0; shards + 1],
            weights: Vec::new(),
            deltas: (0..shards)
                .map(|_| CachePadded(ShardDelta::new()))
                .collect(),
            shared,
            workers,
        };
        engine.replan(net);
        engine
    }

    /// Recomputes load-proportional boundaries from the current activity
    /// bitmasks. Called only from the exclusive window (workers parked, no
    /// job in flight); byte-identity is unaffected because any contiguous
    /// ascending partition produces the same output.
    fn replan(&mut self, net: &Network) {
        let shards = self.node_start.len() - 1;
        shard_weights(net, &mut self.weights);
        shard_boundaries_into(&self.weights, shards, &mut self.node_start);
    }

    /// Heap bytes owned by the engine: plan tables (the only O(mesh)
    /// terms, ≤ ~16 bytes per node/channel) plus the per-shard deltas.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let plan = self.plan.events.capacity() * size_of::<(u32, bool)>()
            + self.plan.ev_off.capacity() * size_of::<u32>()
            + self.node_start.capacity() * size_of::<usize>()
            + self.weights.capacity() * size_of::<u64>();
        let deltas = self.deltas.iter().map(|d| d.0.heap_bytes()).sum::<usize>();
        plan + deltas + self.deltas.capacity() * size_of::<CachePadded<ShardDelta>>()
    }

    /// One cycle's region and epilogue (see the module docs), on a bank of
    /// `R`.
    fn run<R: Router + 'static>(&mut self, net: &mut Network) -> Result<(), SimError> {
        let shared = &*self.shared;
        let slots: &Vec<Slot<R>> = shared.jobs.downcast_ref().expect("built for this bank");
        {
            // The exclusive view of the whole network, its words shared and
            // cut into one piece per shard: workers' pieces go to their
            // slots, shard 0's stays.
            let cx = net.view::<R>();
            let (fr, plan) = (cx.fr, &self.plan);
            let router_active: &[AtomicU64] = cx.router_active;
            let ni_send_active: &[AtomicU64] = cx.ni_send_active;
            let ni_delivered: &[AtomicU64] = cx.ni_delivered;
            let job = |nodes| Job {
                fr,
                plan,
                router_active,
                ni_send_active,
                ni_delivered,
                nodes,
            };
            let mut rest = cx.own.share();
            let mine = rest.split_front(self.node_start[1]);
            let (own, others) = self.deltas.split_first_mut().expect("one shard at least");
            for ((slot, &end), delta) in slots[1..].iter().zip(&self.node_start[2..]).zip(others) {
                publish(slot, job(rest.split_front(end)), &mut delta.0);
            }
            shared.barrier.wait(); // start crossing
            run_shard(job(mine), &mut own.0);
            shared.barrier.wait(); // end crossing: every shard's region is over
        }

        // Epilogue (exclusive again): fold the deltas in ascending shard
        // order — the serial schedule's accumulation order.
        let mut cx = net.view::<R>();
        let (d0, rest) = self.deltas.split_first_mut().expect("one shard at least");
        let d0 = &mut d0.0;
        let (mut error, mut panic) = (d0.error.take(), d0.panic.take());
        cx.acc.merge(&mut d0.acc);
        for CachePadded(d) in rest {
            cx.acc.merge(&mut d.acc);
            d0.fault_events.append(&mut d.fault_events);
            if let Some((p, i, e)) = d.error.take() {
                min_error(&mut error, p, i, e);
            }
            let p = d.panic.take();
            panic = panic.or(p);
        }
        // Serial fault-log order: ascending channel, a channel's lost
        // credits before its dropped flit (one flit per channel per cycle,
        // so the key is a total order up to same-channel credits, which one
        // shard raised in order and the stable sort keeps).
        d0.fault_events.sort_by_key(|&(c, is_flit, _)| (c, is_flit));
        for (c, is_flit, ev) in d0.fault_events.drain(..) {
            cx.fault_log.log(c as usize, is_flit, ev);
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        if let Some((_, _, e)) = error {
            return Err(e);
        }
        cx.own.lanes.clear_arrivals();
        Ok(())
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Workers are parked at the start barrier between cycles; one
        // crossing releases them to observe the shutdown flag and exit.
        self.shared.shutdown.store(true, Ordering::Release);
        if !self.workers.is_empty() {
            self.shared.barrier.wait();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The region: phases 1, 2a-scan, 2b and 3 over one shard
// ---------------------------------------------------------------------------

/// Runs the kernel bodies over a shard's job, counting into `delta`, and
/// returns the shard's minimal terminal error. The schedule's own rules
/// live here: each router pulls its incident links in ascending order;
/// after a terminal error the shard stops mutating and only keeps
/// age-checking arrivals, so that the minimal erroring link — the serial
/// walk's first — is the one reported; a shard with a phase-1 error skips
/// the later phases (any phase-3 error sorts after it).
fn region<R: Router>(job: Job<'_, R>, delta: &mut ShardDelta) -> Option<(u8, u32, SimError)> {
    let Job {
        fr, plan, nodes, ..
    } = job;
    let (lo, hi) = (nodes.lo, nodes.lo + nodes.routers.len());
    let mut cx = Cx {
        fr,
        own: nodes,
        acc: &mut delta.acc,
        scratch: &mut delta.scratch,
        fault_rng: &mut delta.fault_rng,
        router_active: job.router_active,
        ni_send_active: job.ni_send_active,
        ni_delivered: job.ni_delivered,
        fault_log: &mut delta.fault_events,
    };
    let mut error = None;

    for j in lo..hi {
        for &(c32, is_fwd) in &plan.events[plan.ev_off[j] as usize..plan.ev_off[j + 1] as usize] {
            let c = c32 as usize;
            debug_assert!(
                cx.own.lanes.masks_match_stamps(c),
                "link {c}: arrival masks disagree with the stamps"
            );
            if !is_fwd {
                if error.is_none() && cx.own.lanes.has_rev(c) {
                    cx.deliver_reverse(c);
                }
                continue;
            }
            let Some(flit) = cx
                .own
                .lanes
                .has_fwd(c)
                .then(|| cx.own.lanes.flit_at(c))
                .flatten()
            else {
                continue;
            };
            let result = if error.is_none() {
                cx.deliver_flit(c, flit)
            } else if fr.faults_active && fr.faults.link_dead(c, fr.now) {
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

/// One shard's part of a cycle: run the region into its delta, which the
/// last fold left empty. A panic is caught and rides to the fold in the
/// delta, so the shard still reaches the end crossing; either way the job
/// is gone by then.
fn run_shard<R: Router>(job: Job<'_, R>, delta: &mut ShardDelta) {
    match catch_unwind(AssertUnwindSafe(|| region(job, delta))) {
        Ok(error) => delta.error = error,
        Err(payload) => delta.panic = Some(payload),
    }
}

fn worker_loop<R: Router + 'static>(shared: &Shared, shard: usize) {
    let slots: &Vec<Slot<R>> = shared.jobs.downcast_ref().expect("built for this bank");
    loop {
        shared.barrier.wait(); // start crossing: work published, or shutdown
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let (job, delta) = lock(&slots[shard]).take().expect("work published");
        run_shard(job, delta);
        shared.barrier.wait(); // end crossing
    }
}

/// The engine gate: whether this cycle runs sharded. A pure function of
/// simulation state — the thread budget, a deterministic fault plan
/// (shards own no fault RNG), and enough active components to amortize the
/// barrier. Runs after phase 0 and queue retirement, whose marks it
/// therefore sees.
#[inline]
pub(crate) fn gate(net: &Network) -> bool {
    let threads = net.sim_threads.min(net.nis.len());
    if threads < 2 || !net.config.faults.is_deterministic() {
        return false;
    }
    let active =
        net.router_active.popcount() + net.wheel.busy_links() + net.ni_send_active.popcount();
    active >= net.par_min_active
}

/// Steps phases 1–3 of one cycle on the parallel engine over a bank of
/// `R`, building the engine (plan + worker pool) on first use. Callers
/// must have passed [`gate`]. Re-plan points fall on the network's
/// parallel-cycle clock.
pub(crate) fn step_sharded<R: Router + 'static>(net: &mut Network) -> Result<(), SimError> {
    let mut engine = match net.engine.take() {
        Some(engine) if engine.shared.jobs.is::<Vec<Slot<R>>>() => engine,
        _ => Engine::new::<R>(net, net.sim_threads),
    };
    net.parallel_cycles += 1;
    if net.parallel_cycles.is_multiple_of(REPLAN_INTERVAL) {
        engine.replan(net);
    }
    let result = engine.run::<R>(net);
    net.engine = Some(engine);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_boundaries(weights: &[u64], shards: usize) -> Vec<usize> {
        let mut starts = Vec::new();
        shard_boundaries_into(weights, shards, &mut starts);
        starts
    }

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
        let mut weights = Vec::new();
        shard_weights(net, &mut weights);
        let node_start = shard_boundaries(&weights, threads);
        let chan_start = (node_start.iter())
            .map(|&ns| net.ends.partition_point(|e| e.from.index() < ns))
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
