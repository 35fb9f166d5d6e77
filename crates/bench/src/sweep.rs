//! Parallel deterministic sweep engine with crash-safe execution.
//!
//! Every paper artifact is a grid of *independent* simulation runs
//! (mechanism × workload × load point × seed). Each run owns a private
//! [`SimRng`](afc_netsim::rng::SimRng) seeded from its spec alone and
//! shares no mutable state with any other run, so the grid is
//! embarrassingly parallel. This module provides the one executor all
//! harness binaries use:
//!
//! - [`run_sweep`] shards a job list across a work-stealing pool of std
//!   threads (no external dependencies) and reassembles results **in spec
//!   order**, so output is bit-identical regardless of thread count.
//! - [`SweepSpec`] / [`RunSpec`] describe a grid declaratively as plain
//!   data, with a canonical serialization ([`SweepResults::serialize`])
//!   used by the determinism regression tests.
//! - A planning pass sits in front of the pool: jobs that would step the
//!   same network through the same cycles are grouped into one *unit*,
//!   simulated once, and each member's result is read off that one
//!   simulation.
//!
//! # The planning pass
//!
//! Before anything is dispatched a grid — a [`SweepSpec`] or one of the
//! [`crate::experiments`] figures, both through `run_grid` — groups its jobs
//! by *simulation key* (`Job::sim_key`): the mechanism whose network is
//! simulated ([`MechanismId::simulated_as`]; a custom ablation variant is
//! its own), the seed and the scenario. The three
//! backpressured bars of Figure 2(b) — plain, read bypass, ideal bypass —
//! are accountings of one network, so they share a key; so do exact
//! duplicate specs. One representative per unit is simulated (for the
//! backpressured class the read-bypass router, whose counters are a
//! superset of the other two's) by one call of [`afc_traffic::runner::run`],
//! and every member's result is read off its outcome: for a [`SweepSpec`]
//! the flat [`RunOutput`] — own label, own [`Mechanism::price`] of the shared
//! counters. A run nobody shares a key with is a unit of one on the same
//! path — there is no un-planned mode.
//!
//! # Crash safety
//!
//! Three layers make long sweeps survivable:
//!
//! 1. **Panic isolation** — every job runs under
//!    [`std::panic::catch_unwind`] and gets `JOB_ATTEMPTS` tries. A job
//!    that panics every time yields a structured [`JobFailure`] in its own
//!    result slot; the pool and every other job are unaffected.
//! 2. **Manifests** — [`SweepSpec::execute_resumable`] records each
//!    completed job in a manifest ([`SweepManifest`], a sealed
//!    [`afc_netsim::snapshot`] container), rewritten atomically after every
//!    completion, so an interrupted process resumes exactly the missing
//!    jobs (`--resume`).
//! 3. **Atomic artifacts** — [`write_atomic`] writes result files through
//!    the container's writer ([`snapshot::write_file_atomic`]: fsynced
//!    sibling temp file plus rename), so a crash mid-write never leaves a
//!    torn CSV.
//!
//! # Determinism contract
//!
//! 1. Workers receive disjoint job indices from an atomic cursor; which
//!    worker executes which job is racy, but results land in a slot keyed
//!    by job index, so the reassembled `Vec` is always in spec order.
//! 2. Job closures must be pure functions of `(index, job)` — they must
//!    not read or write state shared with other jobs. All simulator
//!    entropy comes from the per-run seed.
//! 3. Wall-clock timing is observed by the engine (for the per-run timing
//!    report) but never fed back into results.
//!
//! Thread count: `--threads N` ([`HarnessArgs`]), else
//! [`std::thread::available_parallelism`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use afc_energy::{EnergyModel, EnergyParams};
use afc_netsim::config::NetworkConfig;
use afc_netsim::network::Network;
use afc_netsim::router::RouterFactory;
use afc_netsim::snapshot::{self, fnv1a64, Codec, SnapshotError, SnapshotReader, SnapshotWriter};
pub use afc_traffic::runner::RunKind;
use afc_traffic::runner::{run, RunEnv, RunOutcome};

use crate::mechanisms::{Mechanism, MechanismId};

/// Explicit `--threads` override; 0 means unset.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Per-run records `(sweep, run, micros)`, drained by
/// [`write_timing_report`].
static TIMINGS: Mutex<Vec<(String, usize, u128)>> = Mutex::new(Vec::new());

/// Structured errors from the sweep engine's argument parsing, manifest
/// handling, and artifact plumbing. Binaries print these and exit nonzero
/// instead of panicking.
#[derive(Debug)]
pub enum SweepError {
    /// A malformed command-line argument.
    BadArg(String),
    /// A manifest file that exists but cannot be trusted, or does not
    /// match the sweep it is being resumed against.
    Manifest {
        /// The offending manifest file.
        path: PathBuf,
        /// What is wrong with it.
        message: String,
    },
    /// A filesystem operation failed.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::BadArg(msg) => write!(f, "{msg}"),
            SweepError::Manifest { path, message } => {
                write!(f, "manifest {}: {message}", path.display())
            }
            SweepError::Io { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Sets the worker-thread count explicitly.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn set_threads(n: usize) {
    assert!(n > 0, "thread count must be at least 1");
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// A harness binary's command line, checked against the flags it names:
/// a flag that is present must be well-formed, and nothing is ignored.
#[derive(Debug)]
pub struct HarnessArgs(Vec<String>);

impl HarnessArgs {
    /// Checks `args` (program name already skipped): each is one of
    /// `switches`, or one of `valued` (or `--threads`) followed by its value,
    /// and none is given twice.
    ///
    /// # Errors
    ///
    /// [`SweepError::BadArg`] naming the unknown argument, the flag missing
    /// its value, the flag given twice, or a `--threads` that is not a
    /// positive integer.
    pub fn parse(
        args: Vec<String>,
        switches: &[&str],
        valued: &[&str],
    ) -> Result<HarnessArgs, SweepError> {
        let mut seen = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if valued.contains(&arg.as_str()) || arg == "--threads" {
                if rest.next().is_none_or(|v| v.starts_with("--")) {
                    return Err(SweepError::BadArg(format!("{arg} requires a value")));
                }
            } else if !switches.contains(&arg.as_str()) {
                return Err(SweepError::BadArg(format!("unknown argument {arg:?}")));
            }
            if seen.contains(&arg) {
                return Err(SweepError::BadArg(format!("{arg} is given more than once")));
            }
            seen.push(arg);
        }
        let args = HarnessArgs(args);
        match args.value::<usize>("--threads") {
            Ok(Some(0)) | Err(_) => Err(SweepError::BadArg(
                "--threads requires a positive integer".to_string(),
            )),
            Ok(_) => Ok(args),
        }
    }

    /// The process's arguments through [`HarnessArgs::parse`], `--threads N`
    /// applied via [`set_threads`]; a malformed command line prints the
    /// error to stderr and exits with status 2. Call first in a binary's
    /// `main`.
    pub fn from_env_or_exit(switches: &[&str], valued: &[&str]) -> HarnessArgs {
        let parsed = HarnessArgs::parse(std::env::args().skip(1).collect(), switches, valued);
        let args = parsed.unwrap_or_else(|e| exit_with(&e));
        if let Some(n) = args.value_or_exit("--threads") {
            set_threads(n);
        }
        args
    }

    /// Whether `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.0.iter().any(|a| a == switch)
    }

    /// The value of `flag`, if given.
    ///
    /// # Errors
    ///
    /// [`SweepError::BadArg`] when it does not parse as a `T`.
    pub fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, SweepError> {
        let raw = self.0.iter().skip_while(|a| *a != flag).nth(1);
        let bad = |raw| SweepError::BadArg(format!("{flag}: cannot use {raw:?}"));
        raw.map(|raw| raw.parse().map_err(|_| bad(raw))).transpose()
    }

    /// [`HarnessArgs::value`], exiting with status 2 on a malformed value.
    pub fn value_or_exit<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).unwrap_or_else(|e| exit_with(&e))
    }
}

/// Prints `error: {e}` to stderr and exits with status 2.
fn exit_with(e: &dyn fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2)
}

/// Worker-thread count: the `--threads` override, else the machine's
/// available parallelism.
pub fn threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        explicit => explicit,
    }
}

/// Attempts per job before a panic is reported as a [`JobFailure`].
pub(crate) const JOB_ATTEMPTS: u32 = 2;

/// A job that panicked on every attempt. The pool survives; the failure
/// occupies the job's result slot instead of killing the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the failed job in the job list handed to the pool.
    pub index: usize,
    /// How many times the job was attempted.
    pub attempts: u32,
    /// The (last) panic message.
    pub message: String,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} panicked after {} attempts: {}",
            self.index, self.attempts, self.message
        )
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job under [`catch_unwind`] with bounded retry.
fn run_guarded<J, R, F>(name: &str, i: usize, job: &J, f: &F) -> Result<R, JobFailure>
where
    F: Fn(usize, &J) -> R + Sync,
{
    let mut last = String::new();
    for attempt in 1..=JOB_ATTEMPTS {
        match catch_unwind(AssertUnwindSafe(|| f(i, job))) {
            Ok(r) => return Ok(r),
            Err(payload) => {
                last = panic_message(payload);
                eprintln!(
                    "warning: sweep '{name}' job {i} panicked \
                     (attempt {attempt}/{JOB_ATTEMPTS}): {last}"
                );
            }
        }
    }
    Err(JobFailure {
        index: i,
        attempts: JOB_ATTEMPTS,
        message: last,
    })
}

/// Runs `f` over every job with [`threads`] workers and returns the
/// results in job order. See the module docs for the determinism contract.
///
/// # Panics
///
/// Panics — only after the pool has finished every other job — if a job
/// fails all its `JOB_ATTEMPTS` attempts.
pub fn run_sweep<J, R, F>(name: &str, jobs: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    let order = (0..jobs.len()).collect();
    run_scheduled(name, jobs, order, 1, &f, threads(), |_, _| {})
        .into_iter()
        .map(|r| r.unwrap_or_else(|fail| panic!("sweep '{name}': {fail}")))
        .collect()
}

/// Batch width for the grouped scheduler: large enough that a worker
/// amortizes an arena miss over several pool hits, small enough that the
/// tail of the sweep still load-balances across workers.
fn batch_size(jobs: usize, workers: usize) -> usize {
    (jobs / (workers * 4).max(1)).clamp(1, 8)
}

/// The panic-isolating scheduler core: an atomic cursor hands out
/// contiguous `batch`-sized windows of `order` (a permutation of job
/// indices), each job runs under [`catch_unwind`] with `JOB_ATTEMPTS`
/// tries — one that panics every time yields `Err(`[`JobFailure`]`)` in its
/// slot instead of killing the pool — workers report `(index, result)` over
/// a channel, and the collector writes each result into its spec-index slot:
/// output order is spec order by construction, independent of `order`,
/// `batch`, and timing. `progress` is invoked on the collector thread as
/// each job finishes (completion order, not spec order); checkpointing
/// callers use it to persist manifests incrementally.
fn run_scheduled<J, R, F, P>(
    name: &str,
    jobs: &[J],
    order: Vec<usize>,
    batch: usize,
    f: &F,
    threads: usize,
    mut progress: P,
) -> Vec<Result<R, JobFailure>>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
    P: FnMut(usize, &Result<R, JobFailure>),
{
    debug_assert_eq!(order.len(), jobs.len());
    let workers = threads.max(1).min(jobs.len());
    let mut slots: Vec<Option<Result<R, JobFailure>>> = (0..jobs.len()).map(|_| None).collect();
    let mut land = |(i, r, micros): (usize, Result<R, JobFailure>, u128)| {
        timings().push((name.to_string(), i, micros));
        progress(i, &r);
        slots[i] = Some(r);
    };
    let timed = |i: usize| {
        let start = Instant::now();
        let r = run_guarded(name, i, &jobs[i], f);
        (i, r, start.elapsed().as_micros())
    };
    if workers <= 1 {
        // The serial pass walks the grouped order too, on the calling
        // thread, so a single-threaded sweep still reuses its arena.
        order.iter().for_each(|&i| land(timed(i)));
    } else {
        let cursor = AtomicUsize::new(0);
        let batch = batch.max(1);
        let (tx, rx) = mpsc::channel();
        let (order, cursor, timed) = (&order, &cursor, &timed);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || 'steal: loop {
                    let from = cursor.fetch_add(batch, Ordering::Relaxed);
                    if from >= order.len() {
                        break;
                    }
                    let to = (from + batch).min(order.len());
                    for &i in &order[from..to] {
                        if tx.send(timed(i)).is_err() {
                            break 'steal;
                        }
                    }
                });
            }
            drop(tx);
            rx.into_iter().for_each(&mut land);
        });
    }
    slots
        .into_iter()
        .map(|r| r.expect("every job index is visited exactly once"))
        .collect()
}

/// A sweep's planning pass: its jobs grouped into *units* of equal
/// simulation key, one simulation each (see the module docs).
///
/// Grouping is a pure function of the keys: units are ordered by their
/// first member and members ascend, so nothing downstream depends on
/// hashing or timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Plan {
    /// The units: each the job indices that share one simulation.
    units: Vec<Vec<usize>>,
}

impl Plan {
    /// Plans jobs `0..n` from their simulation keys, in job order.
    pub(crate) fn by_key<K: Eq + Hash>(keys: impl IntoIterator<Item = K>) -> Plan {
        let mut unit_of: HashMap<K, usize> = HashMap::new();
        let mut units: Vec<Vec<usize>> = Vec::new();
        for (job, key) in keys.into_iter().enumerate() {
            let unit = *unit_of.entry(key).or_insert(units.len());
            if unit == units.len() {
                units.push(Vec::new());
            }
            units[unit].push(job);
        }
        Plan { units }
    }
}

/// Runs a [`Plan`] on the pool: `f(members)` simulates a unit once
/// and returns one result per member, in member order; the results come
/// back one per *job*, in job order. Units are what the pool schedules,
/// times (one row of the timing report per unit — per simulated network)
/// and isolates: a unit that panics on every attempt yields a
/// [`JobFailure`] for each of its members. `progress` sees each unit as it
/// completes.
///
/// Workers take contiguous batches of a stable permutation sorted by
/// `group` (an arena-compatibility key), so they tend to see
/// arena-compatible units back to back and reset their pooled [`Network`]
/// instead of rebuilding it. The traversal is a pure function of the keys,
/// never of worker timing, and output is byte-identical to the ungrouped
/// order at any worker count.
pub(crate) fn run_planned<R, F, K, P>(
    name: &str,
    plan: &Plan,
    group: K,
    f: &F,
    threads: usize,
    mut progress: P,
) -> Vec<Result<R, JobFailure>>
where
    R: Send,
    F: Fn(&[usize]) -> Vec<R> + Sync,
    K: Fn(&[usize]) -> u64,
    P: FnMut(&[usize], &Result<Vec<R>, JobFailure>),
{
    let units = &plan.units;
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&unit| group(&units[unit]));
    let workers = threads.max(1).min(units.len().max(1));
    let per_unit = run_scheduled(
        name,
        units,
        order,
        batch_size(units.len(), workers),
        &|_, members: &Vec<usize>| {
            let results = f(members);
            assert_eq!(results.len(), members.len(), "one result per member");
            results
        },
        threads,
        |unit, result| progress(&units[unit], result),
    );
    let jobs = units.iter().map(Vec::len).sum();
    let mut slots: Vec<Option<Result<R, JobFailure>>> = (0..jobs).map(|_| None).collect();
    for (members, result) in units.iter().zip(per_unit) {
        let mut results = result.map(Vec::into_iter);
        for &job in members {
            slots[job] = Some(match &mut results {
                Ok(results) => Ok(results.next().expect("one result per member")),
                Err(fail) => Err(JobFailure {
                    index: job,
                    ..fail.clone()
                }),
            });
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every job belongs to exactly one unit"))
        .collect()
}

/// Locks the timing registry, recovering from a poisoned lock: a panicking
/// sweep job may cost its own timing record, never the whole report.
fn timings() -> std::sync::MutexGuard<'static, Vec<(String, usize, u128)>> {
    TIMINGS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Atomically replaces `path` with `contents` through the container's
/// writer, [`snapshot::write_file_atomic`]: a sibling temp file, fsynced,
/// renamed over the target — so a crash mid-write leaves either the old
/// artifact or the new one, never a torn file. Parent directories are
/// created as needed.
///
/// # Errors
///
/// [`SweepError::Io`] naming the target path.
pub fn write_atomic(path: &Path, contents: &[u8]) -> Result<(), SweepError> {
    snapshot::write_file_atomic(path, contents).map_err(|e| {
        let message = match e {
            // The step that failed may be on the temp file: name it.
            SnapshotError::Io { path: at, message } => format!("{at}: {message}"),
            other => other.to_string(),
        };
        SweepError::Io {
            path: path.to_path_buf(),
            source: std::io::Error::other(message),
        }
    })
}

/// Writes (and drains) the per-run timing report accumulated by every
/// sweep since the last call to `results/timing/<binary>.tsv`, atomically
/// replacing the previous run's: one row per simulated network, and a
/// `total` row.
///
/// Wall-clock values are inherently nondeterministic, which is why they
/// live outside the experiment's own `results/` artifacts: byte-identity
/// across thread counts is promised for sweep *results*, not timings.
///
/// # Errors
///
/// [`SweepError::Io`] from creating or writing the report.
pub fn write_timing_report(binary: &str) -> Result<PathBuf, SweepError> {
    let path = Path::new("results/timing").join(format!("{binary}.tsv"));
    let records = std::mem::take(&mut *timings());
    let total_ms = records.iter().map(|r| r.2).sum::<u128>() as f64 / 1_000.0;
    let mut out = String::new();
    out.push_str("# per-run wall-clock; nondeterministic by nature, not part of the\n");
    out.push_str("# byte-identical sweep results\n");
    out.push_str(&format!("# binary\t{binary}\n# threads\t{}\n", threads()));
    out.push_str("sweep\trun\tmillis\n");
    for (sweep, run, micros) in &records {
        let millis = *micros as f64 / 1_000.0;
        out.push_str(&format!("{sweep}\t{run}\t{millis:.3}\n"));
    }
    out.push_str(&format!("total\t{}\t{total_ms:.3}\n", records.len()));
    write_atomic(&path, out.as_bytes())?;
    Ok(path)
}

// ---------------------------------------------------------------------------
// Simulation arenas
// ---------------------------------------------------------------------------

// Per-worker simulation arena: each sweep worker thread keeps its most
// recently used `Network` here and offers it to the next job. When the
// next job has the same mechanism and configuration (which the grouped
// scheduler arranges), `Network::reset_from_config` reinitializes it in
// place — no allocation, no construction — and the run is byte-identical
// to one on a freshly built network. Worker threads are scoped to one
// sweep, so arenas are reclaimed when the sweep ends.
thread_local! {
    static SIM_POOL: RefCell<Option<Network>> = const { RefCell::new(None) };
}

/// Arena jobs whose pooled network matched the incoming job (reset path).
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
/// Arena jobs that found no compatible pooled network (fresh construction).
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);

/// Takes this worker's pooled network if [`Network::arena_compatible`]
/// — the judge [`Network::reset_from_config`] itself uses — accepts it for
/// the requested factory and configuration. An incompatible arena is
/// dropped (the completed job's network replaces it), so a
/// worker holds at most one network at a time; a worker with no arena yet
/// counts as a miss.
fn pool_take(factory: &dyn RouterFactory, cfg: &NetworkConfig) -> Option<Network> {
    let net = SIM_POOL
        .with(|p| p.borrow_mut().take())
        .filter(|net| net.arena_compatible(cfg, factory));
    let outcome = if net.is_some() {
        &POOL_HITS
    } else {
        &POOL_MISSES
    };
    outcome.fetch_add(1, Ordering::Relaxed);
    net
}

/// Drops this worker's pooled arena (tests use it to force cold starts).
pub fn pool_clear() {
    SIM_POOL.with(|p| *p.borrow_mut() = None);
}

/// Cumulative `(arena hits, arena misses, 0, 0)` across all sweeps in this
/// process. A hit means the job reset a pooled network in place, a miss
/// that it constructed one. The last two fields, once the warm-start
/// cache's hits and misses, stay until ROADMAP item 7 drops afc-perf's
/// probe of them.
pub fn pool_stats() -> (u64, u64, u64, u64) {
    (
        POOL_HITS.load(Ordering::Relaxed),
        POOL_MISSES.load(Ordering::Relaxed),
        0,
        0,
    )
}

/// What is left of the warm-start cache: afc-perf clears it and reads its
/// usage, so it stays, holding nothing, until ROADMAP item 7 drops that
/// probe. Every run simulates its own warm-up.
pub struct WarmCache;

impl WarmCache {
    /// `(entries, bytes)` held: always `(0, 0)`.
    pub fn usage(&self) -> (usize, usize) {
        (0, 0)
    }

    /// Does nothing: there is nothing to forget.
    pub fn clear(&self) {}
}

/// The inert [`WarmCache`]; see there.
pub fn warm_cache() -> &'static WarmCache {
    &WarmCache
}

/// One simulation run, described as plain data. Workers rebuild the router
/// factory from the [`MechanismId`], so specs are freely `Clone` + `Send`.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Which router mechanism to run.
    pub mechanism: MechanismId,
    /// The run's private RNG seed.
    pub seed: u64,
    /// The scenario.
    pub kind: RunKind,
}

/// A short deterministic label: `mechanism/scenario@seed`.
fn run_label(mechanism: &str, kind: &RunKind, seed: u64) -> String {
    let scenario = match kind {
        RunKind::ClosedLoop { workload, .. } => workload.name.to_string(),
        RunKind::OpenLoop { rate, .. } => format!("open@{rate:.3}"),
        RunKind::Fault {
            rate, drop_rate, ..
        } => format!("fault@{rate:.3}/{drop_rate:e}"),
    };
    format!("{mechanism}/{scenario}@{seed}")
}

impl RunSpec {
    /// A short deterministic label: `mechanism/scenario@seed`.
    pub fn label(&self) -> String {
        run_label(self.mechanism.label(), &self.kind, self.seed)
    }

    /// The run as a grid job of `mechanism` (this spec's, built).
    fn job<'a>(&self, mechanism: &'a Mechanism) -> Job<'a> {
        Job {
            mechanism,
            seed: self.seed,
            kind: self.kind.clone(),
        }
    }

    /// Executes the run against `net_cfg` and reduces it to the flat
    /// deterministic metrics of [`RunOutput`], using this worker's pooled
    /// arena. A pooled run is byte-identical to a fresh one, so results do
    /// not depend on pool state.
    ///
    /// This is a sweep of one: the run goes through the same
    /// derive-from-representative path as a unit of a planned sweep.
    ///
    /// # Panics
    ///
    /// With [`afc_traffic::runner::RunError`]'s text on an invalid
    /// configuration or a blown closed-loop cycle budget (inside a sweep
    /// the pool catches the unwind and reports a [`JobFailure`]).
    pub fn execute(&self, net_cfg: &NetworkConfig) -> RunOutput {
        self.execute_tuned(net_cfg, true)
    }

    /// [`RunSpec::execute`] with an explicit arena-pool switch: the fresh
    /// path the tests and `sweep_throughput` hold the pooled one to.
    pub fn execute_tuned(&self, net_cfg: &NetworkConfig, pool: bool) -> RunOutput {
        let mechanism = self.mechanism.mechanism();
        let job = self.job(&mechanism);
        execute_unit(net_cfg, &job, pool, |out| flat_output(&job, out))
    }

    /// Executes the run on its own mechanism's network — no representative
    /// or arena: the reference the planner's derived outputs are
    /// checked against (the determinism and one-engine walls).
    pub fn execute_alone(&self, net_cfg: &NetworkConfig) -> RunOutput {
        self.job(&self.mechanism.mechanism()).execute_alone(net_cfg)
    }
}

/// One cell of a planned grid: a mechanism — standard or a custom ablation
/// variant — a seed and a scenario.
pub(crate) struct Job<'a> {
    pub(crate) mechanism: &'a Mechanism,
    pub(crate) seed: u64,
    pub(crate) kind: RunKind,
}

impl Job<'_> {
    /// Simulation key: two jobs with equal keys (under one grid-level
    /// `net_cfg`) step identical networks through identical cycles — same
    /// simulated mechanism, seed and scenario ([`RunKind::identity`] plus
    /// the measure length: its whole `Debug`) — so the planning pass
    /// simulates them once. A custom variant shares only with itself.
    fn sim_key(&self) -> (Option<MechanismId>, usize, u64, String) {
        let (class, own) = match self.mechanism.id {
            Some(id) => (Some(id.simulated_as()), 0),
            None => (None, std::ptr::from_ref(self.mechanism) as usize),
        };
        (class, own, self.seed, format!("{:?}", self.kind))
    }

    /// Arena-compatibility group key: two jobs with the same key (and the
    /// same grid-level `net_cfg`) build identical networks, so one can
    /// reuse the other's pooled arena via [`Network::reset_from_config`].
    /// The simulated mechanism always discriminates (a custom variant by
    /// its factory's build key); fault runs additionally fold in the
    /// fault-plan parameters they patch into the configuration.
    fn arena_group(&self) -> u64 {
        let detail = match &self.kind {
            RunKind::Fault {
                drop_rate,
                corrupt_rate,
                ..
            } => format!("fault|{drop_rate:?}|{corrupt_rate:?}"),
            RunKind::ClosedLoop { .. } | RunKind::OpenLoop { .. } => String::new(),
        };
        let simulated = match self.mechanism.id {
            Some(id) => id.simulated_as().label().to_string(),
            None => self.mechanism.factory.build_key(),
        };
        fnv1a64(format!("{simulated}|{detail}").as_bytes())
    }

    /// [`run`]s the scenario on `factory`'s network (this worker's pooled
    /// arena when `pool`), panicking with a `RunError`'s text.
    fn simulate(
        &self,
        net_cfg: &NetworkConfig,
        factory: &dyn RouterFactory,
        pool: bool,
    ) -> RunOutcome {
        let arena = pool
            .then(|| pool_take(factory, &self.kind.network_config(net_cfg)))
            .flatten();
        let env = RunEnv {
            arena,
            ..RunEnv::default()
        };
        run(&self.kind, factory, net_cfg, self.seed, env).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`RunSpec::execute_alone`], for any mechanism.
    fn execute_alone(&self, net_cfg: &NetworkConfig) -> RunOutput {
        let factory = self.mechanism.factory.as_ref();
        flat_output(self, &self.simulate(net_cfg, factory, false))
    }
}

/// One unit of a [`Plan`]: simulates the network `first` — its first member
/// — is simulated as, once, under its seed and scenario (every member's, by
/// their [`Job::sim_key`]); `read` takes the results off the one outcome.
fn execute_unit<V>(
    net_cfg: &NetworkConfig,
    first: &Job<'_>,
    pool: bool,
    read: impl FnOnce(&RunOutcome) -> V,
) -> V {
    // A custom variant stands for itself.
    let class = first.mechanism.id.map(|id| id.simulated_as().mechanism());
    let factory = class.as_ref().unwrap_or(first.mechanism).factory.as_ref();
    let out = first.simulate(net_cfg, factory, pool);
    let value = read(&out);
    if pool {
        SIM_POOL.with(|p| *p.borrow_mut() = Some(out.network));
    }
    value
}

/// The flat [`RunOutput`] of `job`, read off `out` — the outcome of its own
/// network or of its representative's: own label, the one set of counters
/// priced under the job's own [`Mechanism::price`].
fn flat_output(job: &Job<'_>, out: &RunOutcome) -> RunOutput {
    let stats = &out.stats;
    let fault = matches!(job.kind, RunKind::Fault { .. });
    let model = EnergyModel::new(EnergyParams::micro2010_70nm());
    let (injection_rate, throughput) = if fault {
        (0.0, 0.0)
    } else {
        let nodes = out.network.mesh().node_count();
        (out.injection_rate(), stats.throughput(nodes))
    };
    RunOutput {
        label: run_label(job.mechanism.label, &job.kind, job.seed),
        cycles: out.measured_cycles,
        packets_delivered: stats.packets_delivered,
        flits_delivered: stats.flits_delivered,
        injection_rate,
        throughput,
        mean_latency: stats.network_latency.mean(),
        energy_pj: job.mechanism.price(&model, &out.network).total(),
        backpressured_fraction: stats.backpressured_fraction(),
        mean_deflections: stats.flit_deflections.mean().unwrap_or(0.0),
        delivered_fraction: if stats.packets_offered == 0 {
            1.0
        } else {
            stats.packets_delivered as f64 / stats.packets_offered as f64
        },
        outcome: match &out.error {
            Some(e) => format!("error: {e}"),
            None if !fault => "ok".to_string(),
            None if out.drained => "drained".to_string(),
            None => "drain budget exhausted".to_string(),
        },
    }
}

/// How a grid executes; none of it changes a result.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tuning {
    pub(crate) threads: usize,
    pub(crate) pool: bool,
}

/// The one planner/executor: plans `jobs` by [`Job::sim_key`], simulates
/// each unit once on the pool and returns `reduce(job, index, outcome)` per
/// job, in job order. `progress` sees each completed unit: its members'
/// indices and their results.
pub(crate) fn run_grid<R, D, P>(
    name: &str,
    net_cfg: &NetworkConfig,
    jobs: &[Job<'_>],
    tuning: Tuning,
    reduce: D,
    mut progress: P,
) -> Vec<Result<R, JobFailure>>
where
    R: Send,
    D: Fn(&Job<'_>, usize, &RunOutcome) -> R + Sync,
    P: FnMut(&[usize], &[R]),
{
    let plan = Plan::by_key(jobs.iter().map(Job::sim_key));
    run_planned(
        name,
        &plan,
        |members| jobs[members[0]].arena_group(),
        &|members: &[usize]| {
            execute_unit(net_cfg, &jobs[members[0]], tuning.pool, |out| {
                members.iter().map(|&m| reduce(&jobs[m], m, out)).collect()
            })
        },
        tuning.threads,
        |members, result| {
            if let Ok(results) = result {
                progress(members, results);
            }
        },
    )
}

/// A declarative grid of independent runs over one network configuration.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (used in timing reports and error messages).
    pub name: String,
    /// Network configuration shared by every run.
    pub net_cfg: NetworkConfig,
    /// The runs, in output order.
    pub runs: Vec<RunSpec>,
}

impl SweepSpec {
    /// A stable fingerprint of the full sweep definition (name, network
    /// configuration, and every run spec), used by manifests to refuse
    /// resuming against a different sweep.
    pub fn fingerprint(&self) -> u64 {
        let mut text = String::new();
        text.push_str(&self.name);
        text.push('\n');
        text.push_str(&format!("{:?}\n", self.net_cfg));
        for run in &self.runs {
            text.push_str(&format!("{run:?}\n"));
        }
        fnv1a64(text.as_bytes())
    }

    /// Executes with an explicit worker count. A run that panics on every
    /// attempt becomes a zeroed [`RunOutput`] whose `outcome` records the
    /// failure; the other runs are unaffected.
    pub fn execute_with_threads(&self, threads: usize) -> SweepResults {
        self.execute_with_threads_tuned(threads, true)
    }

    /// [`SweepSpec::execute_with_threads`] with an explicit arena-pool
    /// switch; the `sweep_throughput` benchmark uses this to time fresh and
    /// pooled execution of identical sweeps within one process.
    pub fn execute_with_threads_tuned(&self, threads: usize, pool: bool) -> SweepResults {
        let jobs: Vec<usize> = (0..self.runs.len()).collect();
        let tuning = Tuning { threads, pool };
        let outputs = self.run_jobs(&jobs, tuning, |_, _| {});
        SweepResults { outputs }
    }

    /// Plans and runs `jobs` (indices into `self.runs`) on [`run_grid`]: one
    /// flat output per job, in `jobs` order (a job that failed every attempt:
    /// zeroed, the failure in `outcome`). `progress` sees each completed
    /// unit: its members' spec indices and their outputs.
    fn run_jobs<P>(&self, jobs: &[usize], tuning: Tuning, mut progress: P) -> Vec<RunOutput>
    where
        P: FnMut(&[usize], &[RunOutput]),
    {
        let runs = jobs.iter().map(|&i| &self.runs[i]);
        let mechanisms: Vec<Mechanism> = runs.clone().map(|r| r.mechanism.mechanism()).collect();
        let grid = runs.clone().zip(&mechanisms).map(|(r, m)| r.job(m));
        let grid: Vec<Job<'_>> = grid.collect();
        let results = run_grid(
            &self.name,
            &self.net_cfg,
            &grid,
            tuning,
            |job, _, out| flat_output(job, out),
            |members, outputs| {
                let indices: Vec<usize> = members.iter().map(|&job| jobs[job]).collect();
                progress(&indices, outputs);
            },
        );
        let failed = |run: &RunSpec, fail: JobFailure| RunOutput {
            label: run.label(),
            outcome: format!("panic after {} attempts: {}", fail.attempts, fail.message),
            ..RunOutput::default()
        };
        runs.zip(results)
            .map(|(run, r)| r.unwrap_or_else(|fail| failed(run, fail)))
            .collect()
    }

    /// Executes the sweep with crash-safe checkpointing: every completed
    /// job is recorded in the manifest at `manifest_path`, rewritten
    /// atomically on each completion. With `resume`, an existing manifest
    /// is loaded first — after verifying its sweep name, fingerprint, and
    /// job count — and only the missing jobs run.
    ///
    /// Jobs that panic on every attempt are reported in their output's
    /// `outcome` field and are **not** recorded in the manifest, so a
    /// later resume retries exactly the failed and missing jobs.
    ///
    /// # Errors
    ///
    /// [`SweepError::Manifest`] for a corrupt or mismatched manifest,
    /// [`SweepError::Io`] for filesystem failures.
    pub fn execute_resumable(
        &self,
        manifest_path: &Path,
        resume: bool,
    ) -> Result<SweepResults, SweepError> {
        let mut manifest = SweepManifest::new(self);
        let mut outputs: Vec<Option<RunOutput>> = vec![None; self.runs.len()];
        if resume && manifest_path.exists() {
            let prior = SweepManifest::load(manifest_path)?;
            let mismatch = |message: String| SweepError::Manifest {
                path: manifest_path.to_path_buf(),
                message,
            };
            if prior.sweep != self.name {
                return Err(mismatch(format!(
                    "belongs to sweep {:?}, not {:?}",
                    prior.sweep, self.name
                )));
            }
            if prior.fingerprint != self.fingerprint() || prior.total != self.runs.len() {
                return Err(mismatch(
                    "sweep definition changed since the manifest was written \
                     (fingerprint mismatch); delete the manifest or rerun \
                     without --resume"
                        .to_string(),
                ));
            }
            for (i, output) in &prior.jobs {
                outputs[*i] = Some(output.clone());
            }
            manifest = prior;
        }

        let missing: Vec<usize> = (0..self.runs.len())
            .filter(|&i| outputs[i].is_none())
            .collect();
        let mut save_err: Option<SweepError> = None;
        let tuning = Tuning {
            threads: threads(),
            pool: true,
        };
        let results = self.run_jobs(&missing, tuning, |indices, outputs| {
            for (&i, output) in indices.iter().zip(outputs) {
                manifest.record(i, output);
            }
            if let Err(e) = manifest.save(manifest_path) {
                save_err.get_or_insert(e);
            }
        });
        if let Some(e) = save_err {
            return Err(e);
        }

        for (&i, output) in missing.iter().zip(results) {
            outputs[i] = Some(output);
        }
        let outputs = outputs.into_iter().map(|o| o.expect("recorded or run"));
        Ok(SweepResults {
            outputs: outputs.collect(),
        })
    }
}

/// Tag opening a manifest's payload, as [`afc_traffic::runner`]'s
/// checkpoint tag opens a checkpoint's: the container says the bytes are
/// intact, the tag says what they are.
const MANIFEST_TAG: &str = "afc-sweep-manifest-v2";

/// Crash-safe record of which sweep jobs have completed, persisted after
/// every completion (`results/open_loop.manifest` by convention) so an
/// interrupted sweep resumes exactly the missing jobs.
///
/// The file is a sealed [`snapshot`] container written by [`write_atomic`];
/// [`SweepManifest::load`] refuses one that fails the container's checks
/// (magic, version, length, checksum) or its own, naming the file.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepManifest {
    /// Name of the sweep the manifest belongs to.
    pub sweep: String,
    /// [`SweepSpec::fingerprint`] of the sweep definition.
    pub fingerprint: u64,
    /// Total job count in the sweep.
    pub total: usize,
    /// Completed jobs as `(spec index, output)`, sorted by index.
    pub jobs: Vec<(usize, RunOutput)>,
}

impl SweepManifest {
    /// An empty manifest for `spec`.
    pub fn new(spec: &SweepSpec) -> SweepManifest {
        SweepManifest {
            sweep: spec.name.clone(),
            fingerprint: spec.fingerprint(),
            total: spec.runs.len(),
            jobs: Vec::new(),
        }
    }

    /// Records a completed job, keeping the list sorted by index.
    pub fn record(&mut self, index: usize, output: &RunOutput) {
        match self.jobs.binary_search_by_key(&index, |(i, _)| *i) {
            Ok(pos) => self.jobs[pos].1 = output.clone(),
            Err(pos) => self.jobs.insert(pos, (index, output.clone())),
        }
    }

    /// Seals the manifest and writes it atomically.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] naming the manifest path.
    pub fn save(&self, path: &Path) -> Result<(), SweepError> {
        let mut w = SnapshotWriter::new();
        w.put_str(MANIFEST_TAG);
        self.sweep.put(&mut w);
        (self.fingerprint, self.total).put(&mut w);
        self.jobs.put(&mut w);
        write_atomic(path, &snapshot::seal(w))
    }

    /// Loads and verifies a manifest written by [`SweepManifest::save`].
    ///
    /// # Errors
    ///
    /// [`SweepError::Manifest`] — always naming the file — if it cannot be
    /// read, fails a container check, is some other container, or lists a
    /// job index out of range, twice or out of order.
    pub fn load(path: &Path) -> Result<SweepManifest, SweepError> {
        let bad = |message: String| SweepError::Manifest {
            path: path.to_path_buf(),
            message,
        };
        let corrupt = |e: SnapshotError| bad(e.to_string());
        let bytes = snapshot::read_file(path).map_err(corrupt)?;
        let mut r = snapshot::open(&bytes, &path.display().to_string()).map_err(corrupt)?;
        let tag = r.get_str("manifest tag").map_err(corrupt)?;
        if tag != MANIFEST_TAG {
            return Err(bad(format!("holds {tag:?}, not {MANIFEST_TAG:?}")));
        }
        let manifest = SweepManifest::read(r).map_err(corrupt)?;
        if let Some(w) = manifest.jobs.windows(2).find(|w| w[0].0 >= w[1].0) {
            let i = w[1].0;
            return Err(bad(format!("job index {i} repeated or out of order")));
        }
        if let Some((i, _)) = manifest.jobs.last().filter(|(i, _)| *i >= manifest.total) {
            let total = manifest.total;
            return Err(bad(format!("job index {i} out of range (total {total})")));
        }
        Ok(manifest)
    }

    /// Decodes the payload after its tag, to its last byte.
    fn read(mut r: SnapshotReader<'_>) -> Result<SweepManifest, SnapshotError> {
        let manifest = SweepManifest {
            sweep: Codec::get(&mut r)?,
            fingerprint: Codec::get(&mut r)?,
            total: Codec::get(&mut r)?,
            jobs: Codec::get(&mut r)?,
        };
        r.finish("sweep manifest")?;
        Ok(manifest)
    }
}

/// Flat deterministic metrics of one run. Every field is a pure function
/// of the spec; see [`RunOutput::serialize`] for the canonical encoding.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutput {
    /// The spec's label.
    pub label: String,
    /// Measured (closed/open loop) or total (fault) cycles.
    pub cycles: u64,
    /// Packets delivered in the window.
    pub packets_delivered: u64,
    /// Flits delivered in the window.
    pub flits_delivered: u64,
    /// Measured injection rate, flits/node/cycle (0 for fault runs).
    pub injection_rate: f64,
    /// Accepted throughput, flits/node/cycle (0 for fault runs).
    pub throughput: f64,
    /// Mean packet network latency, if anything was delivered.
    pub mean_latency: Option<f64>,
    /// Total priced network energy (pJ).
    pub energy_pj: f64,
    /// Fraction of router-cycles spent backpressured.
    pub backpressured_fraction: f64,
    /// Mean deflections per delivered flit.
    pub mean_deflections: f64,
    /// Delivered / offered packets.
    pub delivered_fraction: f64,
    /// Terminal status ("ok", "drained", or an error description).
    pub outcome: String,
}

impl RunOutput {
    /// Canonical tab-separated encoding. Floats use Rust's shortest
    /// round-trip formatting, so equal bytes ⇔ equal bits.
    pub fn serialize(&self) -> String {
        let lat = match self.mean_latency {
            Some(l) => format!("{l:?}"),
            None => "-".to_string(),
        };
        format!(
            "{}\t{}\t{}\t{}\t{:?}\t{:?}\t{}\t{:?}\t{:?}\t{:?}\t{:?}\t{}",
            self.label,
            self.cycles,
            self.packets_delivered,
            self.flits_delivered,
            self.injection_rate,
            self.throughput,
            lat,
            self.energy_pj,
            self.backpressured_fraction,
            self.mean_deflections,
            self.delivered_fraction,
            self.outcome,
        )
    }
}

/// Every field as a typed value — floats as their bits — for a manifest.
impl Codec for RunOutput {
    fn put(&self, w: &mut SnapshotWriter) {
        self.label.put(w);
        (self.cycles, self.packets_delivered, self.flits_delivered).put(w);
        (self.injection_rate, self.throughput).put(w);
        (self.mean_latency, self.energy_pj).put(w);
        (self.backpressured_fraction, self.mean_deflections).put(w);
        self.delivered_fraction.put(w);
        self.outcome.put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.label.load(r)?;
        (self.cycles, self.packets_delivered, self.flits_delivered) = Codec::get(r)?;
        (self.injection_rate, self.throughput) = Codec::get(r)?;
        (self.mean_latency, self.energy_pj) = Codec::get(r)?;
        (self.backpressured_fraction, self.mean_deflections) = Codec::get(r)?;
        self.delivered_fraction.load(r)?;
        self.outcome.load(r)
    }
}

/// Results of a [`SweepSpec`], in spec order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResults {
    /// One output per run, in spec order.
    pub outputs: Vec<RunOutput>,
}

impl SweepResults {
    /// Canonical serialization: header plus one [`RunOutput::serialize`]
    /// line per run. Byte-identical across thread counts.
    pub fn serialize(&self) -> String {
        let mut out = String::from(
            "label\tcycles\tpackets\tflits\tinj_rate\tthroughput\tmean_lat\t\
             energy_pj\tbp_frac\tmean_defl\tdelivered\toutcome\n",
        );
        for o in &self.outputs {
            out.push_str(&o.serialize());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_traffic::openloop::PacketMix;
    use afc_traffic::synthetic::Pattern;

    /// The scheduler core in spec order, one job per batch, no progress
    /// hook: what `run_sweep` runs, with the worker count explicit and
    /// failures returned instead of raised.
    fn pool<J: Sync, R: Send>(
        name: &str,
        jobs: &[J],
        f: impl Fn(usize, &J) -> R + Sync,
        workers: usize,
    ) -> Vec<Result<R, JobFailure>> {
        let order = (0..jobs.len()).collect();
        run_scheduled(name, jobs, order, 1, &f, workers, |_, _| {})
    }

    #[test]
    fn sweep_preserves_spec_order_at_any_worker_count() {
        let jobs: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got: Vec<u64> = pool("order", &jobs, |_, &j| j * j, workers)
                .into_iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(got, expect, "worker count {workers}");
        }
    }

    #[test]
    fn sweep_handles_empty_and_singleton_job_lists() {
        let empty: Vec<u64> = Vec::new();
        assert!(pool("empty", &empty, |_, &j| j, 8).is_empty());
        assert_eq!(pool("one", &[7u64], |_, &j| j + 1, 8), vec![Ok(8)]);
    }

    #[test]
    fn panicking_job_is_isolated_and_retried() {
        let jobs: Vec<u64> = (0..8).collect();
        for workers in [1, 4] {
            let results = pool(
                "isolated",
                &jobs,
                |_, &j| {
                    if j == 3 {
                        panic!("job three always explodes");
                    }
                    j * 10
                },
                workers,
            );
            for (i, r) in results.iter().enumerate() {
                if i == 3 {
                    let fail = r.as_ref().unwrap_err();
                    assert_eq!(fail.index, 3);
                    assert_eq!(fail.attempts, JOB_ATTEMPTS);
                    assert!(
                        fail.message.contains("job three always explodes"),
                        "message: {}",
                        fail.message
                    );
                } else {
                    assert_eq!(
                        *r.as_ref().unwrap(),
                        i as u64 * 10,
                        "workers={workers} job {i} must survive a sibling panic"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_groups_equal_keys_in_first_member_order() {
        let plan = Plan::by_key(["b", "a", "b", "c", "a", "b"]);
        assert_eq!(plan.units, [vec![0, 2, 5], vec![1, 4], vec![3]]);
        assert!(Plan::by_key(Vec::<u8>::new()).units.is_empty());
    }

    #[test]
    fn planned_results_land_per_job_and_a_failed_unit_fails_every_member() {
        let plan = Plan::by_key([0, 1, 0, 2, 1]);
        for workers in [1, 3] {
            let mut seen = Vec::new();
            let results = run_planned(
                "planned",
                &plan,
                |_| 0,
                &|members: &[usize]| {
                    if members[0] == 1 {
                        panic!("unit one always explodes");
                    }
                    members.iter().map(|&job| job * 10).collect()
                },
                workers,
                |members, result| seen.push((members.to_vec(), result.is_ok())),
            );
            for (job, r) in results.iter().enumerate() {
                if job == 1 || job == 4 {
                    let fail = r.as_ref().unwrap_err();
                    assert_eq!(fail.index, job, "each member reports its own index");
                    assert_eq!(fail.attempts, JOB_ATTEMPTS);
                    assert!(fail.message.contains("unit one"), "{}", fail.message);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), job * 10, "workers={workers}");
                }
            }
            seen.sort();
            assert_eq!(
                seen,
                [(vec![0, 2], true), (vec![1, 4], false), (vec![3], true)]
            );
        }
    }

    #[test]
    fn transient_panic_succeeds_on_retry() {
        use std::sync::atomic::AtomicU32;
        let attempts = AtomicU32::new(0);
        let jobs = [1u64, 2, 3];
        let results = pool(
            "retry",
            &jobs,
            |_, &j| {
                if j == 2 && attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient");
                }
                j
            },
            1,
        );
        assert_eq!(results[1].as_ref().unwrap(), &2, "retry must recover");
        assert!(results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn progress_hook_sees_every_completion() {
        let jobs: Vec<u64> = (0..12).collect();
        let mut seen = Vec::new();
        let order = (0..jobs.len()).collect();
        let results = run_scheduled("progress", &jobs, order, 1, &|_, &j| j, 4, |i, r| {
            assert!(r.is_ok());
            seen.push(i);
        });
        assert_eq!(results.len(), 12);
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn harness_args_are_parsed_strictly() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let parse =
            |s: &str| HarnessArgs::parse(argv(s), &["--quick", "--csv"], &["--seed", "--svg"]);
        let args = parse("--quick --seed 7 --threads 3 --svg out").unwrap();
        assert!(args.has("--quick") && !args.has("--csv"));
        assert_eq!(args.value::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(
            args.value::<String>("--svg").unwrap().as_deref(),
            Some("out")
        );
        assert_eq!(args.value::<u64>("--replicate").unwrap(), None);
        assert_eq!(args.value("--threads").unwrap(), Some(3usize));
        assert!(parse("").unwrap().value::<u64>("--seed").unwrap().is_none());
        // A typo is not a full-size run; a flag without its value is not dropped.
        for (bad, names) in [
            ("--quik", "--quik"),
            ("--quick extra", "extra"),
            ("--svg", "--svg"),
            ("--svg --quick", "--svg"),
            ("--seed", "--seed"),
            ("--threads", "--threads"),
            // A repeated flag is not "the first one wins".
            ("--quick --quick", "--quick"),
            ("--seed 1 --seed 2", "--seed"),
            ("--threads 1 --threads 0", "--threads"),
        ] {
            let err = parse(bad).expect_err(bad).to_string();
            assert!(err.contains(names), "{bad}: {err}");
        }
        // Present means well-formed: `--seed x` is not seed 1.
        let err = parse("--seed x")
            .unwrap()
            .value::<u64>("--seed")
            .unwrap_err();
        assert!(matches!(err, SweepError::BadArg(_)), "{err:?}");
        assert!(err.to_string().contains("--seed") && err.to_string().contains("\"x\""));
    }

    #[test]
    fn threads_value_parsing() {
        let threads = |s: &str| {
            let argv = s.split_whitespace().map(String::from).collect();
            HarnessArgs::parse(argv, &["--quick"], &[]).and_then(|args| args.value("--threads"))
        };
        assert_eq!(threads("--quick").unwrap(), None);
        assert_eq!(threads("--threads 3").unwrap(), Some(3));
        assert!(threads("--threads").is_err());
        assert!(threads("--threads zero").is_err());
        assert!(threads("--threads 0").is_err());
        let err = threads("--threads -2").unwrap_err();
        assert!(err.to_string().contains("positive integer"), "{err}");
    }

    #[test]
    fn write_atomic_replaces_and_creates_dirs() {
        let dir = std::env::temp_dir().join(format!("afc-sweep-atomic-{}", std::process::id()));
        let path = dir.join("nested").join("out.csv");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!path.with_file_name("out.csv.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_output(label: &str, latency: Option<f64>, outcome: &str) -> RunOutput {
        RunOutput {
            label: label.into(),
            cycles: 10_000,
            packets_delivered: 1234,
            flits_delivered: 9876,
            injection_rate: 0.1500000000000001,
            throughput: 0.2,
            mean_latency: latency,
            energy_pj: 1234.5678,
            backpressured_fraction: 0.25,
            mean_deflections: 0.0,
            delivered_fraction: 1.0,
            outcome: outcome.into(),
        }
    }

    #[test]
    fn run_output_serialization_is_exact() {
        let a = sample_output("x", Some(31.5), "ok");
        let mut b = a.clone();
        assert_eq!(a.serialize(), b.serialize());
        // One ULP of difference must change the encoding.
        b.throughput = f64::from_bits(b.throughput.to_bits() + 1);
        assert_ne!(a.serialize(), b.serialize());
    }

    #[test]
    fn run_output_round_trips_bit_for_bit() {
        let mut odd = sample_output("drop/water@3", Some(-0.0), "drain budget exhausted");
        odd.throughput = f64::from_bits(f64::NAN.to_bits() | 1);
        for out in [
            sample_output("afc/open@0.150@7", Some(31.5), "ok"),
            sample_output(
                "bless/fault@0.1/5e-4@1",
                None,
                "error: stall\tat \"(1,1)\"\n",
            ),
            odd,
        ] {
            let mut w = SnapshotWriter::new();
            out.put(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapshotReader::new(&bytes);
            let back = RunOutput::get(&mut r).unwrap();
            r.finish("one output").unwrap();
            assert_eq!(back.serialize(), out.serialize());
            assert_eq!(back.throughput.to_bits(), out.throughput.to_bits());
            let bits = |o: &RunOutput| o.mean_latency.map(f64::to_bits);
            assert_eq!(bits(&back), bits(&out));
        }
    }

    fn tiny_spec(seed: u64) -> SweepSpec {
        let runs = [0.05, 0.10, 0.15]
            .iter()
            .map(|&rate| RunSpec {
                mechanism: MechanismId::Afc,
                seed,
                kind: RunKind::OpenLoop {
                    rate,
                    pattern: Pattern::UniformRandom,
                    mix: PacketMix::single_flit(),
                    warmup_cycles: 50,
                    measure_cycles: 100,
                },
            })
            .collect();
        SweepSpec {
            name: "tiny".to_string(),
            net_cfg: NetworkConfig::paper_3x3(),
            runs,
        }
    }

    /// A manifest whose payload is well sealed but breaks a rule of its own
    /// is refused by that rule, naming the file.
    #[test]
    fn manifest_refuses_bad_indices_and_foreign_containers() {
        let dir = std::env::temp_dir().join(format!("afc-manifest-{}", std::process::id()));
        let path = dir.join("tiny.manifest");
        let mut manifest = SweepManifest::new(&tiny_spec(5));
        let out = sample_output("afc/open@0.150@5", Some(9.5), "ok");
        for (jobs, refusal) in [
            (
                vec![(1, out.clone()), (1, out.clone())],
                "job index 1 repeated",
            ),
            (
                vec![(2, out.clone()), (0, out.clone())],
                "job index 0 repeated",
            ),
            (
                vec![(0, out.clone()), (3, out.clone())],
                "job index 3 out of range",
            ),
        ] {
            manifest.jobs = jobs;
            manifest.save(&path).unwrap();
            let err = SweepManifest::load(&path).unwrap_err().to_string();
            assert!(
                err.contains(refusal) && err.contains("tiny.manifest"),
                "{err}"
            );
        }
        let mut w = SnapshotWriter::new();
        w.put_str("afc-run-checkpoint-v2");
        write_atomic(&path, &snapshot::seal(w)).unwrap();
        let err = SweepManifest::load(&path).unwrap_err().to_string();
        assert!(err.contains("afc-run-checkpoint-v2"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resumable_execution_completes_missing_jobs_only() {
        let spec = tiny_spec(9);
        let dir = std::env::temp_dir().join(format!("afc-resume-{}", std::process::id()));
        let path = dir.join("tiny.manifest");
        set_threads(2);

        // Uninterrupted reference.
        let reference = spec.execute_with_threads(1).serialize();

        // Fresh resumable run: same bytes, manifest fully populated.
        let results = spec.execute_resumable(&path, false).unwrap();
        assert_eq!(results.serialize(), reference);
        let full = SweepManifest::load(&path).unwrap();
        assert_eq!(full.jobs.len(), spec.runs.len());

        // Simulate an interruption: keep only job 1 in the manifest, then
        // resume. The final bytes must match the uninterrupted reference.
        let mut partial = SweepManifest::new(&spec);
        partial.record(1, &full.jobs[1].1);
        partial.save(&path).unwrap();
        let resumed = spec.execute_resumable(&path, true).unwrap();
        assert_eq!(resumed.serialize(), reference);

        // A manifest from a different sweep definition is refused.
        let other = tiny_spec(10);
        let err = other.execute_resumable(&path, true).unwrap_err();
        assert!(
            err.to_string().contains("fingerprint"),
            "expected fingerprint mismatch: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
