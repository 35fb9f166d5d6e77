//! End-to-end run orchestration: one protocol, written once.
//!
//! Every result is *build a network → warm it up → zero the counters →
//! measure a window → capture*. [`run`] holds the only copy, for a scenario
//! described as data ([`RunKind`]); a crash-safe [`CheckpointPolicy`]
//! protects a run without changing a byte of it. Checkpoints are keyed by
//! [`RunKind::identity`], so none can be mistaken for another scenario's.
//! [`run_closed_loop`], [`run_open_loop`] and [`run_fault_scenario`] are
//! the same protocol with general traffic arguments, no checkpoints, and
//! a panic where [`run`] returns [`RunError::Budget`].

use std::borrow::Cow;
use std::fmt;
use std::num::NonZeroU64;
use std::path::Path;

use afc_netsim::config::{NetworkConfig, RetransmitConfig};
use afc_netsim::counters::ActivityCounters;
use afc_netsim::error::{ConfigError, SimError};
use afc_netsim::faults::FaultPlan;
use afc_netsim::network::Network;
use afc_netsim::router::RouterFactory;
use afc_netsim::sim::{Simulation, TrafficModel};
use afc_netsim::snapshot::{self, Codec, SnapshotError, SnapshotWriter};
use afc_netsim::stats::NetworkStats;

use crate::closedloop::{ClosedLoopTraffic, WorkloadParams};
use crate::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use crate::synthetic::Pattern;

/// Everything a pricing/reporting layer needs from a finished run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The network in its final state (counters and stats cover the
    /// measurement window only).
    pub network: Network,
    /// Cycles in the measurement window (a fault scenario: every cycle
    /// simulated, injection plus drain).
    pub measured_cycles: u64,
    /// Snapshot of network statistics over the measurement window.
    pub stats: NetworkStats,
    /// Aggregated router activity over the measurement window.
    pub counters: ActivityCounters,
    /// Fault scenarios: [`FaultRunOutcome::error`] (other runs panic).
    pub error: Option<SimError>,
    /// Fault scenarios: [`FaultRunOutcome::drained`].
    pub drained: bool,
}

impl RunOutcome {
    fn capture(network: Network, measured_cycles: u64) -> RunOutcome {
        RunOutcome {
            measured_cycles,
            stats: network.stats().clone(),
            counters: network.total_counters(),
            network,
            error: None,
            drained: false,
        }
    }

    /// Measured injection rate in flits/node/cycle.
    pub fn injection_rate(&self) -> f64 {
        self.stats.injection_rate(self.network.mesh().node_count())
    }

    /// Mean packet network latency over the measurement window.
    pub fn mean_latency(&self) -> Option<f64> {
        self.stats.network_latency.mean()
    }
}

/// A scenario, as plain data: what [`run`] executes and a sweep spec lists.
#[derive(Debug, Clone)]
pub enum RunKind {
    /// Closed-loop workload run.
    ClosedLoop {
        /// Workload preset.
        workload: WorkloadParams,
        /// Transactions to complete before measurement starts.
        warmup_txns: u64,
        /// Transactions measured.
        measure_txns: u64,
        /// Abort budget.
        max_cycles: u64,
    },
    /// Open-loop synthetic-traffic run.
    OpenLoop {
        /// Offered rate, flits/node/cycle.
        rate: f64,
        /// Traffic pattern.
        pattern: Pattern,
        /// Packet-length mix.
        mix: PacketMix,
        /// Warmup cycles.
        warmup_cycles: u64,
        /// Measured cycles.
        measure_cycles: u64,
    },
    /// Fault-injection inject-then-drain run.
    Fault {
        /// Offered rate, flits/node/cycle.
        rate: f64,
        /// Per-flit-hop drop probability.
        drop_rate: f64,
        /// Per-flit-hop corruption probability.
        corrupt_rate: f64,
        /// Cycles of live injection.
        inject_cycles: u64,
        /// Drain budget after sources stop.
        drain_cycles: u64,
    },
}

impl RunKind {
    /// The scenario's identity: the `Debug` of everything that determines
    /// the post-warm-up state — the scenario with its measure length and
    /// abort budget zeroed, so a field added later is covered by default.
    /// Read by the checkpoint header; the sweep planner's simulation key is
    /// the same `Debug` with both left in.
    pub fn identity(&self) -> String {
        let mut scenario = self.clone();
        match &mut scenario {
            RunKind::ClosedLoop {
                measure_txns: measure,
                max_cycles,
                ..
            } => (*measure, *max_cycles) = (0, 0),
            RunKind::OpenLoop { measure_cycles, .. } => *measure_cycles = 0,
            RunKind::Fault { .. } => {}
        }
        format!("{scenario:?}")
    }

    /// The configuration the scenario's network is built from: `base`,
    /// with a fault scenario's fault plan and retransmit config patched in.
    pub fn network_config<'a>(&self, base: &'a NetworkConfig) -> Cow<'a, NetworkConfig> {
        let RunKind::Fault {
            drop_rate,
            corrupt_rate,
            ..
        } = *self
        else {
            return Cow::Borrowed(base);
        };
        Cow::Owned(NetworkConfig {
            faults: FaultPlan::uniform_transient(drop_rate, corrupt_rate),
            retransmit: Some(RetransmitConfig::default()),
            ..base.clone()
        })
    }
}

/// Mid-run checkpoints for [`run`]: harness phase plus full simulation
/// snapshot, sealed into one checksummed container.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointPolicy<'a> {
    /// Cycles between periodic checkpoints; 0 disables them. When `file`
    /// is set, a checkpoint is still written at the warmup/measurement
    /// boundary, so a resume never redoes warmup.
    pub every: u64,
    /// Where checkpoints are written (atomically, temp file + fsync +
    /// rename).
    pub file: Option<&'a Path>,
    /// An existing checkpoint to resume from before running.
    pub resume_from: Option<&'a Path>,
}

/// Errors from [`run`].
#[derive(Debug)]
pub enum RunError {
    /// Invalid network configuration.
    Config(ConfigError),
    /// Snapshot serialization, checkpoint validation, or checkpoint-file
    /// I/O failure.
    Snapshot(SnapshotError),
    /// A phase exceeded the cycle budget (a saturated or deadlocked
    /// configuration). The last periodic checkpoint survives, so the run
    /// can still be resumed with a larger budget.
    Budget {
        /// Which phase ran out ("warmup" or "measurement").
        phase: &'static str,
        /// The exhausted budget.
        max_cycles: u64,
        /// The workload that did not finish.
        workload: &'static str,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => e.fmt(f),
            RunError::Snapshot(e) => e.fmt(f),
            RunError::Budget {
                phase,
                max_cycles,
                workload,
            } => write!(
                f,
                "{phase} did not finish within {max_cycles} cycles ({workload})"
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            RunError::Snapshot(e) => Some(e),
            RunError::Budget { .. } => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

impl From<SnapshotError> for RunError {
    fn from(e: SnapshotError) -> Self {
        RunError::Snapshot(e)
    }
}

/// A traffic model the protocol can run to a transaction count and name in
/// an error (open-loop models have no such count: they run to a cycle).
trait Steer: TrafficModel {
    fn aim(&mut self, _txns: u64) {}
    fn name(&self) -> &'static str {
        "open loop"
    }
}

impl Steer for OpenLoopTraffic {}

impl Steer for ClosedLoopTraffic {
    fn aim(&mut self, txns: u64) {
        self.set_target(txns);
    }
    fn name(&self) -> &'static str {
        self.params().name
    }
}

/// Where a phase ends: once the model has completed `at` transactions,
/// within `budget` cycles — or, with no budget, at absolute cycle `at` (so a
/// resumed run ends where the uninterrupted one does).
#[derive(Clone, Copy)]
struct Goal {
    at: u64,
    budget: Option<u64>,
}

impl Goal {
    fn cycle(at: u64) -> Goal {
        Goal { at, budget: None }
    }
}

/// Tag identifying the payload of a run checkpoint container.
const CHECKPOINT_TAG: &str = "afc-run-checkpoint-v2";

/// A checkpoint's invocation: identity, seed, the measure [`Goal::at`].
struct CheckpointHeader<'a>(&'a str, u64, u64);

impl CheckpointHeader<'_> {
    /// Seals header, measurement-window origin (`None` = still warming up)
    /// and simulation snapshot into one checkpoint file.
    fn write<T: TrafficModel>(
        &self,
        path: &Path,
        sim: &Simulation<T>,
        start: Option<u64>,
    ) -> Result<(), SnapshotError> {
        let CheckpointHeader(identity, seed, measure_to) = *self;
        let mut w = SnapshotWriter::new();
        w.put_str(CHECKPOINT_TAG);
        w.put_str(identity);
        (seed, measure_to, start).put(&mut w);
        w.put_blob(&sim.snapshot()?);
        snapshot::write_file_atomic(path, &snapshot::seal(w))
    }

    /// Loads a checkpoint into `sim` after validating it belongs to this
    /// exact invocation. Returns the measurement-window origin.
    fn load<T: TrafficModel>(
        &self,
        path: &Path,
        sim: &mut Simulation<T>,
    ) -> Result<Option<u64>, SnapshotError> {
        let bytes = snapshot::read_file(path)?;
        let origin = path.display().to_string();
        let mut r = snapshot::open(&bytes, &origin)?;
        let expect = |what: &'static str, snapshot: String, current: &dyn fmt::Display| {
            let current = current.to_string();
            if snapshot == current {
                return Ok(());
            }
            Err(SnapshotError::ContextMismatch {
                what,
                snapshot,
                current,
            })
        };
        let tag = r.get_str("checkpoint tag")?;
        expect("checkpoint format", tag, &CHECKPOINT_TAG)?;
        let CheckpointHeader(identity, seed, measure_to) = self;
        expect("scenario", r.get_str("checkpoint scenario")?, identity)?;
        expect("seed", u64::get(&mut r)?.to_string(), seed)?;
        expect(
            "measurement target",
            u64::get(&mut r)?.to_string(),
            measure_to,
        )?;
        let start = Codec::get(&mut r)?;
        let blob = r.get_blob("embedded simulation snapshot")?;
        r.finish("run checkpoint")?;
        sim.restore(&blob, &origin)?;
        Ok(start)
    }
}

/// One phase: steps toward `goal`, calling `checkpoint` every `every`
/// cycles.
fn advance<T: Steer>(
    sim: &mut Simulation<T>,
    phase: &'static str,
    goal: Goal,
    every: u64,
    mut checkpoint: impl FnMut(&Simulation<T>) -> Result<(), SnapshotError>,
) -> Result<(), RunError> {
    let mut remaining = match goal.budget {
        Some(budget) => {
            sim.traffic.aim(goal.at);
            budget
        }
        None => goal.at.saturating_sub(sim.network.now()),
    };
    loop {
        let chunk = every.min(remaining);
        // `run_until_finished` checks the finish predicate before every
        // step, so chunking is behavior-identical to one long call; a model
        // that never finishes simply runs the chunk out.
        if sim.run_until_finished(chunk) {
            return Ok(());
        }
        remaining -= chunk;
        if remaining == 0 {
            return goal.budget.map_or(Ok(()), |max_cycles| {
                Err(RunError::Budget {
                    phase,
                    max_cycles,
                    workload: sim.traffic.name(),
                })
            });
        }
        checkpoint(sim)?;
    }
}

/// The protocol of [`run`] for any steerable traffic model: `identity` keys
/// the checkpoint, `goals` end the warm-up and the measurement.
fn drive<T: Steer>(
    network: Network,
    seed: u64,
    identity: &str,
    policy: CheckpointPolicy<'_>,
    traffic: impl FnOnce(usize) -> T,
    goals: [Goal; 2],
) -> Result<RunOutcome, RunError> {
    let traffic = traffic(network.mesh().node_count());
    let mut sim = Simulation::new(network, traffic);
    // 0 = no periodic checkpoints.
    let every = NonZeroU64::new(policy.every).map_or(u64::MAX, u64::from);
    let header = CheckpointHeader(identity, seed, goals[1].at);
    let save = |sim: &Simulation<T>, start| match policy.file {
        Some(path) => header.write(path, sim, start),
        None => Ok(()),
    };
    let resumed = match policy.resume_from {
        Some(path) => header.load(path, &mut sim)?,
        None => None,
    };
    let start = match resumed {
        Some(start) => start,
        None => {
            advance(&mut sim, "warmup", goals[0], every, |s| save(s, None))?;
            sim.network.reset_metrics();
            let start = sim.network.now();
            // Phase-boundary checkpoint: a resume never redoes warmup.
            save(&sim, Some(start))?;
            start
        }
    };
    let save_measuring = |s: &Simulation<T>| save(s, Some(start));
    advance(&mut sim, "measurement", goals[1], every, save_measuring)?;
    let measured = sim.network.now() - start;
    Ok(RunOutcome::capture(sim.network, measured))
}

/// [`drive`] for open-loop traffic at any [`RateSpec`]: warm up for
/// `window[0]` cycles, measure `window[1]` more.
#[allow(clippy::too_many_arguments)] // `drive`'s arguments plus the traffic's
fn drive_open_loop(
    network: Network,
    seed: u64,
    identity: &str,
    policy: CheckpointPolicy<'_>,
    rates: &RateSpec,
    pattern: &Pattern,
    mix: PacketMix,
    window: [u64; 2],
) -> Result<RunOutcome, RunError> {
    let traffic = |_| OpenLoopTraffic::new(rates.clone(), pattern.clone(), mix, seed);
    let goals = [window[0], window[0] + window[1]].map(Goal::cycle);
    drive(network, seed, identity, policy, traffic, goals)
}

/// Runs `kind` on a network built by `factory` from `cfg` and `seed`:
/// *build → resume from a checkpoint | simulate the warm-up → checkpoint →
/// zero the counters → measure → capture*, stepping in checkpoint-sized
/// chunks. Whatever `policy` holds, the outcome is byte-identical to
/// `CheckpointPolicy::default()`'s. A fault scenario measures from cycle 0
/// with its own inject→drain protocol: it has no warm-up and refuses a
/// checkpoint policy.
///
/// # Errors
///
/// [`RunError::Config`] for an invalid network configuration;
/// [`RunError::Snapshot`] for checkpoint I/O or validation failures — a
/// checkpoint of another invocation ([`RunKind::identity`], seed, measure
/// length) is a [`SnapshotError::ContextMismatch`]; [`RunError::Budget`]
/// when a closed-loop phase blows its cycle budget.
///
/// # Panics
///
/// On a watchdog or protocol failure while stepping, like
/// [`Simulation::step`] (a fault scenario returns it in the outcome).
pub fn run(
    kind: &RunKind,
    factory: &dyn RouterFactory,
    cfg: &NetworkConfig,
    seed: u64,
    policy: CheckpointPolicy<'_>,
) -> Result<RunOutcome, RunError> {
    let network = Network::new(kind.network_config(cfg).into_owned(), factory, seed)?;
    run_on(network, kind, seed, policy)
}

/// [`run`] on `network`, which the caller built as [`run`] does —
/// `Network::new(kind.network_config(cfg), factory, seed)` — and may have
/// put on another engine ([`Network::set_sim_threads`],
/// [`Network::set_parallel_threshold`]): the outcome is the same on every
/// engine.
///
/// # Errors
///
/// As [`run`], less the configuration error.
///
/// # Panics
///
/// As [`run`].
pub fn run_on(
    network: Network,
    kind: &RunKind,
    seed: u64,
    policy: CheckpointPolicy<'_>,
) -> Result<RunOutcome, RunError> {
    debug_assert_eq!(network.now(), 0, "run_on takes a freshly built network");
    let identity = &kind.identity();
    match kind {
        RunKind::ClosedLoop {
            workload,
            warmup_txns,
            measure_txns,
            max_cycles,
        } => {
            let budget = Some(*max_cycles);
            let goals = [*warmup_txns, warmup_txns + measure_txns].map(|at| Goal { at, budget });
            let traffic = |nodes| ClosedLoopTraffic::new(*workload, nodes, seed);
            drive(network, seed, identity, policy, traffic, goals)
        }
        RunKind::OpenLoop {
            rate,
            pattern,
            mix,
            warmup_cycles,
            measure_cycles,
        } => {
            let (rates, window) = (RateSpec::Uniform(*rate), [*warmup_cycles, *measure_cycles]);
            drive_open_loop(
                network, seed, identity, policy, &rates, pattern, *mix, window,
            )
        }
        RunKind::Fault {
            rate,
            inject_cycles,
            drain_cycles,
            ..
        } => {
            if policy.file.or(policy.resume_from).is_some() {
                return Err(RunError::Snapshot(SnapshotError::Unsupported {
                    what: "a fault scenario (no warm-up/measure boundary)",
                }));
            }
            let (rates, mix) = (RateSpec::Uniform(*rate), PacketMix::paper());
            let traffic = OpenLoopTraffic::new(rates, Pattern::UniformRandom, mix, seed);
            let out = inject_then_drain(network, traffic, *inject_cycles, *drain_cycles);
            Ok(out)
        }
    }
}

/// The convenience signatures' error handling: a configuration error is
/// returned, a blown budget panics (with no policy, nothing else can fail).
fn or_panic(result: Result<RunOutcome, RunError>) -> Result<RunOutcome, ConfigError> {
    result.map_err(|e| match e {
        RunError::Config(e) => e,
        other => panic!("{other}"),
    })
}

/// Closed-loop run: warm up for `warmup_txns` completed transactions, then
/// measure the cycles needed to complete `measure_txns` more — [`run`] on a
/// [`RunKind::ClosedLoop`] with no checkpoints.
///
/// # Errors
///
/// Propagates configuration errors from [`Network::new`].
///
/// # Panics
///
/// If a phase exceeds `max_cycles`: saturated or deadlocked — a bug.
pub fn run_closed_loop(
    factory: &dyn RouterFactory,
    net_cfg: &NetworkConfig,
    workload: WorkloadParams,
    warmup_txns: u64,
    measure_txns: u64,
    max_cycles: u64,
    seed: u64,
) -> Result<RunOutcome, ConfigError> {
    let kind = RunKind::ClosedLoop {
        workload,
        warmup_txns,
        measure_txns,
        max_cycles,
    };
    let policy = CheckpointPolicy::default();
    or_panic(run(&kind, factory, net_cfg, seed, policy))
}

/// Open-loop run: warm up for `warmup_cycles`, then measure statistics over
/// `measure_cycles` — [`run`]'s protocol for any [`RateSpec`], no checkpoints.
///
/// # Errors
///
/// Propagates configuration errors from [`Network::new`].
#[allow(clippy::too_many_arguments)] // a flat argument list mirrors the experiment's knobs
pub fn run_open_loop(
    factory: &dyn RouterFactory,
    net_cfg: &NetworkConfig,
    rates: RateSpec,
    pattern: Pattern,
    mix: PacketMix,
    warmup_cycles: u64,
    measure_cycles: u64,
    seed: u64,
) -> Result<RunOutcome, ConfigError> {
    let network = Network::new(net_cfg.clone(), factory, seed)?;
    // No checkpoint file: nothing reads an identity.
    let (policy, window) = (CheckpointPolicy::default(), [warmup_cycles, measure_cycles]);
    or_panic(drive_open_loop(
        network, seed, "", policy, &rates, &pattern, mix, window,
    ))
}

/// Outcome of a fault-injection scenario: the run may end early with a
/// structured watchdog error instead of statistics over a fixed window.
#[derive(Debug)]
pub struct FaultRunOutcome {
    /// The network in its final state (fault log, stats, audit hooks).
    pub network: Network,
    /// Snapshot of network statistics at the end of the run.
    pub stats: NetworkStats,
    /// The watchdog/protocol error that ended the run early, if any.
    pub error: Option<SimError>,
    /// Whether the network fully drained after sources stopped. `false`
    /// when the run errored or the drain budget ran out (lost flits with
    /// no retransmit path, or a wedged router).
    pub drained: bool,
    /// Cycles actually simulated (injection plus drain).
    pub ran_cycles: u64,
}

impl FaultRunOutcome {
    /// Fraction of offered packets that were delivered, in `[0, 1]`.
    pub fn delivered_fraction(&self) -> f64 {
        if self.stats.packets_offered == 0 {
            return 1.0;
        }
        self.stats.packets_delivered as f64 / self.stats.packets_offered as f64
    }
}

/// The fault scenario's own protocol, on the fallible stepping API: a stall
/// or livelock watchdog firing ends the run with `error = Some(..)` rather
/// than panicking, so fault sweeps can report "STALLED" as a data point.
fn inject_then_drain(
    network: Network,
    traffic: OpenLoopTraffic,
    inject_cycles: u64,
    drain_cycles: u64,
) -> RunOutcome {
    let mut sim = Simulation::new(network, traffic);
    let ended = sim.try_run(inject_cycles).and_then(|()| {
        sim.traffic.stop();
        sim.try_drain(drain_cycles)
    });
    let ran_cycles = sim.network.now();
    RunOutcome {
        drained: ended == Ok(true),
        error: ended.err(),
        ..RunOutcome::capture(sim.network, ran_cycles)
    }
}

/// Fault-injection scenario: open-loop traffic for `inject_cycles`, then
/// sources stop and the network gets `drain_cycles` to deliver everything
/// still in flight — what [`run`] does for a [`RunKind::Fault`], for any
/// traffic, with faults and recovery taken from `net_cfg`'s
/// [`faults`](NetworkConfig::faults) and
/// [`retransmit`](NetworkConfig::retransmit).
///
/// # Errors
///
/// Propagates configuration errors from [`Network::new`]; watchdog errors
/// during the run are returned *inside* the outcome, not as `Err`.
#[allow(clippy::too_many_arguments)] // a flat argument list mirrors the experiment's knobs
pub fn run_fault_scenario(
    factory: &dyn RouterFactory,
    net_cfg: &NetworkConfig,
    rates: RateSpec,
    pattern: Pattern,
    mix: PacketMix,
    inject_cycles: u64,
    drain_cycles: u64,
    seed: u64,
) -> Result<FaultRunOutcome, ConfigError> {
    let network = Network::new(net_cfg.clone(), factory, seed)?;
    let traffic = OpenLoopTraffic::new(rates, pattern, mix, seed);
    let out = inject_then_drain(network, traffic, inject_cycles, drain_cycles);
    Ok(FaultRunOutcome {
        network: out.network,
        stats: out.stats,
        error: out.error,
        drained: out.drained,
        ran_cycles: out.measured_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use afc_netsim::snapshot::fnv1a64;
    use afc_routers::{BackpressuredFactory, DeflectionFactory};
    use std::path::PathBuf;

    #[test]
    fn closed_loop_runner_measures_cycles() {
        let out = run_closed_loop(
            &BackpressuredFactory::new(),
            &NetworkConfig::paper_3x3(),
            workloads::water(),
            50,
            100,
            2_000_000,
            11,
        )
        .unwrap();
        assert!(out.measured_cycles > 0);
        assert!(out.stats.packets_delivered > 0);
        assert!(out.counters.cycles > 0);
        assert!(out.injection_rate() > 0.0);
    }

    #[test]
    fn open_loop_runner_reports_latency() {
        let out = run_open_loop(
            &DeflectionFactory::new(),
            &NetworkConfig::paper_3x3(),
            RateSpec::Uniform(0.05),
            Pattern::UniformRandom,
            PacketMix::single_flit(),
            1_000,
            2_000,
            13,
        )
        .unwrap();
        assert_eq!(out.measured_cycles, 2_000);
        assert!(out.mean_latency().expect("packets delivered") > 0.0);
    }

    #[test]
    fn fault_scenario_recovers_with_retransmit() {
        let cfg = NetworkConfig {
            faults: FaultPlan::uniform_transient(5e-4, 5e-4),
            retransmit: Some(RetransmitConfig::default()),
            ..NetworkConfig::paper_3x3()
        };
        let out = run_fault_scenario(
            &BackpressuredFactory::new(),
            &cfg,
            RateSpec::Uniform(0.05),
            Pattern::UniformRandom,
            PacketMix::single_flit(),
            3_000,
            200_000,
            21,
        )
        .unwrap();
        assert!(out.error.is_none(), "unexpected error: {:?}", out.error);
        assert!(out.drained);
        assert_eq!(out.stats.packets_delivered, out.stats.packets_offered);
        assert!((out.delivered_fraction() - 1.0).abs() < f64::EPSILON);
        out.network.audit().expect("flit conservation under faults");
    }

    const SEED: u64 = 11;

    fn closed(workload: WorkloadParams, max_cycles: u64) -> RunKind {
        RunKind::ClosedLoop {
            workload,
            warmup_txns: 50,
            measure_txns: 100,
            max_cycles,
        }
    }

    fn open(measure_cycles: u64) -> RunKind {
        RunKind::OpenLoop {
            rate: 0.15,
            pattern: Pattern::UniformRandom,
            mix: PacketMix::paper(),
            warmup_cycles: 600,
            measure_cycles,
        }
    }

    fn fault() -> RunKind {
        RunKind::Fault {
            rate: 0.10,
            drop_rate: 1e-3,
            corrupt_rate: 1e-3,
            inject_cycles: 500,
            drain_cycles: 100_000,
        }
    }

    fn run_in(kind: &RunKind, policy: CheckpointPolicy<'_>) -> Result<RunOutcome, RunError> {
        let cfg = NetworkConfig::paper_3x3();
        run(kind, &BackpressuredFactory::new(), &cfg, SEED, policy)
    }

    /// Everything a leg must reproduce: the window, every statistic and
    /// counter, and the network's complete end state.
    fn fingerprint(out: &RunOutcome) -> (u64, String, String, u64) {
        let mut w = SnapshotWriter::new();
        out.network.save_state(&mut w).expect("snapshot-capable");
        (
            out.measured_cycles,
            format!("{:?}|{:?}|{}", out.stats, out.error, out.drained),
            format!("{:?}", out.counters),
            fnv1a64(&snapshot::seal(w)),
        )
    }

    fn policy<'a>(
        every: u64,
        file: Option<&'a Path>,
        resume_from: Option<&'a Path>,
    ) -> CheckpointPolicy<'a> {
        CheckpointPolicy {
            every,
            file,
            resume_from,
        }
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("afc-run-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes the checkpoint a run of `kind` leaves when it is killed
    /// `cycles` into its warm-up: a periodic one, with no measurement
    /// origin yet, of the simulation `drive` steps.
    fn checkpoint_mid_warmup(kind: &RunKind, cycles: u64, file: &Path) {
        fn write<T: TrafficModel>(
            mut sim: Simulation<T>,
            cycles: u64,
            header: CheckpointHeader<'_>,
            file: &Path,
        ) {
            sim.run(cycles);
            header.write(file, &sim, None).unwrap();
        }
        let cfg = NetworkConfig::paper_3x3();
        let network = Network::new(cfg, &BackpressuredFactory::new(), SEED).unwrap();
        let identity = kind.identity();
        match *kind {
            RunKind::ClosedLoop {
                workload,
                warmup_txns,
                measure_txns,
                ..
            } => {
                let nodes = network.mesh().node_count();
                let mut traffic = ClosedLoopTraffic::new(workload, nodes, SEED);
                traffic.set_target(warmup_txns);
                let header = CheckpointHeader(&identity, SEED, warmup_txns + measure_txns);
                write(Simulation::new(network, traffic), cycles, header, file);
            }
            RunKind::OpenLoop {
                rate,
                ref pattern,
                mix,
                warmup_cycles,
                measure_cycles,
            } => {
                let rates = RateSpec::Uniform(rate);
                let traffic = OpenLoopTraffic::new(rates, pattern.clone(), mix, SEED);
                let header = CheckpointHeader(&identity, SEED, warmup_cycles + measure_cycles);
                write(Simulation::new(network, traffic), cycles, header, file);
            }
            RunKind::Fault { .. } => unreachable!("a fault scenario has no warm-up"),
        }
    }

    /// The protocol's table: every scenario x every way of getting through
    /// it — fresh, resumed from a mid-warm-up checkpoint, resumed from a
    /// mid-measure checkpoint, and with a do-nothing checkpoint policy —
    /// ends in the same outcome.
    #[test]
    fn every_kind_reaches_one_outcome_by_every_road() {
        let dir = scratch_dir("table");
        let file = dir.join("run.ckpt");
        for kind in [closed(workloads::water(), 2_000_000), open(1_800), fault()] {
            let fresh = fingerprint(&run_in(&kind, CheckpointPolicy::default()).unwrap());

            if matches!(kind, RunKind::Fault { .. }) {
                // No boundary to checkpoint.
                let refused = run_in(&kind, policy(100, Some(&file), None)).unwrap_err();
                assert!(
                    matches!(
                        refused,
                        RunError::Snapshot(SnapshotError::Unsupported { .. })
                    ),
                    "{refused}"
                );
                continue;
            }
            let unprotected = run_in(&kind, policy(0, None, None)).unwrap();
            assert_eq!(fingerprint(&unprotected), fresh, "{kind:?}: no-op policy");

            // Killed mid-warm-up: what is on disk is the second periodic
            // checkpoint of a run that writes one every third of its
            // warm-up, and no boundary one.
            let total = unprotected.network.now();
            let warmup_end = total - unprotected.measured_cycles;
            checkpoint_mid_warmup(&kind, 2 * (warmup_end / 3), &file);
            let resumed = run_in(&kind, policy(1_000, Some(&file), Some(&file)));
            assert_eq!(
                fingerprint(&resumed.unwrap()),
                fresh,
                "{kind:?}: resumed mid-warm-up"
            );

            // Killed mid-measure: what a finished run leaves on disk is its
            // last periodic checkpoint, two thirds into the window.
            std::fs::remove_file(&file).unwrap();
            let every = unprotected.measured_cycles / 3;
            run_in(&kind, policy(every, Some(&file), None)).unwrap();
            let resumed = run_in(&kind, policy(0, None, Some(&file))).unwrap();
            assert_eq!(
                fingerprint(&resumed),
                fresh,
                "{kind:?}: resumed mid-measure"
            );
            let replayed = resumed.network.now() - (warmup_end + 2 * every);
            assert!(
                replayed <= every + 1,
                "{kind:?}: {replayed} cycles replayed"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint is keyed by the workload's every parameter, not its
    /// name: a same-named variant (same seed, warm-up and measure length)
    /// may not resume from the stock workload's checkpoint.
    #[test]
    fn a_same_named_workload_variant_refuses_the_stock_checkpoint() {
        let dir = scratch_dir("variant");
        let file = dir.join("run.ckpt");
        let stock = closed(workloads::water(), 2_000_000);
        let variant = closed(
            WorkloadParams {
                think_mean: 4.0 * workloads::water().think_mean,
                ..workloads::water()
            },
            2_000_000,
        );
        let alone = |kind| run_in(kind, policy(0, None, None)).unwrap().measured_cycles;
        assert_ne!(
            alone(&stock),
            alone(&variant),
            "the variant must be another run"
        );
        run_in(&stock, policy(1_000, Some(&file), None)).unwrap();
        match run_in(&variant, policy(0, None, Some(&file))) {
            Err(RunError::Snapshot(SnapshotError::ContextMismatch { what, .. })) => {
                assert_eq!(what, "scenario");
            }
            other => panic!("expected a scenario mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_blown_budget_is_an_error_whose_checkpoint_resumes() {
        let dir = scratch_dir("budget");
        let file = dir.join("run.ckpt");
        let kind = closed(workloads::water(), 2_000_000);
        let reference = run_in(&kind, CheckpointPolicy::default()).unwrap();

        // A per-phase budget of a quarter of the full run cannot cover even
        // the warm-up: one structured error, the last periodic
        // checkpoint on disk, and a resume with a larger budget finishes
        // bit-identically.
        let quarter = (reference.network.now() / 4).max(4);
        let every = (quarter / 4).max(1);
        let short = closed(workloads::water(), quarter);
        let err = run_in(&short, policy(every, Some(&file), None)).unwrap_err();
        assert!(matches!(err, RunError::Budget { .. }), "{err}");
        let text = format!("warmup did not finish within {quarter} cycles (water)");
        assert_eq!(err.to_string(), text);
        assert!(file.exists(), "a periodic checkpoint must survive");
        let resumed = run_in(&kind, policy(1_000, Some(&file), Some(&file))).unwrap();
        assert_eq!(fingerprint(&resumed), fingerprint(&reference));

        // Resuming under different arguments is refused: another seed or
        // another measure length.
        let refused = |kind: &RunKind, seed| {
            let cfg = NetworkConfig::paper_3x3();
            let policy = policy(0, None, Some(&file));
            match run(kind, &BackpressuredFactory::new(), &cfg, seed, policy) {
                Err(RunError::Snapshot(SnapshotError::ContextMismatch { what, .. })) => what,
                other => panic!("expected a context mismatch, got {other:?}"),
            }
        };
        assert_eq!(refused(&kind, SEED + 1), "seed");
        let longer = RunKind::ClosedLoop {
            workload: workloads::water(),
            warmup_txns: 50,
            measure_txns: 101,
            max_cycles: 2_000_000,
        };
        assert_eq!(refused(&longer, SEED), "measurement target");

        // A corrupt checkpoint is refused with the file named.
        let good = std::fs::read(&file).unwrap();
        let mut bytes = good.clone();
        bytes[good.len() / 2] ^= 0x10;
        std::fs::write(&file, &bytes).unwrap();
        let err = run_in(&kind, policy(0, None, Some(&file))).unwrap_err();
        assert!(err.to_string().contains("run.ckpt"), "{err}");

        // So is a checkpoint of the `-v1` layout, by its tag.
        let mut w = SnapshotWriter::new();
        w.put_str("afc-closed-loop-checkpoint-v1");
        w.put_str("water");
        [SEED, 50, 100].into_iter().for_each(|v| w.put_u64(v));
        std::fs::write(&file, snapshot::seal(w)).unwrap();
        let err = run_in(&kind, policy(0, None, Some(&file))).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("checkpoint format") && text.contains("-v1"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn runs_are_deterministic_for_equal_seeds() {
        let run = |seed| {
            let out = run_closed_loop(
                &BackpressuredFactory::new(),
                &NetworkConfig::paper_3x3(),
                workloads::water(),
                20,
                50,
                2_000_000,
                seed,
            )
            .unwrap();
            (out.measured_cycles, out.stats.flits_delivered)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
