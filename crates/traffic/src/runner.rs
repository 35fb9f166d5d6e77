//! End-to-end run orchestration: warmup, measurement, and result capture.
//!
//! [`run_closed_loop_checkpointed`] additionally supports crash-safe
//! mid-run checkpointing: the harness phase (warmup vs measurement) plus a
//! full simulation snapshot are sealed into one checksummed container,
//! written atomically every N cycles, and a later invocation resumes from
//! it bit-identically to an uninterrupted run.

use std::fmt;
use std::path::Path;

use afc_netsim::config::NetworkConfig;
use afc_netsim::counters::ActivityCounters;
use afc_netsim::error::{ConfigError, SimError};
use afc_netsim::network::Network;
use afc_netsim::router::RouterFactory;
use afc_netsim::sim::Simulation;
use afc_netsim::snapshot::{self, SnapshotError, SnapshotWriter};
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
    /// Cycles in the measurement window.
    pub measured_cycles: u64,
    /// Snapshot of network statistics over the measurement window.
    pub stats: NetworkStats,
    /// Aggregated router activity over the measurement window.
    pub counters: ActivityCounters,
}

impl RunOutcome {
    fn capture(network: Network, measured_cycles: u64) -> RunOutcome {
        let stats = network.stats().clone();
        let counters = network.total_counters();
        RunOutcome {
            network,
            measured_cycles,
            stats,
            counters,
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

/// A store of post-warmup simulation snapshots, keyed by a warm-start
/// fingerprint (see [`warm_key`]). Implemented by the sweep engine's
/// warm cache; the runner only gets/puts sealed snapshot containers.
///
/// Correctness does not rest on the store: a hit is restored through
/// [`Simulation::restore`], whose container checksum and embedded network
/// fingerprint re-verify the bytes, and any refusal sends the run back to
/// a cold warmup after [`WarmStore::invalidate`] — so a stale or corrupt
/// entry can cost time, never bytes.
pub trait WarmStore: Sync {
    /// Looks up the sealed snapshot for `key`.
    fn get(&self, key: u64) -> Option<std::sync::Arc<Vec<u8>>>;
    /// Stores the sealed snapshot for `key`.
    fn put(&self, key: u64, bytes: Vec<u8>);
    /// Drops the entry for `key` (it failed re-verification).
    fn invalidate(&self, key: u64);
}

/// Warm-start fingerprint: FNV-1a over every input that determines the
/// post-warmup state — phase label, full network config (mesh, fault plan,
/// retransmit), the router factory's [`RouterFactory::build_key`] (its
/// mechanism and private options such as thresholds), seed, and the
/// traffic/warmup parameters rendered via `Debug`. Two runs with equal
/// keys are guaranteed byte-identical through warmup; anything that could
/// diverge them must be part of `detail`.
pub fn warm_key(phase: &str, net_cfg: &NetworkConfig, build_key: &str, detail: &str) -> u64 {
    let repr = format!("{phase}|{net_cfg:?}|{build_key}|{detail}");
    snapshot::fnv1a64(repr.as_bytes())
}

/// Reuses `arena` when it is arena-compatible with the requested run
/// (same mechanism and config — see [`Network::reset_from_config`]),
/// falling back to fresh construction.
fn acquire_network(
    arena: Option<Network>,
    net_cfg: &NetworkConfig,
    factory: &dyn RouterFactory,
    seed: u64,
) -> Result<Network, ConfigError> {
    if let Some(mut net) = arena {
        if net.reset_from_config(net_cfg, factory, seed) {
            return Ok(net);
        }
    }
    Network::new(net_cfg.clone(), factory, seed)
}

/// Closed-loop run: warm up for `warmup_txns` completed transactions, then
/// measure the cycles needed to complete `measure_txns` more.
///
/// Returns the outcome plus the workload handle (for completed counts).
///
/// # Errors
///
/// Propagates configuration errors from [`Network::new`].
///
/// # Panics
///
/// Panics if the run exceeds `max_cycles` before finishing — a saturated or
/// deadlocked configuration, which callers should treat as a bug.
pub fn run_closed_loop(
    factory: &dyn RouterFactory,
    net_cfg: &NetworkConfig,
    workload: WorkloadParams,
    warmup_txns: u64,
    measure_txns: u64,
    max_cycles: u64,
    seed: u64,
) -> Result<RunOutcome, ConfigError> {
    run_closed_loop_with(
        None,
        None,
        factory,
        net_cfg,
        workload,
        warmup_txns,
        measure_txns,
        max_cycles,
        seed,
    )
}

/// [`run_closed_loop`] with optional arena reuse and warm-start caching.
///
/// `arena` is a network to recycle in place when arena-compatible (it is
/// consumed either way; reclaim the one in the returned
/// [`RunOutcome::network`]). `warm` keys the post-warmup state — captured
/// *before* [`Network::reset_metrics`] — by workload name, warmup target,
/// seed, mechanism, and full config; a hit restores instead of
/// re-simulating the warmup, then proceeds identically, so results are
/// byte-identical to the cold path (the restore machinery re-verifies
/// checksum and fingerprint, and a refused entry is invalidated and
/// re-warmed cold).
///
/// # Errors
///
/// Propagates configuration errors from [`Network::new`].
///
/// # Panics
///
/// As [`run_closed_loop`], when a phase exceeds `max_cycles`.
#[allow(clippy::too_many_arguments)] // a flat argument list mirrors the experiment's knobs
pub fn run_closed_loop_with(
    arena: Option<Network>,
    warm: Option<&dyn WarmStore>,
    factory: &dyn RouterFactory,
    net_cfg: &NetworkConfig,
    workload: WorkloadParams,
    warmup_txns: u64,
    measure_txns: u64,
    max_cycles: u64,
    seed: u64,
) -> Result<RunOutcome, ConfigError> {
    let key = warm_key(
        "closed-loop",
        net_cfg,
        &factory.build_key(),
        &format!("{}|{warmup_txns}|{seed}", workload.name),
    );

    let network = acquire_network(arena, net_cfg, factory, seed)?;
    let nodes = network.mesh().node_count();
    let traffic = ClosedLoopTraffic::new(workload, nodes, seed);
    let mut sim = Simulation::new(network, traffic);

    // Warmup: restored from the cache when possible, simulated otherwise.
    let mut warmed = false;
    if let Some(store) = warm {
        if let Some(bytes) = store.get(key) {
            match sim.restore(&bytes, "<warm cache>") {
                Ok(()) => warmed = true,
                Err(_) => {
                    // A partial restore leaves the simulation indeterminate;
                    // rebuild from scratch and warm up cold.
                    store.invalidate(key);
                    let network = Network::new(net_cfg.clone(), factory, seed)?;
                    let traffic = ClosedLoopTraffic::new(workload, nodes, seed);
                    sim = Simulation::new(network, traffic);
                }
            }
        }
    }
    if !warmed {
        sim.traffic.set_target(warmup_txns);
        assert!(
            sim.run_until_finished(max_cycles),
            "warmup did not finish within {max_cycles} cycles ({})",
            workload.name
        );
        if let Some(store) = warm {
            if let Ok(bytes) = sim.snapshot() {
                store.put(key, bytes);
            }
        }
    }
    sim.network.reset_metrics();
    let start = sim.network.now();

    // Measurement.
    sim.traffic.set_target(warmup_txns + measure_txns);
    assert!(
        sim.run_until_finished(max_cycles),
        "measurement did not finish within {max_cycles} cycles ({})",
        workload.name
    );
    let measured = sim.network.now() - start;
    Ok(RunOutcome::capture(sim.network, measured))
}

/// Open-loop run: warm up for `warmup_cycles`, then measure statistics over
/// `measure_cycles`.
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
    run_open_loop_with(
        None,
        None,
        factory,
        net_cfg,
        rates,
        pattern,
        mix,
        warmup_cycles,
        measure_cycles,
        seed,
    )
}

/// [`run_open_loop`] with optional arena reuse and warm-start caching;
/// the contract is exactly [`run_closed_loop_with`]'s, with the warm key
/// covering rate spec, pattern, mix, warmup length, and seed.
///
/// # Errors
///
/// Propagates configuration errors from [`Network::new`].
#[allow(clippy::too_many_arguments)] // a flat argument list mirrors the experiment's knobs
pub fn run_open_loop_with(
    arena: Option<Network>,
    warm: Option<&dyn WarmStore>,
    factory: &dyn RouterFactory,
    net_cfg: &NetworkConfig,
    rates: RateSpec,
    pattern: Pattern,
    mix: PacketMix,
    warmup_cycles: u64,
    measure_cycles: u64,
    seed: u64,
) -> Result<RunOutcome, ConfigError> {
    let key = warm_key(
        "open-loop",
        net_cfg,
        &factory.build_key(),
        &format!("{rates:?}|{pattern:?}|{mix:?}|{warmup_cycles}|{seed}"),
    );

    let network = acquire_network(arena, net_cfg, factory, seed)?;
    let traffic = OpenLoopTraffic::new(rates.clone(), pattern.clone(), mix, seed);
    let mut sim = Simulation::new(network, traffic);

    let mut warmed = false;
    if let Some(store) = warm {
        if let Some(bytes) = store.get(key) {
            match sim.restore(&bytes, "<warm cache>") {
                Ok(()) => warmed = true,
                Err(_) => {
                    store.invalidate(key);
                    let network = Network::new(net_cfg.clone(), factory, seed)?;
                    let traffic = OpenLoopTraffic::new(rates, pattern, mix, seed);
                    sim = Simulation::new(network, traffic);
                }
            }
        }
    }
    if !warmed {
        sim.run(warmup_cycles);
        if let Some(store) = warm {
            if let Ok(bytes) = sim.snapshot() {
                store.put(key, bytes);
            }
        }
    }
    sim.network.reset_metrics();
    sim.run(measure_cycles);
    Ok(RunOutcome::capture(sim.network, measure_cycles))
}

/// Tag identifying the payload of a closed-loop checkpoint container.
const CHECKPOINT_TAG: &str = "afc-closed-loop-checkpoint-v1";

/// Mid-run checkpoint policy for [`run_closed_loop_checkpointed`].
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

/// Errors from [`run_closed_loop_checkpointed`].
#[derive(Debug)]
pub enum CheckpointedRunError {
    /// Invalid network configuration.
    Config(ConfigError),
    /// Snapshot serialization, checkpoint validation, or checkpoint-file
    /// I/O failure.
    Snapshot(SnapshotError),
    /// A phase exceeded the cycle budget (a saturated or deadlocked
    /// configuration).
    Budget {
        /// Which phase ran out ("warmup" or "measurement").
        phase: &'static str,
        /// The exhausted budget.
        max_cycles: u64,
    },
}

impl fmt::Display for CheckpointedRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointedRunError::Config(e) => write!(f, "{e}"),
            CheckpointedRunError::Snapshot(e) => write!(f, "{e}"),
            CheckpointedRunError::Budget { phase, max_cycles } => {
                write!(f, "{phase} did not finish within {max_cycles} cycles")
            }
        }
    }
}

impl std::error::Error for CheckpointedRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointedRunError::Config(e) => Some(e),
            CheckpointedRunError::Snapshot(e) => Some(e),
            CheckpointedRunError::Budget { .. } => None,
        }
    }
}

impl From<ConfigError> for CheckpointedRunError {
    fn from(e: ConfigError) -> Self {
        CheckpointedRunError::Config(e)
    }
}

impl From<SnapshotError> for CheckpointedRunError {
    fn from(e: SnapshotError) -> Self {
        CheckpointedRunError::Snapshot(e)
    }
}

/// Seals harness phase + simulation snapshot into one checkpoint file.
#[allow(clippy::too_many_arguments)] // mirrors the checkpoint layout
fn write_checkpoint(
    path: &Path,
    sim: &Simulation<ClosedLoopTraffic>,
    workload: &WorkloadParams,
    seed: u64,
    warmup_txns: u64,
    measure_txns: u64,
    phase: u8,
    measure_start: u64,
) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new();
    w.put_str(CHECKPOINT_TAG);
    w.put_str(workload.name);
    w.put_u64(seed);
    w.put_u64(warmup_txns);
    w.put_u64(measure_txns);
    w.put_u8(phase);
    w.put_u64(measure_start);
    w.put_blob(&sim.snapshot()?);
    snapshot::write_file_atomic(path, &snapshot::seal(w))
}

/// Loads a checkpoint into `sim` after validating it belongs to this exact
/// invocation. Returns `(phase, measure_start)`.
fn load_checkpoint(
    path: &Path,
    sim: &mut Simulation<ClosedLoopTraffic>,
    workload: &WorkloadParams,
    seed: u64,
    warmup_txns: u64,
    measure_txns: u64,
) -> Result<(u8, u64), SnapshotError> {
    let bytes = snapshot::read_file(path)?;
    let origin = path.display().to_string();
    let mut r = snapshot::open(&bytes, &origin)?;
    let tag = r.get_str("checkpoint tag")?;
    if tag != CHECKPOINT_TAG {
        return Err(SnapshotError::Malformed {
            what: "not a closed-loop checkpoint",
        });
    }
    let mismatch = |what: &'static str, snapshot: String, current: String| {
        Err(SnapshotError::ContextMismatch {
            what,
            snapshot,
            current,
        })
    };
    let name = r.get_str("checkpoint workload")?;
    if name != workload.name {
        return mismatch("workload", name, workload.name.to_string());
    }
    let ck_seed = r.get_u64("checkpoint seed")?;
    if ck_seed != seed {
        return mismatch("seed", ck_seed.to_string(), seed.to_string());
    }
    let ck_warmup = r.get_u64("checkpoint warmup target")?;
    if ck_warmup != warmup_txns {
        return mismatch(
            "warmup transactions",
            ck_warmup.to_string(),
            warmup_txns.to_string(),
        );
    }
    let ck_measure = r.get_u64("checkpoint measurement target")?;
    if ck_measure != measure_txns {
        return mismatch(
            "measured transactions",
            ck_measure.to_string(),
            measure_txns.to_string(),
        );
    }
    let phase = r.get_u8("checkpoint phase")?;
    if phase > 1 {
        return Err(SnapshotError::Malformed {
            what: "checkpoint phase tag",
        });
    }
    let measure_start = r.get_u64("measurement start cycle")?;
    let blob = r.get_blob("embedded simulation snapshot")?;
    r.finish("closed-loop checkpoint")?;
    sim.restore(&blob, &origin)?;
    Ok((phase, measure_start))
}

/// One phase of a checkpointed run: steps until the traffic model reports
/// completion, writing a checkpoint every `every` cycles. Returns whether
/// the phase finished within `max_cycles`.
fn run_phase(
    sim: &mut Simulation<ClosedLoopTraffic>,
    max_cycles: u64,
    every: u64,
    mut checkpoint: impl FnMut(&Simulation<ClosedLoopTraffic>) -> Result<(), SnapshotError>,
) -> Result<bool, CheckpointedRunError> {
    let mut remaining = max_cycles;
    loop {
        let chunk = if every == 0 {
            remaining
        } else {
            every.min(remaining)
        };
        // `run_until_finished` checks the finish predicate before every
        // step, so chunking is behavior-identical to one long call.
        if sim.run_until_finished(chunk) {
            return Ok(true);
        }
        remaining -= chunk;
        if remaining == 0 {
            return Ok(false);
        }
        checkpoint(sim)?;
    }
}

/// [`run_closed_loop`] with crash-safe checkpointing: every
/// [`CheckpointPolicy::every`] cycles (and at the warmup/measurement
/// boundary) the full harness state — phase, measurement window origin,
/// and a complete simulation snapshot — is written atomically to
/// [`CheckpointPolicy::file`]. A later invocation with the same arguments
/// and [`CheckpointPolicy::resume_from`] continues from the checkpoint and
/// finishes bit-identically to an uninterrupted run.
///
/// A checkpoint records the invocation it belongs to (workload, seed,
/// warmup/measurement targets); resuming under different arguments is
/// refused with a [`SnapshotError::ContextMismatch`].
///
/// # Errors
///
/// [`CheckpointedRunError::Config`] for an invalid network configuration,
/// [`CheckpointedRunError::Snapshot`] for checkpoint I/O or validation
/// failures, and [`CheckpointedRunError::Budget`] — instead of the panic
/// in [`run_closed_loop`] — when a phase blows its cycle budget (the last
/// periodic checkpoint survives, so the run can still be resumed with a
/// larger budget).
#[allow(clippy::too_many_arguments)] // a flat argument list mirrors the experiment's knobs
pub fn run_closed_loop_checkpointed(
    factory: &dyn RouterFactory,
    net_cfg: &NetworkConfig,
    workload: WorkloadParams,
    warmup_txns: u64,
    measure_txns: u64,
    max_cycles: u64,
    seed: u64,
    policy: CheckpointPolicy<'_>,
) -> Result<RunOutcome, CheckpointedRunError> {
    let network = Network::new(net_cfg.clone(), factory, seed)?;
    let nodes = network.mesh().node_count();
    let traffic = ClosedLoopTraffic::new(workload, nodes, seed);
    let mut sim = Simulation::new(network, traffic);
    let mut phase = 0u8;
    let mut measure_start = 0u64;

    if let Some(path) = policy.resume_from {
        (phase, measure_start) =
            load_checkpoint(path, &mut sim, &workload, seed, warmup_txns, measure_txns)?;
    }

    let save = |sim: &Simulation<ClosedLoopTraffic>,
                phase: u8,
                measure_start: u64|
     -> Result<(), SnapshotError> {
        match policy.file {
            Some(path) => write_checkpoint(
                path,
                sim,
                &workload,
                seed,
                warmup_txns,
                measure_txns,
                phase,
                measure_start,
            ),
            None => Ok(()),
        }
    };

    if phase == 0 {
        sim.traffic.set_target(warmup_txns);
        if !run_phase(&mut sim, max_cycles, policy.every, |s| save(s, 0, 0))? {
            return Err(CheckpointedRunError::Budget {
                phase: "warmup",
                max_cycles,
            });
        }
        sim.network.reset_metrics();
        phase = 1;
        measure_start = sim.network.now();
        // Phase-boundary checkpoint: a resume never redoes warmup.
        save(&sim, phase, measure_start)?;
    }

    sim.traffic.set_target(warmup_txns + measure_txns);
    if !run_phase(&mut sim, max_cycles, policy.every, |s| {
        save(s, 1, measure_start)
    })? {
        return Err(CheckpointedRunError::Budget {
            phase: "measurement",
            max_cycles,
        });
    }
    let measured = sim.network.now() - measure_start;
    Ok(RunOutcome::capture(sim.network, measured))
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

/// Fault-injection scenario: open-loop traffic for `inject_cycles`, then
/// sources stop and the network gets `drain_cycles` to deliver everything
/// still in flight. Faults and recovery come from `net_cfg` (its
/// [`faults`](NetworkConfig::faults) plan and
/// [`retransmit`](NetworkConfig::retransmit) config).
///
/// Unlike [`run_open_loop`], this uses the fallible stepping API: a stall
/// or livelock watchdog firing ends the run with `error = Some(..)` rather
/// than panicking, so fault sweeps can report "STALLED" as a data point.
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
    run_fault_scenario_with(
        None,
        factory,
        net_cfg,
        rates,
        pattern,
        mix,
        inject_cycles,
        drain_cycles,
        seed,
    )
}

/// [`run_fault_scenario`] with optional arena reuse. No warm-start option:
/// a fault scenario measures from cycle 0, so there is no warmup prefix to
/// cache.
///
/// # Errors
///
/// As [`run_fault_scenario`].
#[allow(clippy::too_many_arguments)] // a flat argument list mirrors the experiment's knobs
pub fn run_fault_scenario_with(
    arena: Option<Network>,
    factory: &dyn RouterFactory,
    net_cfg: &NetworkConfig,
    rates: RateSpec,
    pattern: Pattern,
    mix: PacketMix,
    inject_cycles: u64,
    drain_cycles: u64,
    seed: u64,
) -> Result<FaultRunOutcome, ConfigError> {
    let network = acquire_network(arena, net_cfg, factory, seed)?;
    let traffic = OpenLoopTraffic::new(rates, pattern, mix, seed);
    let mut sim = Simulation::new(network, traffic);

    let outcome = |sim: Simulation<OpenLoopTraffic>, error, drained| {
        let stats = sim.network.stats().clone();
        let ran_cycles = sim.network.now();
        FaultRunOutcome {
            stats,
            error,
            drained,
            ran_cycles,
            network: sim.network,
        }
    };

    if let Err(e) = sim.try_run(inject_cycles) {
        return Ok(outcome(sim, Some(e), false));
    }
    sim.traffic.stop();
    match sim.try_drain(drain_cycles) {
        Ok(drained) => Ok(outcome(sim, None, drained)),
        Err(e) => Ok(outcome(sim, Some(e), false)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use afc_netsim::config::RetransmitConfig;
    use afc_netsim::faults::FaultPlan;
    use afc_routers::{BackpressuredFactory, DeflectionFactory};

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

    fn outcome_key(out: &RunOutcome) -> (u64, u64, u64, u64, Option<u64>) {
        (
            out.measured_cycles,
            out.network.now(),
            out.stats.packets_delivered,
            out.stats.flits_delivered,
            out.mean_latency().map(f64::to_bits),
        )
    }

    #[test]
    fn checkpointed_run_without_checkpoints_matches_plain_run() {
        let cfg = NetworkConfig::paper_3x3();
        let plain = run_closed_loop(
            &BackpressuredFactory::new(),
            &cfg,
            workloads::water(),
            50,
            100,
            2_000_000,
            11,
        )
        .unwrap();
        let checkpointed = run_closed_loop_checkpointed(
            &BackpressuredFactory::new(),
            &cfg,
            workloads::water(),
            50,
            100,
            2_000_000,
            11,
            CheckpointPolicy::default(),
        )
        .unwrap();
        assert_eq!(outcome_key(&plain), outcome_key(&checkpointed));
    }

    #[test]
    fn interrupted_run_resumes_bit_identically() {
        let cfg = NetworkConfig::paper_3x3();
        let dir = std::env::temp_dir().join(format!("afc-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("run.ckpt");

        let reference = run_closed_loop(
            &BackpressuredFactory::new(),
            &cfg,
            workloads::water(),
            50,
            100,
            2_000_000,
            11,
        )
        .unwrap();

        // "Crash" mid-run: a per-phase budget of a quarter of the full
        // run cannot cover the measurement phase, so the run aborts with
        // the last periodic checkpoint on disk — exactly like a SIGKILL.
        let quarter = (reference.network.now() / 4).max(4);
        let interrupted = run_closed_loop_checkpointed(
            &BackpressuredFactory::new(),
            &cfg,
            workloads::water(),
            50,
            100,
            quarter,
            11,
            CheckpointPolicy {
                every: (quarter / 4).max(1),
                file: Some(&file),
                resume_from: None,
            },
        );
        assert!(
            matches!(interrupted, Err(CheckpointedRunError::Budget { .. })),
            "{quarter} cycles must not complete this workload"
        );
        assert!(file.exists(), "a periodic checkpoint must survive");

        let resumed = run_closed_loop_checkpointed(
            &BackpressuredFactory::new(),
            &cfg,
            workloads::water(),
            50,
            100,
            2_000_000,
            11,
            CheckpointPolicy {
                every: 1_000,
                file: Some(&file),
                resume_from: Some(&file),
            },
        )
        .unwrap();
        assert_eq!(
            outcome_key(&reference),
            outcome_key(&resumed),
            "resumed run must be bit-identical to the uninterrupted one"
        );

        // Resuming under different arguments is refused.
        let err = run_closed_loop_checkpointed(
            &BackpressuredFactory::new(),
            &cfg,
            workloads::water(),
            50,
            100,
            2_000_000,
            12, // different seed
            CheckpointPolicy {
                every: 0,
                file: None,
                resume_from: Some(&file),
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointedRunError::Snapshot(SnapshotError::ContextMismatch { .. })
            ),
            "got {err}"
        );

        // A corrupt checkpoint is refused with the file named.
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&file, &bytes).unwrap();
        let err = run_closed_loop_checkpointed(
            &BackpressuredFactory::new(),
            &cfg,
            workloads::water(),
            50,
            100,
            2_000_000,
            11,
            CheckpointPolicy {
                every: 0,
                file: None,
                resume_from: Some(&file),
            },
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("run.ckpt"),
            "error must name the corrupt file: {err}"
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
