//! Reusable experiment drivers shared by the harness binaries and the
//! integration tests.

use afc_energy::{EnergyBreakdown, EnergyModel, EnergyParams};
use afc_netsim::config::NetworkConfig;
use afc_netsim::flit::Cycle;
use afc_netsim::network::Network;
use afc_netsim::packet::DeliveredPacket;
use afc_netsim::sim::TrafficModel;
use afc_netsim::stats::LatencyStats;
use afc_traffic::closedloop::WorkloadParams;
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::runner::{RunKind, RunOutcome};
use afc_traffic::synthetic::{quadrant_of, Pattern};

use crate::mechanisms::Mechanism;
use crate::sweep::{run_grid, threads, Job};

/// Result of one (workload, mechanism) closed-loop cell.
#[derive(Debug, Clone)]
pub struct ClosedLoopRow {
    /// Workload name.
    pub workload: &'static str,
    /// Mechanism label.
    pub mechanism: &'static str,
    /// Cycles to complete the measured transactions (lower = faster).
    pub cycles: u64,
    /// Measured injection rate, flits/node/cycle.
    pub injection_rate: f64,
    /// Priced energy over the measurement window.
    pub energy: EnergyBreakdown,
    /// Fraction of router-cycles spent backpressured.
    pub backpressured_fraction: f64,
    /// (forward, reverse, gossip) mode-switch counts.
    pub mode_switches: (u64, u64, u64),
    /// Mean deflections per delivered flit.
    pub mean_deflections: f64,
}

/// Runs `jobs` on the sweep engine's planner ([`run_grid`]) with [`threads`]
/// workers; `reduce` reads each job's result off its
/// unit's outcome (pricing it with the job's own [`Mechanism::price`]).
///
/// # Panics
///
/// As [`crate::sweep::run_sweep`]: a unit failing every attempt panics,
/// after the pool has finished the others.
fn grid<R: Send>(
    name: &str,
    net_cfg: &NetworkConfig,
    jobs: &[Job<'_>],
    reduce: impl Fn(&Job<'_>, usize, &RunOutcome) -> R + Sync,
) -> Vec<R> {
    run_grid(name, net_cfg, jobs, threads(), reduce, |_, _| {})
        .into_iter()
        .map(|r| r.unwrap_or_else(|fail| panic!("sweep '{name}': {fail}")))
        .collect()
}

/// Runs the full (mechanism x workload) closed-loop matrix used by
/// Figures 2 and 3. Cells run in parallel on the sweep engine, mechanisms
/// that share a network (the three backpressured accountings) as one
/// simulation; row order is workload-major, mechanism-minor regardless of
/// thread count.
pub fn closed_loop_matrix(
    mechanisms: &[Mechanism],
    workloads: &[WorkloadParams],
    net_cfg: &NetworkConfig,
    warmup_txns: u64,
    measure_txns: u64,
    max_cycles: u64,
    seed: u64,
) -> Vec<ClosedLoopRow> {
    if mechanisms.is_empty() || workloads.is_empty() {
        return Vec::new();
    }
    ReplicatedMatrix::run(
        mechanisms,
        workloads,
        net_cfg,
        warmup_txns,
        measure_txns,
        max_cycles,
        &[seed],
    )
    .matrices
    .remove(0)
}

/// Looks up one cell of a matrix.
pub fn cell<'a>(rows: &'a [ClosedLoopRow], workload: &str, mechanism: &str) -> &'a ClosedLoopRow {
    rows.iter()
        .find(|r| r.workload == workload && r.mechanism == mechanism)
        .unwrap_or_else(|| panic!("no cell for ({workload}, {mechanism})"))
}

/// Performance of `mechanism` normalized to `baseline` (higher is better):
/// `cycles(baseline) / cycles(mechanism)`.
pub fn normalized_performance(
    rows: &[ClosedLoopRow],
    workload: &str,
    mechanism: &str,
    baseline: &str,
) -> f64 {
    cell(rows, workload, baseline).cycles as f64 / cell(rows, workload, mechanism).cycles as f64
}

/// Energy of `mechanism` normalized to `baseline` (lower is better).
pub fn normalized_energy(
    rows: &[ClosedLoopRow],
    workload: &str,
    mechanism: &str,
    baseline: &str,
) -> f64 {
    cell(rows, workload, mechanism).energy.total() / cell(rows, workload, baseline).energy.total()
}

/// A replicated measurement: mean and standard deviation across seeds
/// (the paper reports variance bars from repeated runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replicated {
    /// Mean across replications.
    pub mean: f64,
    /// Sample standard deviation (0 for a single replication).
    pub stdev: f64,
}

impl Replicated {
    /// Computes mean and sample standard deviation.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(samples: &[f64]) -> Replicated {
        assert!(!samples.is_empty(), "need at least one sample");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let stdev = if samples.len() < 2 {
            0.0
        } else {
            (samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
        };
        Replicated { mean, stdev }
    }
}

impl std::fmt::Display for Replicated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}±{:.2}", self.mean, self.stdev)
    }
}

/// A closed-loop matrix replicated across seeds, with normalized metrics
/// computed within each replication before averaging (matching the paper's
/// "we repeat all simulations multiple times").
#[derive(Debug)]
pub struct ReplicatedMatrix {
    matrices: Vec<Vec<ClosedLoopRow>>,
}

impl ReplicatedMatrix {
    /// Runs the (seed x workload x mechanism) closed-loop grid — sharded at
    /// that granularity, so even a single-seed matrix fills every worker —
    /// into one workload-major, mechanism-minor matrix per seed.
    pub fn run(
        mechanisms: &[Mechanism],
        workloads: &[WorkloadParams],
        net_cfg: &NetworkConfig,
        warmup_txns: u64,
        measure_txns: u64,
        max_cycles: u64,
        seeds: &[u64],
    ) -> ReplicatedMatrix {
        assert!(!seeds.is_empty(), "need at least one seed");
        let cell = |seed, workload| {
            mechanisms.iter().map(move |mechanism| Job {
                mechanism,
                seed,
                kind: RunKind::ClosedLoop {
                    workload,
                    warmup_txns,
                    measure_txns,
                    max_cycles,
                },
            })
        };
        let jobs: Vec<Job<'_>> = seeds
            .iter()
            .flat_map(|&seed| workloads.iter().flat_map(move |&w| cell(seed, w)))
            .collect();
        let model = EnergyModel::new(EnergyParams::micro2010_70nm());
        let rows = grid("closed-loop-matrix", net_cfg, &jobs, |job, i, out| {
            ClosedLoopRow {
                workload: workloads[i / mechanisms.len() % workloads.len()].name,
                mechanism: job.mechanism.label,
                cycles: out.measured_cycles,
                injection_rate: out.injection_rate(),
                energy: job.mechanism.price(&model, &out.network),
                backpressured_fraction: out.stats.backpressured_fraction(),
                mode_switches: (
                    out.counters.mode_switches_forward,
                    out.counters.mode_switches_reverse,
                    out.counters.mode_switches_gossip,
                ),
                mean_deflections: out.stats.flit_deflections.mean().unwrap_or(0.0),
            }
        });
        let per_seed = workloads.len() * mechanisms.len();
        ReplicatedMatrix {
            matrices: rows
                .chunks(per_seed)
                .map(<[ClosedLoopRow]>::to_vec)
                .collect(),
        }
    }

    /// Number of replications.
    pub fn replications(&self) -> usize {
        self.matrices.len()
    }

    /// Normalized performance across replications.
    pub fn performance(&self, workload: &str, mechanism: &str, baseline: &str) -> Replicated {
        let samples: Vec<f64> = self
            .matrices
            .iter()
            .map(|m| normalized_performance(m, workload, mechanism, baseline))
            .collect();
        Replicated::of(&samples)
    }

    /// Normalized energy across replications.
    pub fn energy(&self, workload: &str, mechanism: &str, baseline: &str) -> Replicated {
        let samples: Vec<f64> = self
            .matrices
            .iter()
            .map(|m| normalized_energy(m, workload, mechanism, baseline))
            .collect();
        Replicated::of(&samples)
    }
}

/// Geometric mean.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        (log_sum / n as f64).exp()
    }
}

/// One point of a latency-throughput sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Offered rate, flits/node/cycle.
    pub offered: f64,
    /// Accepted throughput, flits/node/cycle.
    pub throughput: f64,
    /// Mean packet network latency (`None` if nothing was delivered).
    pub latency: Option<f64>,
    /// Mean deflections per delivered flit.
    pub mean_deflections: f64,
}

impl SweepPoint {
    /// The point an open-loop run at `offered` load measured.
    pub fn of(offered: f64, out: &RunOutcome) -> SweepPoint {
        SweepPoint {
            offered,
            throughput: out.stats.throughput(out.network.mesh().node_count()),
            latency: out.mean_latency(),
            mean_deflections: out.stats.flit_deflections.mean().unwrap_or(0.0),
        }
    }
}

/// Sweeps offered load for one mechanism under open-loop traffic.
#[allow(clippy::too_many_arguments)]
pub fn latency_throughput_sweep(
    mechanism: &Mechanism,
    rates: &[f64],
    net_cfg: &NetworkConfig,
    pattern: Pattern,
    mix: PacketMix,
    warmup_cycles: u64,
    measure_cycles: u64,
    seed: u64,
) -> Vec<SweepPoint> {
    open_loop_grid(
        std::slice::from_ref(mechanism),
        rates,
        net_cfg,
        pattern,
        mix,
        warmup_cycles,
        measure_cycles,
        seed,
        |_, offered, out| SweepPoint::of(offered, out),
    )
}

/// Runs the (mechanism x rate) open-loop grid, mechanism-major, and
/// reduces each cell with `reduce(mechanism, offered rate, outcome)`.
/// Mechanisms that share a network are simulated once per rate, so
/// `reduce` sees the counters their representative recorded: read timing
/// and statistics off the outcome freely, but price energy through
/// [`Mechanism::price`].
#[allow(clippy::too_many_arguments)] // a flat argument list mirrors the experiment's knobs
pub fn open_loop_grid<R, D>(
    mechanisms: &[Mechanism],
    rates: &[f64],
    net_cfg: &NetworkConfig,
    pattern: Pattern,
    mix: PacketMix,
    warmup_cycles: u64,
    measure_cycles: u64,
    seed: u64,
    reduce: D,
) -> Vec<R>
where
    R: Send,
    D: Fn(&Mechanism, f64, &RunOutcome) -> R + Sync,
{
    let jobs: Vec<Job<'_>> = mechanisms
        .iter()
        .flat_map(|mechanism| {
            let pattern = &pattern;
            rates.iter().map(move |&rate| Job {
                mechanism,
                seed,
                kind: RunKind::OpenLoop {
                    rate,
                    pattern: pattern.clone(),
                    mix,
                    warmup_cycles,
                    measure_cycles,
                },
            })
        })
        .collect();
    grid("open-loop-grid", net_cfg, &jobs, |job, i, out| {
        reduce(job.mechanism, rates[i % rates.len()], out)
    })
}

/// Estimates saturation throughput: the highest accepted throughput over a
/// sweep (flits/node/cycle).
pub fn saturation_throughput(points: &[SweepPoint]) -> f64 {
    points.iter().map(|p| p.throughput).fold(0.0, f64::max)
}

/// Open-loop traffic that additionally tracks per-quadrant latency (for the
/// Section V-B spatial-variation experiment).
#[derive(Debug)]
pub struct QuadrantTraffic {
    inner: OpenLoopTraffic,
    /// Latency of packets by source quadrant.
    pub latency_by_quadrant: [LatencyStats; 4],
}

impl QuadrantTraffic {
    /// Wraps an open-loop source.
    pub fn new(inner: OpenLoopTraffic) -> QuadrantTraffic {
        QuadrantTraffic {
            inner,
            latency_by_quadrant: Default::default(),
        }
    }

    /// Resets the per-quadrant statistics (end of warmup).
    pub fn reset(&mut self) {
        self.latency_by_quadrant = Default::default();
    }
}

impl TrafficModel for QuadrantTraffic {
    fn pre_cycle(&mut self, now: Cycle, net: &mut Network) {
        self.inner.pre_cycle(now, net);
    }

    fn on_delivered(&mut self, packet: &DeliveredPacket, now: Cycle, net: &mut Network) {
        self.inner.on_delivered(packet, now, net);
        let q = quadrant_of(packet.descriptor.src, net.mesh());
        self.latency_by_quadrant[q].record(packet.network_latency());
    }
}

/// Result of the spatial-variation experiment for one mechanism.
#[derive(Debug, Clone)]
pub struct SpatialResult {
    /// Mechanism label.
    pub mechanism: &'static str,
    /// Total network energy over the measurement window.
    pub energy: EnergyBreakdown,
    /// Mean latency of packets sourced in each quadrant (0 = the hot
    /// quadrant).
    pub latency_by_quadrant: [Option<f64>; 4],
    /// Fraction of router-cycles spent backpressured.
    pub backpressured_fraction: f64,
}

/// Runs the Section V-B experiment: an 8x8 mesh where quadrant 0 injects at
/// `hot_rate` and the rest at `cool_rate`, destinations staying within the
/// source quadrant.
pub fn spatial_experiment(
    mechanism: &Mechanism,
    hot_rate: f64,
    cool_rate: f64,
    warmup_cycles: u64,
    measure_cycles: u64,
    seed: u64,
) -> SpatialResult {
    let net_cfg = NetworkConfig::paper_8x8();
    let network =
        Network::new(net_cfg, mechanism.factory.as_ref(), seed).expect("paper 8x8 config is valid");
    let mesh = network.mesh().clone();
    let rates: Vec<f64> = mesh
        .nodes()
        .map(|n| {
            if quadrant_of(n, &mesh) == 0 {
                hot_rate
            } else {
                cool_rate
            }
        })
        .collect();
    let inner = OpenLoopTraffic::new(
        RateSpec::PerNode(rates),
        Pattern::Quadrant,
        PacketMix::paper(),
        seed,
    );
    let mut sim = afc_netsim::sim::Simulation::new(network, QuadrantTraffic::new(inner));
    sim.run(warmup_cycles);
    sim.network.reset_metrics();
    sim.traffic.reset();
    sim.run(measure_cycles);

    let model = EnergyModel::new(EnergyParams::micro2010_70nm());
    let energy = mechanism.price(&model, &sim.network);
    let latency_by_quadrant = [0, 1, 2, 3].map(|q| sim.traffic.latency_by_quadrant[q].mean());
    SpatialResult {
        mechanism: mechanism.label,
        energy,
        latency_by_quadrant,
        backpressured_fraction: sim.network.stats().backpressured_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::fig2_mechanisms;
    use afc_traffic::workloads;

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(std::iter::empty::<f64>()).is_nan());
    }

    #[test]
    fn matrix_and_normalization() {
        let mechs = fig2_mechanisms();
        let rows = closed_loop_matrix(
            &mechs[..2], // backpressured + backpressureless for speed
            &[workloads::water()],
            &NetworkConfig::paper_3x3(),
            20,
            60,
            3_000_000,
            3,
        );
        assert_eq!(rows.len(), 2);
        let p = normalized_performance(&rows, "water", "backpressured", "backpressured");
        assert!((p - 1.0).abs() < 1e-12);
        let e = normalized_energy(&rows, "water", "backpressureless", "backpressured");
        assert!(
            e > 0.0 && e < 1.0,
            "bufferless must save energy at low load"
        );
        // An empty axis is an empty matrix, not a panic.
        let cfg = NetworkConfig::paper_3x3();
        assert!(closed_loop_matrix(&mechs, &[], &cfg, 20, 60, 3_000_000, 3).is_empty());
        assert!(
            closed_loop_matrix(&[], &[workloads::water()], &cfg, 20, 60, 3_000_000, 3).is_empty()
        );
    }

    #[test]
    fn replicated_statistics() {
        let r = Replicated::of(&[1.0, 2.0, 3.0]);
        assert!((r.mean - 2.0).abs() < 1e-12);
        assert!((r.stdev - 1.0).abs() < 1e-12);
        assert_eq!(format!("{r}"), "2.00±1.00");
        let single = Replicated::of(&[5.0]);
        assert_eq!(single.stdev, 0.0);
    }

    #[test]
    fn replicated_matrix_reports_variance() {
        let mechs = fig2_mechanisms();
        let rm = ReplicatedMatrix::run(
            &mechs[..2],
            &[workloads::water()],
            &NetworkConfig::paper_3x3(),
            20,
            60,
            3_000_000,
            &[1, 2],
        );
        assert_eq!(rm.replications(), 2);
        let p = rm.performance("water", "backpressureless", "backpressured");
        assert!(p.mean > 0.5 && p.mean < 1.5);
        assert!(p.stdev >= 0.0);
        let e = rm.energy("water", "backpressureless", "backpressured");
        assert!(e.mean < 1.0);
    }

    #[test]
    fn sweep_points_are_monotone_in_offered_rate() {
        let mechs = fig2_mechanisms();
        let points = latency_throughput_sweep(
            &mechs[0],
            &[0.02, 0.10],
            &NetworkConfig::paper_3x3(),
            Pattern::UniformRandom,
            PacketMix::single_flit(),
            500,
            2_000,
            5,
        );
        assert_eq!(points.len(), 2);
        assert!(points[1].throughput > points[0].throughput);
        assert!(saturation_throughput(&points) >= points[1].throughput);
    }
}
