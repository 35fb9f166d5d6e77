//! The four workloads and their cases. Names are final: they key
//! `expected.json`, `BENCHMARK.json` and every later before/after table.
//!
//! Every traffic and fault seed is derived from the harness `--seed`; at
//! seed 1 the `fig2.*` jobs are exactly the jobs behind `results/fig2.txt`.

use afc_bench::sweep::{RunKind, RunSpec, SweepSpec};
use afc_bench::MechanismId;
use afc_netsim::config::{NetworkConfig, RetransmitConfig};
use afc_netsim::faults::FaultPlan;
use afc_traffic::openloop::PacketMix;
use afc_traffic::synthetic::Pattern;
use afc_traffic::workloads;

/// Workload names and why each exists (the same text as `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper_sweep",
        "the paper's evaluation as one-worker sweeps (Fig. 2 closed loop, open-loop curves, 16x16 grid, faults): scheduling, construction/reset, traffic and pricing dominate, not the saturated datapath",
    ),
    (
        "mesh8_sat",
        "8x8 uniform random at 0.30 flits/node/cycle, all four mechanisms: router arbitration, channels and NIs do ~99% of the work; sweep and set-up do none",
    ),
    (
        "mesh8_light",
        "the same layers used differently: 8x8 at 0.05 (idle walk, traffic generation) and 0.10 under link churn (fault-aware routing, gossip, credit resync); a saturation-only gain must not tax these",
    ),
    (
        "mesh32_sat",
        "32x32 at 0.08, ~11 MB per network: working set far beyond L2, where layout changes show and set-up time and heap are large enough to move",
    ),
];

/// The four mechanisms of the step cases, by the short names used in
/// case and metric names.
pub const MECHS: [(&str, MechanismId); 4] = [
    ("bp", MechanismId::Backpressured),
    ("bpl", MechanismId::Backpressureless),
    ("drop", MechanismId::Drop),
    ("afc", MechanismId::Afc),
];

/// The six mechanisms of Figure 2 (panel (b) adds the two bypass bounds).
const FIG2_MECHS: [MechanismId; 6] = [
    MechanismId::Backpressured,
    MechanismId::BpReadBypass,
    MechanismId::BpIdealBypass,
    MechanismId::Backpressureless,
    MechanismId::AfcAlwaysBp,
    MechanismId::Afc,
];

/// Full-size cases, or the same cases shrunk so the unit tests' smoke runs
/// finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

impl Size {
    fn cycles(self, full: u64, smoke: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// A step case: one network driven by open-loop uniform-random traffic.
#[derive(Debug, Clone)]
pub struct StepSpec {
    /// Index into [`MECHS`].
    pub mech: usize,
    pub cfg: NetworkConfig,
    pub rate: f64,
    pub warmup: u64,
    pub segment: u64,
    pub seed: u64,
}

#[derive(Debug, Clone)]
pub enum CaseKind {
    Step(StepSpec),
    Sweep(SweepSpec),
}

#[derive(Debug, Clone)]
pub struct CaseSpec {
    pub name: String,
    pub kind: CaseKind,
}

impl CaseSpec {
    /// Nodes of the case's mesh.
    pub fn nodes(&self) -> usize {
        let cfg = match &self.kind {
            CaseKind::Step(spec) => &spec.cfg,
            CaseKind::Sweep(spec) => &spec.net_cfg,
        };
        usize::from(cfg.width) * usize::from(cfg.height)
    }
}

fn mesh(side: u16) -> NetworkConfig {
    NetworkConfig {
        width: side,
        height: side,
        ..NetworkConfig::paper_8x8()
    }
}

/// One [`StepSpec`] per mechanism, in [`MECHS`] order, each with its own
/// traffic seed: what a seed does to the amount of work (a few per cent in
/// saturation) then averages out over the family instead of adding up.
fn step_specs(
    cfg: &NetworkConfig,
    rate: f64,
    warmup: u64,
    segment: u64,
    seed: u64,
) -> Vec<StepSpec> {
    (0..MECHS.len())
        .map(|mech| StepSpec {
            mech,
            cfg: cfg.clone(),
            rate,
            warmup,
            segment,
            seed: seed + 1_000 * mech as u64,
        })
        .collect()
}

fn step_family(
    family: &str,
    cfg: &NetworkConfig,
    rate: f64,
    warmup: u64,
    segment: u64,
    seed: u64,
) -> Vec<CaseSpec> {
    step_specs(cfg, rate, warmup, segment, seed)
        .into_iter()
        .map(|spec| CaseSpec {
            name: format!("{family}.{}", MECHS[spec.mech].0),
            kind: CaseKind::Step(spec),
        })
        .collect()
}

fn open_loop(rate: f64, warmup_cycles: u64, measure_cycles: u64) -> RunKind {
    RunKind::OpenLoop {
        rate,
        pattern: Pattern::UniformRandom,
        mix: PacketMix::paper(),
        warmup_cycles,
        measure_cycles,
    }
}

fn sweep_case(name: String, net_cfg: NetworkConfig, runs: Vec<RunSpec>) -> CaseSpec {
    CaseSpec {
        kind: CaseKind::Sweep(SweepSpec {
            name: name.clone(),
            net_cfg,
            runs,
        }),
        name,
    }
}

fn paper_sweep(seed: u64, size: Size) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    let (warm_txns, measure_txns) = (size.cycles(500, 20), size.cycles(2_000, 60));
    for w in workloads::low_load()
        .into_iter()
        .chain(workloads::high_load())
    {
        let runs = FIG2_MECHS
            .iter()
            .map(|&mechanism| RunSpec {
                mechanism,
                seed,
                kind: RunKind::ClosedLoop {
                    workload: w,
                    warmup_txns: warm_txns,
                    measure_txns,
                    max_cycles: 50_000_000,
                },
            })
            .collect();
        cases.push(sweep_case(
            format!("fig2.{}", w.name),
            NetworkConfig::paper_3x3(),
            runs,
        ));
    }
    let (warm, measure) = (size.cycles(3_000, 100), size.cycles(15_000, 300));
    for (short, mechanism) in MECHS {
        let runs = [0.05, 0.20, 0.35, 0.50, 0.65]
            .iter()
            .map(|&rate| RunSpec {
                mechanism,
                seed,
                kind: open_loop(rate, warm, measure),
            })
            .collect();
        cases.push(sweep_case(
            format!("open3.{short}"),
            NetworkConfig::paper_3x3(),
            runs,
        ));
    }
    // Ordinary short jobs on a mid-size mesh: construction, the arena pool
    // and the warm cache are a visible share of each job.
    let (warm, measure) = (size.cycles(400, 20), size.cycles(600, 30));
    for (short, mechanism) in MECHS {
        let runs = [0.02, 0.05, 0.08, 0.12]
            .iter()
            .flat_map(|&rate| {
                (0..3).map(move |k| RunSpec {
                    mechanism,
                    seed: seed + 1_000 * k,
                    kind: open_loop(rate, warm, measure),
                })
            })
            .collect();
        cases.push(sweep_case(format!("grid16.{short}"), mesh(16), runs));
    }
    let runs = MECHS
        .iter()
        .flat_map(|&(_, mechanism)| {
            [1e-3, 1e-4].into_iter().map(move |drop_rate| RunSpec {
                mechanism,
                seed,
                kind: RunKind::Fault {
                    rate: 0.10,
                    drop_rate,
                    corrupt_rate: 1e-3,
                    inject_cycles: size.cycles(2_000, 100),
                    drain_cycles: 400_000,
                },
            })
        })
        .collect();
    cases.push(sweep_case(
        "faults3".to_string(),
        NetworkConfig::paper_3x3(),
        runs,
    ));
    cases
}

fn mesh8_light(seed: u64, size: Size) -> Vec<CaseSpec> {
    let (warmup, low_seg, churn_seg) = (
        size.cycles(2_000, 100),
        size.cycles(60_000, 400),
        size.cycles(6_000, 300),
    );
    let cfg = NetworkConfig::paper_8x8();
    let mut cases = step_family("low8", &cfg, 0.05, warmup, low_seg, seed);
    let churn_cfg = NetworkConfig {
        retransmit: Some(RetransmitConfig {
            timeout: 300,
            backoff_cap: 2,
            max_attempts: 0,
        }),
        ..cfg
    };
    let mut churn = step_family("churn8", &churn_cfg, 0.10, warmup, churn_seg, seed);
    // Rolling link outages for the whole run, a plan per case: the
    // clean-route cache is bypassed, next hops come from BFS over the alive
    // graph, every revival runs the credit-resync handshake.
    for case in &mut churn {
        if let CaseKind::Step(spec) = &mut case.kind {
            spec.cfg.faults = FaultPlan::none().with_churn(
                &spec.cfg.mesh().expect("8x8 mesh"),
                spec.seed,
                size.cycles(500, 50),
                0.5,
                warmup + churn_seg,
            );
        }
    }
    cases.extend(churn);
    cases
}

/// The cases of `workload` for `seed`, or `None` for an unknown name.
pub fn workload(workload: &str, seed: u64, size: Size) -> Option<Vec<CaseSpec>> {
    Some(match workload {
        "paper_sweep" => paper_sweep(seed, size),
        "mesh8_sat" => step_family(
            "sat8",
            &NetworkConfig::paper_8x8(),
            0.30,
            size.cycles(2_000, 100),
            size.cycles(8_000, 300),
            seed,
        ),
        "mesh8_light" => mesh8_light(seed, size),
        "mesh32_sat" => step_family(
            "sat32",
            &mesh(32),
            0.08,
            size.cycles(600, 20),
            size.cycles(200, 10),
            seed,
        ),
        _ => return None,
    })
}

/// Step cases the traced run drives call by call for the per-layer numbers.
/// The mesh workloads probe their own cases; `paper_sweep`'s jobs are
/// opaque from outside, so it probes one `grid16`-shaped network per
/// mechanism (the job shape where construction and reset matter).
pub fn probes(workload_name: &str, seed: u64, size: Size) -> Vec<StepSpec> {
    if workload_name != "paper_sweep" {
        return Vec::new();
    }
    let (warmup, segment) = (size.cycles(400, 20), size.cycles(600, 30));
    step_specs(&mesh(16), 0.12, warmup, segment, seed)
}

/// Every case name of every workload, in `BENCHMARK.json` order.
pub fn all_case_names() -> Vec<String> {
    WORKLOADS
        .iter()
        .flat_map(|(w, _)| workload(w, 1, Size::Full).expect("known workload"))
        .map(|c| c.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_and_job_counts_match_the_issue() {
        let cases = workload("paper_sweep", 1, Size::Full).unwrap();
        assert_eq!(cases.len(), 15);
        let jobs: usize = cases
            .iter()
            .map(|c| match &c.kind {
                CaseKind::Sweep(s) => s.runs.len(),
                CaseKind::Step(_) => 0,
            })
            .sum();
        assert_eq!(jobs, 112);
        assert_eq!(all_case_names().len(), 31);
        assert!(workload("nope", 1, Size::Full).is_none());
    }

    #[test]
    fn seeds_reach_every_case() {
        let a = format!("{:?}", workload("mesh8_light", 1, Size::Smoke).unwrap());
        let b = format!("{:?}", workload("mesh8_light", 2, Size::Smoke).unwrap());
        assert_ne!(a, b);
        assert_eq!(
            a,
            format!("{:?}", workload("mesh8_light", 1, Size::Smoke).unwrap())
        );
    }
}
