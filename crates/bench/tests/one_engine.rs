//! The two former experiment engines are one: a figure's grid
//! (`experiments::closed_loop_matrix`, what `fig2` runs) and a declarative
//! [`SweepSpec`] of the same scenarios go through one planner and one
//! executor, so they must agree to the bit — at any worker count.
//!
//! The grids of `fig2 --quick` and `open_loop --quick` are also held to
//! the reference: planned, they must equal every run executed alone on its
//! own network ([`RunSpec::execute_alone`]), byte for byte — the proof that
//! the three backpressured accountings may share one simulation.

use afc_bench::experiments::closed_loop_matrix;
use afc_bench::sweep::{set_threads, RunKind, RunOutput, RunSpec, SweepResults, SweepSpec};
use afc_bench::{all_mechanisms, MechanismId};
use afc_netsim::config::NetworkConfig;
use afc_traffic::openloop::PacketMix;
use afc_traffic::synthetic::Pattern;
use afc_traffic::workloads;

/// Every run of `spec` executed alone, serialized: what the planned sweep
/// must reproduce.
fn alone(spec: &SweepSpec) -> String {
    let outputs = spec.runs.iter().map(|run| run.execute_alone(&spec.net_cfg));
    SweepResults {
        outputs: outputs.collect(),
    }
    .serialize()
}

/// Planned at 1 and 2 workers, `spec` equals [`alone`]; and the comparison
/// is not vacuous: in every cell (seed and scenario) the three
/// backpressured rows ran the same cycles at strictly ordered energy
/// (ideal bypass < read bypass < SRAM reads).
fn assert_planned_equals_alone(spec: &SweepSpec) {
    let reference = alone(spec);
    let mut outputs = Vec::new();
    for threads in [1, 2] {
        let planned = spec.execute_with_threads(threads);
        assert_eq!(
            planned.serialize(),
            reference,
            "{}: planned at {threads} workers differs from every run executed alone",
            spec.name
        );
        outputs = planned.outputs;
    }
    let row = |mechanism, cell: &RunSpec| -> &RunOutput {
        let same = |run: &RunSpec| {
            run.mechanism == mechanism
                && run.seed == cell.seed
                && format!("{:?}", run.kind) == format!("{:?}", cell.kind)
        };
        let at = spec.runs.iter().position(same);
        &outputs[at.unwrap_or_else(|| panic!("{}: no {mechanism:?} row", cell.label()))]
    };
    let cells = spec.runs.iter();
    let cells: Vec<&RunSpec> = cells
        .filter(|run| run.mechanism == MechanismId::Backpressured)
        .collect();
    assert!(!cells.is_empty(), "{}: no backpressured cell", spec.name);
    for cell in cells {
        let [sram, real, ideal] = [
            MechanismId::Backpressured,
            MechanismId::BpReadBypass,
            MechanismId::BpIdealBypass,
        ]
        .map(|mechanism| row(mechanism, cell));
        assert!(sram.cycles > 0, "{}", sram.label);
        assert_eq!(sram.cycles, real.cycles, "{}", sram.label);
        assert_eq!(sram.cycles, ideal.cycles, "{}", sram.label);
        assert!(
            ideal.energy_pj < real.energy_pj && real.energy_pj < sram.energy_pj,
            "{}: energy not ordered ideal < read bypass < SRAM: {} {} {}",
            sram.label,
            ideal.energy_pj,
            real.energy_pj,
            sram.energy_pj
        );
    }
}

/// `fig2 --quick`'s transactions: warm-up, measured, cycle budget.
const WARMUP_TXNS: u64 = 100;
const MEASURE_TXNS: u64 = 400;
const MAX_CYCLES: u64 = 50_000_000;

/// `fig2 --quick`'s grid: all seven mechanisms, the six workloads, seed 1.
fn fig2_quick_spec() -> SweepSpec {
    SweepSpec {
        name: "fig2-quick".into(),
        net_cfg: NetworkConfig::paper_3x3(),
        runs: workloads::all()
            .into_iter()
            .flat_map(|workload| {
                MechanismId::ALL.into_iter().map(move |mechanism| RunSpec {
                    mechanism,
                    seed: 1,
                    kind: RunKind::ClosedLoop {
                        workload,
                        warmup_txns: WARMUP_TXNS,
                        measure_txns: MEASURE_TXNS,
                        max_cycles: MAX_CYCLES,
                    },
                })
            })
            .collect(),
    }
}

#[test]
fn fig2_quick_grid_equals_the_sweep_spec_of_the_same_run_kinds() {
    let cfg = NetworkConfig::paper_3x3();
    let mechanisms = all_mechanisms();
    let workloads = workloads::all();
    let spec = fig2_quick_spec();
    for threads in [1, 2] {
        set_threads(threads);
        let outputs = spec.execute_with_threads(threads).outputs;
        let rows = closed_loop_matrix(
            &mechanisms,
            &workloads,
            &cfg,
            WARMUP_TXNS,
            MEASURE_TXNS,
            MAX_CYCLES,
            1,
        );
        assert_eq!(rows.len(), outputs.len());
        for (row, out) in rows.iter().zip(&outputs) {
            let at = format!("{} at {threads} workers", out.label);
            assert_eq!(format!("{}/{}@1", row.mechanism, row.workload), out.label);
            assert_eq!(row.cycles, out.cycles, "{at}");
            assert_eq!(
                row.injection_rate.to_bits(),
                out.injection_rate.to_bits(),
                "{at}"
            );
            assert_eq!(
                row.energy.total().to_bits(),
                out.energy_pj.to_bits(),
                "{at}"
            );
            let (row_bp, out_bp) = (row.backpressured_fraction, out.backpressured_fraction);
            assert_eq!(row_bp.to_bits(), out_bp.to_bits(), "{at}");
        }
    }
}

#[test]
fn fig2_quick_planned_equals_every_run_executed_alone() {
    assert_planned_equals_alone(&fig2_quick_spec());
}

#[test]
fn open_loop_quick_planned_equals_every_run_executed_alone() {
    // `open_loop --quick`: every mechanism across its five rates, then the
    // two rates of its latency-percentile table, 1 000 + 4 000 cycles, seed 1.
    let rates = [0.05, 0.20, 0.35, 0.50, 0.65, 0.10, 0.45];
    let runs = MechanismId::ALL.into_iter().flat_map(|mechanism| {
        rates.map(|rate| RunSpec {
            mechanism,
            seed: 1,
            kind: RunKind::OpenLoop {
                rate,
                pattern: Pattern::UniformRandom,
                mix: PacketMix::paper(),
                warmup_cycles: 1_000,
                measure_cycles: 4_000,
            },
        })
    });
    assert_planned_equals_alone(&SweepSpec {
        name: "open-loop-quick".into(),
        net_cfg: NetworkConfig::paper_3x3(),
        runs: runs.collect(),
    });
}
