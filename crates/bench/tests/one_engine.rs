//! The two former experiment engines are one: a figure's grid
//! (`experiments::closed_loop_matrix`, what `fig2` runs) and a declarative
//! [`SweepSpec`] of the same scenarios go through one planner and one
//! executor, so they must agree to the bit — at any worker count, on a
//! cold worker and on one whose arena an earlier sweep left behind.

use afc_bench::experiments::closed_loop_matrix;
use afc_bench::sweep::{pool_clear, set_threads, RunKind, RunSpec, SweepSpec};
use afc_bench::{all_mechanisms, MechanismId};
use afc_netsim::config::NetworkConfig;
use afc_traffic::workloads;

#[test]
fn fig2_quick_grid_equals_the_sweep_spec_of_the_same_run_kinds() {
    // `fig2 --quick`: all seven mechanisms, the six workloads, seed 1.
    let (warmup_txns, measure_txns, max_cycles) = (100, 400, 50_000_000);
    let cfg = NetworkConfig::paper_3x3();
    let mechanisms = all_mechanisms();
    let workloads = workloads::all();
    let spec = SweepSpec {
        name: "fig2-quick".into(),
        net_cfg: cfg.clone(),
        runs: workloads
            .iter()
            .flat_map(|&workload| {
                MechanismId::ALL.into_iter().map(move |mechanism| RunSpec {
                    mechanism,
                    seed: 1,
                    kind: RunKind::ClosedLoop {
                        workload,
                        warmup_txns,
                        measure_txns,
                        max_cycles,
                    },
                })
            })
            .collect(),
    };
    for threads in [1, 2] {
        set_threads(threads);
        let outputs = spec.execute_with_threads(threads).outputs;
        pool_clear();
        for worker in ["cold", "pooled"] {
            let rows = closed_loop_matrix(
                &mechanisms,
                &workloads,
                &cfg,
                warmup_txns,
                measure_txns,
                max_cycles,
                1,
            );
            assert_eq!(rows.len(), outputs.len());
            for (row, out) in rows.iter().zip(&outputs) {
                let at = format!("{} at {threads} workers, {worker}", out.label);
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
}
