//! Determinism regression tests for the sweep engine: results must be
//! bit-identical regardless of worker count, reproducible for a fixed
//! seed, and actually sensitive to the seed (a sweep whose outputs never
//! change with the seed would be vacuous determinism).
//!
//! Byte equality of [`SweepResults::serialize`] is the comparison:
//! floats are rendered with `{:?}` (shortest round-trip), so equal bytes
//! means equal bits.

use afc_bench::sweep::{RunKind, RunSpec, SweepSpec};
use afc_bench::MechanismId;
use afc_netsim::config::NetworkConfig;
use afc_traffic::openloop::PacketMix;
use afc_traffic::synthetic::Pattern;
use afc_traffic::workloads;

/// A deliberately heterogeneous spec: closed-loop, open-loop, and fault
/// runs across all four paper mechanisms, so the thread-count sweep
/// exercises every executor path.
fn mixed_spec(seed: u64) -> SweepSpec {
    let workload = workloads::all()[0];
    let mut runs = Vec::new();
    for &mechanism in &[
        MechanismId::Backpressured,
        MechanismId::Backpressureless,
        MechanismId::Drop,
        MechanismId::Afc,
    ] {
        runs.push(RunSpec {
            mechanism,
            seed,
            kind: RunKind::OpenLoop {
                rate: 0.15,
                pattern: Pattern::UniformRandom,
                mix: PacketMix::paper(),
                warmup_cycles: 500,
                measure_cycles: 1_500,
            },
        });
        runs.push(RunSpec {
            mechanism,
            seed,
            kind: RunKind::Fault {
                rate: 0.10,
                drop_rate: 5e-4,
                corrupt_rate: 5e-4,
                inject_cycles: 1_000,
                drain_cycles: 100_000,
            },
        });
    }
    runs.push(RunSpec {
        mechanism: MechanismId::Afc,
        seed,
        kind: RunKind::ClosedLoop {
            workload,
            warmup_txns: 50,
            measure_txns: 200,
            max_cycles: 500_000,
        },
    });
    SweepSpec {
        name: "determinism-test".into(),
        net_cfg: NetworkConfig::paper_3x3(),
        runs,
    }
}

#[test]
fn results_are_byte_identical_across_thread_counts() {
    let spec = mixed_spec(7);
    let serial = spec.execute_with_threads(1).serialize();
    for threads in [2, 8] {
        let parallel = spec.execute_with_threads(threads).serialize();
        assert_eq!(
            serial, parallel,
            "sweep results differ between 1 and {threads} threads"
        );
    }
}

#[test]
fn same_seed_reproduces_bit_identical_results() {
    let a = mixed_spec(42).execute_with_threads(2).serialize();
    let b = mixed_spec(42).execute_with_threads(2).serialize();
    assert_eq!(a, b, "identical specs must reproduce identical bytes");
}

#[test]
fn different_seeds_produce_different_results() {
    let a = mixed_spec(1).execute_with_threads(2).serialize();
    let b = mixed_spec(2).execute_with_threads(2).serialize();
    assert_ne!(
        a, b,
        "seed change left every run output untouched — runs are ignoring their seed"
    );
}

#[test]
fn output_rows_stay_in_spec_order() {
    let spec = mixed_spec(3);
    let results = spec.execute_with_threads(8);
    assert_eq!(results.outputs.len(), spec.runs.len());
    for (run, out) in spec.runs.iter().zip(&results.outputs) {
        assert_eq!(
            run.label(),
            out.label,
            "output row order does not match spec order"
        );
    }
}

// ---------------------------------------------------------------------------
// The planner's differential wall: a sweep that coalesces runs into shared
// simulations must produce exactly the bytes of executing every run by
// itself — through the planner as a sweep of one (`RunSpec::execute`) and
// on the run's own network with no representative at all
// (`RunSpec::execute_alone`).
// ---------------------------------------------------------------------------

use afc_bench::sweep::{set_threads, RunOutput, SweepManifest};

fn wall_kinds() -> [RunKind; 3] {
    [
        RunKind::ClosedLoop {
            workload: workloads::all()[0],
            warmup_txns: 20,
            measure_txns: 80,
            max_cycles: 500_000,
        },
        RunKind::OpenLoop {
            rate: 0.30,
            pattern: Pattern::UniformRandom,
            mix: PacketMix::paper(),
            warmup_cycles: 200,
            measure_cycles: 600,
        },
        RunKind::Fault {
            rate: 0.10,
            drop_rate: 1e-3,
            corrupt_rate: 1e-3,
            inject_cycles: 400,
            drain_cycles: 100_000,
        },
    ]
}

fn spec_of(name: &str, runs: Vec<RunSpec>) -> SweepSpec {
    SweepSpec {
        name: name.into(),
        net_cfg: NetworkConfig::paper_3x3(),
        runs,
    }
}

/// Every kind x every mechanism x two seeds.
fn wall_spec() -> SweepSpec {
    let mut runs = Vec::new();
    for kind in wall_kinds() {
        for mechanism in MechanismId::ALL {
            for seed in [5, 6] {
                runs.push(RunSpec {
                    mechanism,
                    seed,
                    kind: kind.clone(),
                });
            }
        }
    }
    spec_of("planner-wall", runs)
}

fn per_job(spec: &SweepSpec, execute: impl Fn(&RunSpec) -> RunOutput) -> String {
    let outputs = spec.runs.iter().map(execute).collect();
    afc_bench::sweep::SweepResults { outputs }.serialize()
}

fn assert_planned_equals_per_job(spec: &SweepSpec) {
    let planned = per_job(spec, |run| run.execute(&spec.net_cfg));
    let alone = per_job(spec, |run| run.execute_alone(&spec.net_cfg));
    assert_eq!(
        planned, alone,
        "{}: a run derived from its representative differs from the run on its own network",
        spec.name
    );
    for threads in [1, 2, 8] {
        assert_eq!(
            spec.execute_with_threads(threads).serialize(),
            alone,
            "{}: planned sweep at {threads} threads differs from per-job execution",
            spec.name
        );
    }
}

#[test]
fn planned_sweep_equals_per_job_execution_for_every_kind_and_mechanism() {
    let spec = wall_spec();
    assert_planned_equals_per_job(&spec);
    // Non-vacuity: the three backpressured accountings really are three
    // different prices of one set of cycles.
    let out = spec.execute_with_threads(1).outputs;
    let by_label = |label: &str| {
        out.iter()
            .find(|o| o.label == format!("{label}/open@0.300@5"))
            .unwrap_or_else(|| panic!("no {label} row"))
    };
    let (sram, real, ideal) = (
        by_label("backpressured"),
        by_label("bp-read-bypass"),
        by_label("bp-ideal-bypass"),
    );
    assert_eq!(sram.cycles, real.cycles);
    assert_eq!(sram.mean_latency, ideal.mean_latency);
    assert!(ideal.energy_pj < real.energy_pj && real.energy_pj < sram.energy_pj);
}

#[test]
fn duplicate_specs_and_lone_class_members_take_the_same_path() {
    let open = wall_kinds()[1].clone();
    let run = |mechanism| RunSpec {
        mechanism,
        seed: 9,
        kind: open.clone(),
    };
    // Exact duplicates coalesce like class members do.
    let duplicates = spec_of(
        "planner-duplicates",
        vec![
            run(MechanismId::Afc),
            run(MechanismId::Backpressured),
            run(MechanismId::Afc),
            run(MechanismId::Backpressured),
            run(MechanismId::Afc),
        ],
    );
    assert_planned_equals_per_job(&duplicates);
    // A class member with no sibling in the sweep is still simulated as
    // its representative and re-priced.
    for lone in [MechanismId::Backpressured, MechanismId::BpIdealBypass] {
        let spec = spec_of("planner-lone", vec![run(MechanismId::Drop), run(lone)]);
        assert_planned_equals_per_job(&spec);
    }
}

#[test]
fn resume_completes_a_half_recorded_class_unit_to_the_same_bytes() {
    let open = wall_kinds()[1].clone();
    let spec = spec_of(
        "planner-resume",
        [
            MechanismId::Backpressured,
            MechanismId::BpReadBypass,
            MechanismId::BpIdealBypass,
            MechanismId::Afc,
        ]
        .into_iter()
        .map(|mechanism| RunSpec {
            mechanism,
            seed: 4,
            kind: open.clone(),
        })
        .collect(),
    );
    let reference = spec.execute_with_threads(1);
    let dir = std::env::temp_dir().join(format!("afc-plan-resume-{}", std::process::id()));
    let path = dir.join("planner-resume.manifest");
    set_threads(2);
    // As if the process died after writing one member of the backpressured
    // unit: only the read-bypass row is on record.
    let mut partial = SweepManifest::new(&spec);
    partial.record(1, &reference.outputs[1]);
    partial.save(&path).unwrap();
    let resumed = spec.execute_resumable(&path, true).unwrap();
    assert_eq!(resumed.serialize(), reference.serialize());
    assert_eq!(SweepManifest::load(&path).unwrap().jobs.len(), 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_panicking_representative_fails_every_member_and_nobody_else() {
    // A 10-cycle budget cannot finish warmup: the shared simulation panics.
    let doomed = RunKind::ClosedLoop {
        workload: workloads::all()[0],
        warmup_txns: 20,
        measure_txns: 80,
        max_cycles: 10,
    };
    let mut runs: Vec<RunSpec> = [
        MechanismId::Backpressured,
        MechanismId::BpReadBypass,
        MechanismId::BpIdealBypass,
    ]
    .into_iter()
    .map(|mechanism| RunSpec {
        mechanism,
        seed: 2,
        kind: doomed.clone(),
    })
    .collect();
    runs.insert(
        1,
        RunSpec {
            mechanism: MechanismId::Afc,
            seed: 2,
            kind: wall_kinds()[0].clone(),
        },
    );
    let spec = spec_of("planner-panic", runs);
    // What a run reports when it fails on its own network: a member's row
    // must not betray that another mechanism's network was simulated for it.
    let alone = |run: &RunSpec| {
        let alone = std::panic::AssertUnwindSafe(|| run.execute_alone(&spec.net_cfg));
        let payload = std::panic::catch_unwind(alone).expect_err("the budget is 10 cycles");
        let message = payload.downcast_ref::<String>().expect("formatted panic");
        format!("panic after 2 attempts: {message}")
    };
    for threads in [1, 2] {
        let out = spec.execute_with_threads(threads).outputs;
        for (i, (run, o)) in spec.runs.iter().zip(&out).enumerate() {
            assert_eq!(o.label, run.label());
            if i == 1 {
                assert_eq!(o.outcome, "ok", "the healthy run must survive");
            } else {
                assert!(
                    o.outcome.contains("warmup did not finish"),
                    "member {i}: {}",
                    o.outcome
                );
                assert_eq!(o.outcome, alone(run), "member {i}");
                assert_eq!(o.cycles, 0);
            }
        }
    }
}
