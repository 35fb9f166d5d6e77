//! Warm-cache admission, end to end (DESIGN.md §7): the process-wide cache
//! seals a warm-up on its key's *second* miss, so a paper-shaped sweep run
//! once serialises and holds nothing, run twice seals one entry per
//! simulated unit, and run a third time restores every one of them — with
//! the same bytes out of every pass.
//!
//! The cache and its counters are process-wide; a single `#[test]` keeps
//! concurrent test threads out of the deltas read here.

use std::time::Instant;

use afc_bench::sweep::{pool_clear, pool_stats, warm_cache, RunKind, RunSpec, SweepSpec};
use afc_bench::MechanismId;
use afc_netsim::config::NetworkConfig;
use afc_traffic::openloop::PacketMix;
use afc_traffic::synthetic::Pattern;
use afc_traffic::workloads;

/// The paper's evaluation in miniature, with how many networks each sweep
/// simulates: Fig. 2's closed loop on the 3×3 mesh — the three backpressured
/// accountings are one unit, so five runs per workload are three units — and
/// the open-loop grid on a 16×16 mesh, one unit per run.
fn paper_shaped() -> [(SweepSpec, usize); 2] {
    let fig2 = [
        MechanismId::Backpressured,
        MechanismId::BpReadBypass,
        MechanismId::BpIdealBypass,
        MechanismId::Backpressureless,
        MechanismId::Afc,
    ];
    let closed = [workloads::water(), workloads::apache()]
        .into_iter()
        .flat_map(|workload| {
            fig2.map(|mechanism| RunSpec {
                mechanism,
                seed: 1,
                kind: RunKind::ClosedLoop {
                    workload,
                    warmup_txns: 100,
                    measure_txns: 200,
                    max_cycles: 50_000_000,
                },
            })
        })
        .collect();
    let grid = [
        MechanismId::Backpressured,
        MechanismId::Backpressureless,
        MechanismId::Drop,
        MechanismId::Afc,
    ];
    let open = grid
        .into_iter()
        .map(|mechanism| RunSpec {
            mechanism,
            seed: 7,
            kind: RunKind::OpenLoop {
                rate: 0.05,
                pattern: Pattern::UniformRandom,
                mix: PacketMix::paper(),
                warmup_cycles: 400,
                measure_cycles: 100,
            },
        })
        .collect();
    let spec = |name: &str, net_cfg, runs| SweepSpec {
        name: name.to_string(),
        net_cfg,
        runs,
    };
    let mesh16 = NetworkConfig {
        width: 16,
        height: 16,
        ..NetworkConfig::paper_8x8()
    };
    [
        (
            spec("admission_closed", NetworkConfig::paper_3x3(), closed),
            6,
        ),
        (spec("admission_open", mesh16, open), 4),
    ]
}

#[test]
fn a_sweep_seals_on_its_second_pass_and_restores_on_its_third() {
    let specs = paper_shaped();
    let units: usize = specs.iter().map(|(_, units)| units).sum();
    let reference: Vec<String> = specs
        .iter()
        .map(|(spec, _)| spec.execute_with_threads_tuned(1, false, false).serialize())
        .collect();
    assert_eq!(
        warm_cache().usage(),
        (0, 0),
        "the reference passes no store"
    );

    // (entries resident after the pass, warm hits, warm misses)
    let expected = [(0, 0, units), (units, 0, units), (units, units, 0)];
    for (pass, expected) in expected.into_iter().enumerate() {
        pool_clear();
        let (_, _, hits, misses) = pool_stats();
        let start = Instant::now();
        for ((spec, _), reference) in specs.iter().zip(&reference) {
            let results = spec.execute_with_threads(2);
            assert_eq!(&results.serialize(), reference, "pass {}", pass + 1);
        }
        let elapsed = start.elapsed();
        let (_, _, hits_after, misses_after) = pool_stats();
        let seen = (
            warm_cache().usage().0,
            (hits_after - hits) as usize,
            (misses_after - misses) as usize,
        );
        assert_eq!(seen, expected, "pass {}", pass + 1);
        eprintln!("pass {}: {elapsed:.2?} {seen:?}", pass + 1);
    }
    warm_cache().clear();
}
