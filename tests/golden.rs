//! Golden regression values: exact statistics of short canonical runs.
//!
//! These pin down the simulator's cycle-level behavior. An intentional
//! behavioral change (new arbitration order, pipeline tweak, RNG change)
//! WILL move these numbers — update them deliberately, with the diff in
//! review, rather than loosening the assertions. Every run is made on the
//! tracked walk and the sharded engine.

mod common;

use afc_noc::prelude::*;
use common::Engine;

/// One canonical run on each engine; both must give the tuple the tests
/// below pin.
fn golden_run(factory: &dyn afc_netsim::router::RouterFactory) -> (u64, u64, u64, u64) {
    let (cfg, seed) = (NetworkConfig::paper_3x3(), 0xC0FFEE);
    let kind = RunKind::OpenLoop {
        rate: 0.20,
        pattern: Pattern::UniformRandom,
        mix: PacketMix::paper(),
        warmup_cycles: 1_000,
        measure_cycles: 4_000,
    };
    let runs: Vec<_> = Engine::ALL
        .iter()
        .map(|&engine| {
            // The runner recycles an arena network with its engine settings.
            let mut arena = Network::new(cfg.clone(), factory, seed).unwrap();
            engine.apply(&mut arena);
            let env = RunEnv {
                arena: Some(arena),
                ..RunEnv::default()
            };
            let out = run(&kind, factory, &cfg, seed, env).unwrap();
            engine.assert_ran(&out.network);
            (
                out.stats.flits_delivered,
                out.stats.network_latency.sum(),
                out.counters.link_traversals,
                out.counters.deflections + out.counters.drops,
            )
        })
        .collect();
    assert!(
        runs.iter().all(|r| *r == runs[0]),
        "engines disagree: {runs:?}"
    );
    runs[0]
}

#[test]
fn golden_backpressured() {
    let g = golden_run(&BackpressuredFactory::new());
    assert_eq!(g, (6917, 15189, 13799, 0), "got {g:?}");
}

#[test]
fn golden_deflection() {
    let g = golden_run(&DeflectionFactory::new());
    assert!(g.3 > 0, "deflection must deflect at 0.20 load");
    assert_eq!(g, (6918, 15697, 17341, 1759), "got {g:?}");
}

#[test]
fn golden_afc() {
    let g = golden_run(&AfcFactory::paper());
    assert_eq!(g, (6918, 15697, 17341, 1759), "got {g:?}");
}

#[test]
fn golden_afc_matches_deflection_at_low_load() {
    // At 0.20 flits/node/cycle AFC never leaves backpressureless mode, so
    // its flit-level behavior must be *identical* to the deflection
    // router's under the same seed — a strong structural check that the
    // backpressureless datapaths are the same code path behaving the same
    // way.
    assert_eq!(
        golden_run(&DeflectionFactory::new()),
        golden_run(&AfcFactory::paper())
    );
}
