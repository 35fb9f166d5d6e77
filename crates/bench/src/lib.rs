//! # afc-bench — the experiment harness
//!
//! One binary per paper artifact (see DESIGN.md's per-experiment index):
//!
//! | binary       | paper artifact |
//! |--------------|----------------|
//! | `table1`     | Table I router pipelines + Tables II-IV configuration |
//! | `fig2`       | Figure 2(a-d): performance & energy, low & high load |
//! | `fig3`       | Figure 3(a,b): network energy breakdown |
//! | `duty_cycle` | Section V-A mode duty cycle |
//! | `open_loop`  | "Other results": latency-throughput sweep |
//! | `spatial`    | Section V-B open-loop spatial variation (8x8 quadrants) |
//! | `gossip`     | Section V-A gossip observation (open-loop hotspots) |
//! | `ablation`   | Design-choice ablations (ranking policy, thresholds, buffers) |
//! | `calibrate`  | Workload-calibration report (Table III injection rates) |
//!
//! The library half hosts the reusable experiment drivers so binaries stay
//! thin and the integration tests can assert on the same numbers the
//! binaries print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod mechanisms;
pub mod microbench;
pub mod plot;
pub mod report;
pub mod sweep;

pub use experiments::{ClosedLoopRow, SweepPoint};
pub use mechanisms::{all_mechanisms, fig2_mechanisms, Mechanism, MechanismId};
pub use sweep::{
    run_sweep, write_atomic, JobFailure, RunOutput, RunSpec, SweepError, SweepManifest,
    SweepResults, SweepSpec,
};

/// What the process environment does to every fresh network, as the engine
/// itself parsed it: `(full_scan, threads_forced)`. `AFC_FULL_SCAN` pins
/// every cycle to the serial full walk; `AFC_SIM_THREADS` overrides the
/// thread budget and lowers the engine gate's floor. The engine-equivalence
/// suites run under both in CI and ask here which of their asserts apply,
/// rather than re-parsing the variables (`AFC_FULL_SCAN=0` is *off*).
pub fn engine_overrides() -> (bool, bool) {
    use afc_netsim::{config::NetworkConfig, network::Network};
    let factory = MechanismId::Afc.mechanism().factory;
    let probe =
        Network::new(NetworkConfig::paper_3x3(), factory.as_ref(), 0).expect("valid config");
    (probe.full_scan(), probe.sim_threads() != 1)
}
