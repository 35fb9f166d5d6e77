//! # afc-bench — the experiment harness
//!
//! One binary per paper artifact or experiment (`fig2`, `open_loop`,
//! `faults`, …); DESIGN.md §4 indexes them. The library half holds the
//! reusable experiment code so binaries stay thin and the integration
//! tests can assert on the same numbers the binaries print.

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

use afc_netsim::network::Network;

/// The simulator's two schedules, set through the network's own setters,
/// for the suites that prove a result independent of which one ran.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The activity-tracked serial walk, a new network's schedule.
    Tracked,
    /// The sharded engine on four threads, engine gate floor 0.
    Sharded,
}

impl Engine {
    /// The serial walk and four threads.
    pub const ALL: [Engine; 2] = [Engine::Tracked, Engine::Sharded];

    /// Puts `net` on this schedule.
    pub fn apply(self, net: &mut Network) {
        net.set_sim_threads(if self == Engine::Sharded { 4 } else { 1 });
        net.set_parallel_threshold(0);
    }

    /// Panics unless `net` ran on this schedule: no leg passes vacuously.
    pub fn assert_ran(self, net: &Network) {
        let ran = match self {
            Engine::Tracked => net.parallel_cycles() == 0,
            Engine::Sharded => net.parallel_cycles() > 0,
        };
        assert!(ran, "{self:?}: the network did not run on this engine");
    }
}
