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
