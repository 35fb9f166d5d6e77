//! # afc-traffic — traffic generation and run orchestration
//!
//! Two families of traffic drive the `afc-netsim` kernel:
//!
//! * [`openloop`] — Bernoulli packet injection at configured per-node rates
//!   with synthetic destination [`synthetic::Pattern`]s (uniform random,
//!   transpose, bit-complement, near-neighbor, hotspot, quadrant). Used for
//!   the latency-throughput sweeps and the Section V-B spatial-variation
//!   experiment.
//! * [`closedloop`] — the substitute for the paper's Simics/GEMS
//!   full-system stack: per-node multithreaded cores issuing MSHR-bounded
//!   request/reply memory transactions against address-hashed L2 banks,
//!   with dirty writebacks. Execution time feeds back into injection, as
//!   the paper's methodology requires. [`workloads`] provides the six
//!   calibrated presets of Table III.
//!
//! [`runner`] wraps both in warmup/measure harnesses returning
//! [`runner::RunOutcome`]s ready for energy pricing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closedloop;
pub mod openloop;
pub mod runner;
pub mod synthetic;
pub mod trace;
pub mod workloads;

pub use closedloop::{ClosedLoopTraffic, WorkloadParams};
pub use openloop::{OpenLoopTraffic, PacketMix, RateSpec};
pub use runner::{
    run, run_closed_loop, run_fault_scenario, run_on, run_open_loop, CheckpointPolicy,
    FaultRunOutcome, RunError, RunKind, RunOutcome,
};
pub use synthetic::Pattern;
pub use trace::{TraceReplay, TrafficTrace};
