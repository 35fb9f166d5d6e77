//! # afc-noc — Adaptive Flow Control NoC simulation suite
//!
//! A from-scratch, cycle-accurate reproduction of *Adaptive Flow Control
//! for Robust Performance and Energy* (Jafri, Hong, Thottethodi, Vijaykumar
//! — MICRO 2010) as a Rust workspace. This facade crate re-exports the
//! member crates:
//!
//! * [`netsim`] — the simulation kernel (mesh, channels, flits, NIs, engine)
//! * [`routers`] — baselines: backpressured VC router, deflection router,
//!   drop router
//! * [`core`] — the AFC router (the paper's contribution)
//! * [`energy`] — the Orion-style energy model
//! * [`traffic`] — open-loop synthetic and closed-loop memory-system
//!   workloads
//!
//! ## Quickstart
//!
//! ```
//! use afc_noc::prelude::*;
//!
//! // Build the paper's 3x3 network with AFC routers and run the `water`
//! // workload for a few hundred transactions.
//! let outcome = run_closed_loop(
//!     &AfcFactory::paper(),
//!     &NetworkConfig::paper_3x3(),
//!     workloads::water(),
//!     /* warmup txns */ 50,
//!     /* measured txns */ 100,
//!     /* cycle cap */ 2_000_000,
//!     /* seed */ 42,
//! )?;
//! let energy = EnergyModel::new(EnergyParams::micro2010_70nm())
//!     .price_network(&outcome.network);
//! assert!(outcome.measured_cycles > 0);
//! assert!(energy.total() > 0.0);
//! # Ok::<(), afc_netsim::error::ConfigError>(())
//! ```

#![forbid(unsafe_code)]

pub mod cli;

pub use afc_core as core;
pub use afc_energy as energy;
pub use afc_netsim as netsim;
pub use afc_routers as routers;
pub use afc_traffic as traffic;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use afc_core::{AfcConfig, AfcFactory, AfcMode, AfcRouter, ClassThresholds};
    pub use afc_energy::{
        BufferAccounting, EnergyBreakdown, EnergyModel, EnergyParams, MechanismProfile,
    };
    pub use afc_netsim::prelude::*;
    pub use afc_routers::{BackpressuredFactory, DeflectionFactory, DropFactory, RankPolicy};
    pub use afc_traffic::{
        run, run_closed_loop, run_fault_scenario, run_open_loop, workloads, CheckpointPolicy,
        ClosedLoopTraffic, FaultRunOutcome, OpenLoopTraffic, PacketMix, Pattern, RateSpec, RunEnv,
        RunError, RunKind, RunOutcome, WorkloadParams,
    };
}
