//! # afc-energy — an Orion-style network energy model
//!
//! The paper evaluates energy with Orion callbacks from the Garnet timing
//! model. This crate plays the same role for the `afc-netsim` kernel:
//! routers *count activity* ([`afc_netsim::counters::ActivityCounters`]) and
//! this crate converts counts into joules under a technology preset.
//!
//! Components modeled:
//!
//! * dynamic energy scaling with flit width: buffer reads/writes, pipeline
//!   latch writes, crossbar traversals, link traversals (2.5 mm), plus
//!   per-event arbitration, credit and control-wire costs;
//! * buffer leakage scaling with instantiated buffer bits, with coarse
//!   power gating (90% effective, paper Section IV) while a router runs
//!   backpressureless;
//! * non-buffer router leakage;
//! * [`BufferAccounting`]: one backpressured simulation priced as plain
//!   SRAM, with Wang et al.'s read bypass, or under the "ideal buffer
//!   bypass" that zeroes buffer dynamic energy — the lower bound the paper
//!   uses to stand in for all dynamic-energy buffer optimizations.
//!
//! ## Example
//!
//! ```
//! use afc_energy::{EnergyModel, EnergyParams};
//! use afc_netsim::prelude::*;
//! use afc_routers::BackpressuredFactory;
//!
//! let net = Network::new(NetworkConfig::paper_3x3(), &BackpressuredFactory::new(), 1)?;
//! let model = EnergyModel::new(EnergyParams::micro2010_70nm());
//! let energy = model.price_network(&net);
//! assert_eq!(energy.total(), 0.0); // nothing simulated yet
//! # Ok::<(), afc_netsim::error::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod params;

pub use model::{BufferAccounting, EnergyBreakdown, EnergyModel, MechanismProfile};
pub use params::EnergyParams;
