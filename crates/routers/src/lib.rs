//! # afc-routers — baseline flow-control mechanisms
//!
//! Three complete router implementations over the `afc-netsim` kernel:
//!
//! * [`backpressured`] — the canonical input-queued virtual-channel router
//!   with credit-based backpressure, idealized zero-cycle VC allocation and
//!   separable round-robin switch allocation (the paper's primary baseline,
//!   Table I row 1);
//! * [`deflection`] — a BLESS/Chaos-style backpressureless router that
//!   deflects contending flits instead of buffering them (Table I row 2);
//! * [`mod@drop`] — a SCARAB-style backpressureless router that drops all but
//!   one contending flit and relies on source retransmission via a modeled
//!   NACK circuit.
//!
//! The shared building blocks — round-robin arbiters, the separable switch
//! allocator's stage 2 and the deflection port-assignment engine — are
//! exported for reuse by the AFC router in `afc-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod backpressured;
pub mod deflection;
pub mod drop;
#[cfg(test)]
mod latch_tests;

pub use arbiter::RoundRobin;
pub use backpressured::{
    BackpressuredFactory, BackpressuredOptions, BackpressuredRouter, RoutingAlgorithm,
};
pub use deflection::{DeflectionFactory, DeflectionRouter, LatchBank, Loser, RankPolicy};
pub use drop::{DropFactory, DropRouter};
