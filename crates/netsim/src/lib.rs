//! # afc-netsim — a cycle-accurate network-on-chip simulation kernel
//!
//! This crate is the substrate on which the flow-control mechanisms of
//! *Adaptive Flow Control for Robust Performance and Energy* (MICRO 2010) are
//! built. It provides:
//!
//! * a 2D **mesh topology** with per-node routers ([`topology::Mesh`]),
//! * **pipelined channels** carrying flits downstream and credits/control
//!   signals upstream, each with configurable latency ([`channel::Channel`]),
//! * the **flit/packet model** with flit-by-flit routing metadata
//!   ([`flit::Flit`], [`packet::PacketDescriptor`]),
//! * the [`router::Router`] trait that concrete routers (backpressured,
//!   deflection, drop-based, AFC) implement,
//! * **network interfaces** that split packets into flits, inject them, and
//!   reassemble arrivals using MSHR-style receive buffers ([`ni`]),
//! * the **two-phase simulation engine** ([`network::Network`],
//!   [`sim::Simulation`]) that advances everything one cycle at a time,
//! * deterministic **pseudo-randomness** ([`rng::SimRng`]) and run-wide
//!   **statistics** ([`stats`]) including activity counters consumed by the
//!   `afc-energy` crate.
//!
//! ## Cycle semantics
//!
//! Every simulated cycle proceeds in three phases:
//!
//! 1. channels deliver arrivals (flits, credits, control signals) to routers,
//! 2. network interfaces attempt packet injection (routers may refuse —
//!    injection-port backpressure exists even for backpressureless routers),
//! 3. every router executes one pipeline step and pushes its outputs onto
//!    the links, stamped with their arrival cycle.
//!
//! Links are slots indexed by arrival cycle ([`channel`]), so nothing
//! advances between cycles.
//!
//! A flit that wins switch arbitration at cycle `T` becomes eligible for
//! arbitration at the next router at cycle `T + 2 + L` where `L` is the link
//! latency: one cycle of switch traversal, `L` cycles of link traversal, with
//! the downstream buffer write overlapped with the final link cycle. This
//! matches the two-stage router pipelines of Table I in the paper.
//!
//! ## Example
//!
//! ```
//! use afc_netsim::prelude::*;
//!
//! let mesh = Mesh::new(3, 3).expect("non-empty mesh");
//! assert_eq!(mesh.node_count(), 9);
//! let center = mesh.node_at(Coord::new(1, 1)).unwrap();
//! assert_eq!(mesh.router_class(center), RouterClass::Center);
//! ```

// `unsafe` is denied everywhere except the intra-run parallel engine
// (`parallel.rs`), which needs raw-pointer shard views of the per-node
// arrays and the link wheel to step disjoint regions of the mesh on worker
// threads (the activity bitmasks are safe `AtomicU64` words). Every
// unsafe block there is justified by the shard-ownership argument of
// DESIGN.md §12; the rest of the crate stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod config;
pub mod counters;
pub mod error;
pub mod fault_aware;
pub mod faults;
pub mod flit;
pub mod geom;
pub(crate) mod kernel;
pub mod network;
#[cfg(test)]
mod network_tests;
pub mod ni;
#[cfg(test)]
mod ni_tests;
pub mod packet;
pub(crate) mod parallel;
pub mod rng;
pub mod router;
pub mod sim;
pub mod snapshot;
pub mod stats;
#[cfg(test)]
mod testutil;
pub mod topology;
pub mod trace;

/// Convenient single-line import of the types most users need.
pub mod prelude {
    pub use crate::channel::{ControlSignal, Credit};
    pub use crate::config::{NetworkConfig, RetransmitConfig, VnetClass, VnetConfig};
    pub use crate::counters::ActivityCounters;
    pub use crate::error::{ConfigError, SimError};
    pub use crate::fault_aware::{FaultAwareness, RouteOutcome};
    pub use crate::faults::{
        FaultEvent, FaultEventKind, FaultPlan, FaultWindow, LinkFault, LinkFaultKind, LinkSelector,
        RouterStall,
    };
    pub use crate::flit::{Cycle, Flit, PacketId, VcId, VirtualNetwork};
    pub use crate::geom::{Coord, Direction, NodeId, PortId, PortMap};
    pub use crate::network::{MemoryFootprint, Network};
    pub use crate::ni::{NodeInterface, UnreachablePacket};
    pub use crate::packet::{PacketDescriptor, PacketKind};
    pub use crate::rng::SimRng;
    pub use crate::router::{Router, RouterFactory, RouterMode, RouterOutputs};
    pub use crate::sim::{Simulation, TrafficModel};
    pub use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
    pub use crate::stats::NetworkStats;
    pub use crate::topology::{Mesh, RouterClass};
}
