//! The [`Router`] abstraction implemented by every flow-control mechanism,
//! and the [`RouterFactory`] that builds a network's routers as one typed
//! [`RouterBank`].

use crate::channel::{ControlSignal, Credit};
use crate::config::NetworkConfig;
use crate::counters::ActivityCounters;
use crate::error::ConfigError;
use crate::flit::{Cycle, Flit};
use crate::geom::{NodeId, PortId, PortMap};
use crate::rng::SimRng;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::topology::Mesh;

/// The flow-control mode a router is currently operating in.
///
/// Fixed-mechanism routers report a constant mode; the AFC router moves
/// between all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterMode {
    /// Credit-based backpressured operation.
    Backpressured,
    /// Deflection (or drop) based backpressureless operation.
    Backpressureless,
    /// Mid-flight forward mode switch (the 2L-cycle window of Section III-B).
    Transitioning,
}

/// Everything a router emits during one pipeline step.
///
/// The network engine routes these into channels: `flits` onto forward
/// lanes, `credits` onto the reverse lanes of the corresponding *input*
/// ports, `control` broadcast to every upstream neighbor, and `ejected`
/// flits to the local network interface.
#[derive(Debug, Clone, Default)]
pub struct RouterOutputs {
    /// Flit sent on each network output port this cycle, if any.
    pub flits: PortMap<Option<Flit>>,
    /// Credits returned upstream, keyed by the *input* port whose buffer
    /// freed up.
    pub credits: PortMap<Vec<Credit>>,
    /// Control signals broadcast to all upstream neighbors.
    pub control: Vec<ControlSignal>,
    /// Flits delivered to the local node interface.
    pub ejected: Vec<Flit>,
    /// Flits dropped by a drop-based backpressureless router. The network
    /// engine models the NACK circuit: each dropped flit is re-enqueued for
    /// retransmission at its source after a distance-proportional delay.
    pub dropped: Vec<Flit>,
}

impl RouterOutputs {
    /// Creates empty outputs.
    pub fn new() -> RouterOutputs {
        RouterOutputs::default()
    }

    /// Clears all outputs for reuse in the next cycle.
    #[inline]
    pub fn clear(&mut self) {
        for (_, f) in self.flits.iter_mut() {
            *f = None;
        }
        for (_, c) in self.credits.iter_mut() {
            c.clear();
        }
        self.control.clear();
        self.ejected.clear();
        self.dropped.clear();
    }

    /// Total flits leaving on network ports this cycle.
    pub fn flits_sent(&self) -> usize {
        self.flits.iter().filter(|(_, f)| f.is_some()).count()
    }

    /// Heap bytes retained by the reusable output buffers.
    pub fn heap_bytes(&self) -> usize {
        let vecs: usize = self
            .credits
            .iter()
            .map(|(_, c)| c.capacity() * std::mem::size_of::<Credit>())
            .sum();
        vecs + self.control.capacity() * std::mem::size_of::<ControlSignal>()
            + (self.ejected.capacity() + self.dropped.capacity()) * std::mem::size_of::<Flit>()
    }
}

/// A router: one per mesh node, implementing a flow-control mechanism.
///
/// The network engine drives implementations through three phases per cycle —
/// see the crate-level documentation. Implementations must uphold:
///
/// * at most one flit per output port per [`Router::step`] call,
/// * flits are never silently lost (they are buffered, forwarded, deflected,
///   ejected, or — for the drop router — counted as dropped and NACKed),
/// * [`Router::occupancy`] reflects every flit currently held inside the
///   router (buffers, latches, pipeline registers).
///
/// Routers are owned by exactly one spatial shard at a time, so the trait
/// requires `Send` (not `Sync`): the intra-run parallel engine moves
/// mutable access to each router onto its shard's worker thread. Every
/// mechanism is plain owned data, so this is automatic.
pub trait Router: Send {
    /// Delivers a flit arriving on network input port `input`.
    fn receive_flit(&mut self, input: PortId, flit: Flit, now: Cycle);

    /// Delivers a credit returned on output port `output` (i.e. from the
    /// downstream router reached through that port).
    fn receive_credit(&mut self, output: PortId, credit: Credit, now: Cycle);

    /// Delivers a control signal from the downstream router reached through
    /// `output`.
    fn receive_control(&mut self, output: PortId, signal: ControlSignal, now: Cycle);

    /// Whether the router can accept `flit` from the local injection port
    /// this cycle. Even backpressureless routers refuse injection when no
    /// output port would be free (paper, footnote 3).
    fn injection_ready(&self, flit: &Flit, now: Cycle) -> bool;

    /// Accepts a flit from the local injection port. Callers must have
    /// checked [`Router::injection_ready`] in the same cycle.
    fn inject(&mut self, flit: Flit, now: Cycle);

    /// Executes one pipeline step, writing outputs into `out` (already
    /// cleared by the caller).
    fn step(&mut self, now: Cycle, rng: &mut SimRng, out: &mut RouterOutputs);

    /// Activity counters accumulated so far.
    fn counters(&self) -> &ActivityCounters;

    /// Mutable access to the counters (used by the network engine to reset
    /// metrics after warmup).
    fn counters_mut(&mut self) -> &mut ActivityCounters;

    /// Current flow-control mode.
    fn mode(&self) -> RouterMode;

    /// Number of flits currently held inside the router.
    fn occupancy(&self) -> usize;

    /// The router's smoothed local-load estimate (flits/cycle), if it
    /// measures one. Adaptive routers override this; fixed-mechanism
    /// routers return `None`.
    fn load_estimate(&self) -> Option<f64> {
        None
    }

    /// Approximate heap bytes owned by this router (buffers, scratch,
    /// fault tables). Feeds [`crate::network::Network::memory_footprint`]'s
    /// large-mesh leanness audit: per-router cost must stay O(ports × VCs),
    /// never O(mesh), on clean runs. The default covers test stubs.
    fn heap_bytes(&self) -> usize {
        0
    }

    /// Notifies the router of an alive-state transition of a link incident
    /// to it (the engine's deterministic fault/repair detection fired —
    /// DESIGN.md §13/§15). `node -> dir` is the directed link; `node` is
    /// this router for its own output links, or the upstream neighbor when
    /// a revived *input* link is being announced (kills are announced
    /// upstream-only; revivals go to both endpoints so the downstream end
    /// can run the credit re-sync handshake). `epoch` is the link's
    /// monotonic transition epoch and `alive` its new state. On a death
    /// the router must stop routing flits toward `dir`, gossip the fact,
    /// and detour still-reachable traffic; on a revival it must unmask the
    /// port, re-gossip, and re-sync credit flow. The default no-op keeps
    /// test stubs and fault-oblivious mechanisms compiling; such routers
    /// will simply keep wedging on dead links as before.
    fn note_link_event(
        &mut self,
        _node: crate::geom::NodeId,
        _dir: crate::geom::Direction,
        _epoch: u32,
        _alive: bool,
        _now: Cycle,
    ) {
    }

    /// Whether the router is *quiescent*: stepping it now — and for any
    /// number of consecutive future cycles in which it receives nothing
    /// and injects nothing — would draw nothing from its RNG, emit no
    /// flits/credits/control, change no externally observable state, and
    /// mutate nothing except counters that [`Router::note_idle_cycles`]
    /// can reproduce exactly in bulk.
    ///
    /// The activity-tracked engine (DESIGN.md §8) skips quiescent routers
    /// outright; any `receive_*` or `inject` re-activates them. The
    /// conservative default (`false`) keeps unknown implementations on
    /// the always-step path.
    fn is_quiescent(&self) -> bool {
        false
    }

    /// Folds `idle` skipped cycles into the router's state, exactly as if
    /// [`Router::step`] had run `idle` times with no inputs. Called by the
    /// engine right before re-activating a router that was skipped while
    /// [`Router::is_quiescent`] held. The default covers routers whose
    /// idle step only counts the cycle.
    fn note_idle_cycles(&mut self, idle: u64) {
        self.counters_mut().cycles += idle;
    }

    /// Counters as they *would* read after [`Router::note_idle_cycles`]
    /// `(pending_idle)` — a non-mutating view for `&self` observation
    /// points while idle cycles are still outstanding. Must agree with
    /// [`Router::note_idle_cycles`] on every counter field (the engine
    /// cross-checks under `debug_assertions`).
    fn counters_view(&self, pending_idle: u64) -> ActivityCounters {
        let mut c = *self.counters();
        c.cycles += pending_idle;
        c
    }

    /// Serializes the router's complete mutable state (buffers, latches,
    /// arbitration cursors, mode, counters) for a deterministic snapshot.
    ///
    /// Implementations must write a pure function of router state — no
    /// hash-order or address-dependent bytes — such that
    /// [`Router::load_state`] into a freshly constructed router of the same
    /// configuration reproduces the original cycle-for-cycle. The default
    /// refuses, keeping test-only stubs honest: the network surfaces the
    /// refusal as a structured error instead of silently checkpointing a
    /// router it cannot restore.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] unless overridden.
    fn save_state(&self, _w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported { what: "router" })
    }

    /// Restores state written by [`Router::save_state`] into this router,
    /// which must have been built from the same configuration.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] unless overridden; decode errors
    /// otherwise.
    fn load_state(&mut self, _r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported { what: "router" })
    }
}

/// A network's routers, one per node in node order, held by value in one
/// `Vec<R>` — what [`RouterFactory::build_bank`] returns. `Vec<R>`, for
/// any router type `R`, is the only implementation: the engine compiles
/// its cycle kernel against `R` through it (DESIGN.md §8), and reaches
/// single routers through these accessors only on cold paths (snapshots,
/// counters, audits, link events).
pub trait RouterBank: bank::Typed {
    /// Router `i` (node index).
    fn router(&self, i: usize) -> &dyn Router;

    /// Router `i` (node index), mutably.
    fn router_mut(&mut self, i: usize) -> &mut dyn Router;
}

impl<'b> dyn RouterBank + 'b {
    /// Every router, in node order (the cold paths).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &dyn Router> {
        (0..self.len()).map(move |i| self.router(i))
    }
}

/// The engine's side of a bank, sealed in a module no other crate can
/// name.
pub(crate) mod bank {
    use crate::network::{Kernel, Network};
    use crate::router::Router;
    use std::any::Any;

    /// What the engine needs of a bank beyond [`super::RouterBank`].
    pub trait Typed: Send {
        /// Routers in the bank.
        fn len(&self) -> usize;
        /// The bank as `Vec<R>`, for the kernel's downcast.
        fn as_any_mut(&mut self) -> &mut dyn Any;
        /// Phases 1–3 of a cycle, compiled against `R`.
        fn kernel(&self) -> Kernel;
        /// Bytes of the bank's slab: the router structs themselves.
        fn slab_bytes(&self) -> usize;
        /// Router `i`, taken out of the bank.
        fn into_router(self: Box<Self>, i: usize) -> Box<dyn Router>;
    }

    impl<R: Router + 'static> Typed for Vec<R> {
        fn len(&self) -> usize {
            Vec::len(self)
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn kernel(&self) -> Kernel {
            Network::cycle_phases::<R>
        }
        fn slab_bytes(&self) -> usize {
            self.capacity() * std::mem::size_of::<R>()
        }
        fn into_router(mut self: Box<Self>, i: usize) -> Box<dyn Router> {
            Box::new(self.swap_remove(i))
        }
    }
}

impl<R: Router + 'static> RouterBank for Vec<R> {
    fn router(&self, i: usize) -> &dyn Router {
        &self[i]
    }
    fn router_mut(&mut self, i: usize) -> &mut dyn Router {
        &mut self[i]
    }
}

/// One router's flit rings: `PORTS × flits_per_port` filler slots, never
/// read before written (no allocation for a bufferless mechanism's 0).
pub fn alloc_rings(flits_per_port: usize) -> Box<[Flit]> {
    let filler = Flit::test_flit(crate::flit::PacketId(0), NodeId::new(0), NodeId::new(0));
    vec![filler; PortId::ALL.len() * flits_per_port].into_boxed_slice()
}

/// Builds one router per node; implemented by each mechanism and handed to
/// [`Network::new`](crate::network::Network::new).
///
/// Factories are plain configuration data, so the trait requires
/// `Send + Sync`: harnesses share one factory set across worker threads
/// when replicating runs over seeds.
pub trait RouterFactory: std::fmt::Debug + Send + Sync {
    /// Constructs every node's router, one per node in node order, around
    /// `rings` (one [`alloc_rings`]`(self.buffer_flits_per_port(config))`
    /// slab per node, all allocated before this call). A mechanism returns
    /// its routers by value as a `Vec` of its own router type, collected
    /// in one allocation.
    fn build_bank(
        &self,
        mesh: &Mesh,
        config: &NetworkConfig,
        rings: Vec<Box<[Flit]>>,
    ) -> Box<dyn RouterBank>;

    /// Constructs the router for `node` alone: router `node` of a freshly
    /// built bank.
    fn build(&self, node: NodeId, mesh: &Mesh, config: &NetworkConfig) -> Box<dyn Router> {
        crate::network::Network::build_routers(self, mesh, config).into_router(node.index())
    }

    /// Short mechanism name (`"backpressured"`, `"bless"`, `"afc"`, ...).
    fn name(&self) -> &'static str;

    /// Total flit width in bits (payload + control), used by the energy
    /// model: the paper reports 41 (backpressured), 45 (backpressureless)
    /// and 49 (AFC) bits for a 32-bit payload.
    fn flit_width_bits(&self) -> u32;

    /// Buffer capacity in flits per input port that this mechanism actually
    /// instantiates (0 for bufferless; AFC halves the baseline).
    fn buffer_flits_per_port(&self, config: &NetworkConfig) -> usize;

    /// Checks what this mechanism needs of `config` beyond
    /// [`NetworkConfig::validate`]. [`Network::new`](crate::network::Network::new)
    /// calls it before building any router and returns its error. The
    /// default needs nothing.
    ///
    /// # Errors
    ///
    /// The [`ConfigError`] that names what the mechanism cannot build.
    fn validate(&self, config: &NetworkConfig) -> Result<(), ConfigError> {
        let _ = config;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketId;

    #[test]
    fn outputs_clear_resets_everything() {
        let mut out = RouterOutputs::new();
        let f = Flit::test_flit(PacketId(1), NodeId::new(0), NodeId::new(1));
        out.flits[PortId::Local] = Some(f);
        out.credits[PortId::Local].push(Credit::Vc(crate::flit::VcId(0)));
        out.control.push(ControlSignal::StopCreditTracking);
        out.ejected.push(f);
        assert_eq!(out.flits_sent(), 1);
        out.clear();
        assert_eq!(out.flits_sent(), 0);
        assert!(out.credits[PortId::Local].is_empty());
        assert!(out.control.is_empty());
        assert!(out.ejected.is_empty());
    }
}
