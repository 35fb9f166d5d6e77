//! Shared test scaffolding: a minimal correct router for engine-level
//! tests, independent of the real mechanisms in downstream crates.

use crate::channel::{ControlSignal, Credit};
use crate::config::NetworkConfig;
use crate::counters::ActivityCounters;
use crate::flit::{Cycle, Flit};
use crate::geom::{NodeId, PortId};
use crate::rng::SimRng;
use crate::router::{Router, RouterBank, RouterFactory, RouterMode, RouterOutputs};
use crate::topology::Mesh;
use std::collections::VecDeque;

/// A minimal correct router: unbounded FIFO, DOR routing, one flit out per
/// port per cycle. Good enough to exercise the engine end to end.
pub(crate) struct FifoRouter {
    pub(crate) node: NodeId,
    pub(crate) mesh: Mesh,
    pub(crate) queue: VecDeque<Flit>,
    pub(crate) counters: ActivityCounters,
    /// When true, silently discards every arriving flit (for audit tests).
    pub(crate) lossy: bool,
    /// Panics when stepped at this `(node, cycle)` (for engine tests).
    pub(crate) panic_at: Option<(NodeId, Cycle)>,
}

impl Router for FifoRouter {
    fn receive_flit(&mut self, _input: PortId, flit: Flit, _now: Cycle) {
        if !self.lossy {
            self.queue.push_back(flit);
        }
    }
    fn receive_credit(&mut self, _output: PortId, _credit: Credit, _now: Cycle) {}
    fn receive_control(&mut self, _output: PortId, _signal: ControlSignal, _now: Cycle) {}
    fn injection_ready(&self, _flit: &Flit, _now: Cycle) -> bool {
        true
    }
    fn inject(&mut self, flit: Flit, _now: Cycle) {
        if !self.lossy {
            self.queue.push_back(flit);
        }
    }
    fn step(&mut self, now: Cycle, _rng: &mut SimRng, out: &mut RouterOutputs) {
        if self.panic_at == Some((self.node, now)) {
            let thread = std::thread::current();
            panic!("scripted panic at cycle {now} on {:?}", thread.name());
        }
        self.counters.cycles += 1;
        let mut kept = VecDeque::new();
        while let Some(mut flit) = self.queue.pop_front() {
            if flit.dest == self.node {
                out.ejected.push(flit);
                self.counters.ejections += 1;
                continue;
            }
            let dir = self.mesh.dor_route(self.node, flit.dest).expect("route");
            let port = PortId::Net(dir);
            if out.flits[port].is_none() {
                flit.hops += 1;
                out.flits[port] = Some(flit);
                self.counters.link_traversals += 1;
            } else {
                kept.push_back(flit);
            }
        }
        self.queue = kept;
    }
    fn counters(&self) -> &ActivityCounters {
        &self.counters
    }
    fn counters_mut(&mut self) -> &mut ActivityCounters {
        &mut self.counters
    }
    fn mode(&self) -> RouterMode {
        RouterMode::Backpressured
    }
    fn occupancy(&self) -> usize {
        self.queue.len()
    }
}

/// Factory for [`FifoRouter`]s.
#[derive(Debug, Default)]
pub(crate) struct FifoFactory {
    pub(crate) lossy: bool,
    pub(crate) panic_at: Option<(NodeId, Cycle)>,
}

impl RouterFactory for FifoFactory {
    fn build_bank(
        &self,
        mesh: &Mesh,
        _config: &NetworkConfig,
        _rings: Vec<Box<[Flit]>>,
    ) -> Box<dyn RouterBank> {
        let bank: Vec<FifoRouter> = mesh
            .nodes()
            .map(|node| FifoRouter {
                node,
                mesh: mesh.clone(),
                queue: VecDeque::new(),
                counters: ActivityCounters::new(),
                lossy: self.lossy,
                panic_at: self.panic_at,
            })
            .collect();
        Box::new(bank)
    }
    fn name(&self) -> &'static str {
        "fifo-test"
    }
    fn flit_width_bits(&self) -> u32 {
        41
    }
    fn buffer_flits_per_port(&self, _config: &NetworkConfig) -> usize {
        16
    }
}
