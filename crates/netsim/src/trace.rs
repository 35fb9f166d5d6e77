//! Run-time observability: mode timelines and spatial mode maps.
//!
//! These are poll-based recorders driven by the harness (one `sample` call
//! per cycle or per sampling interval), keeping the simulation engine free
//! of callback plumbing.

use crate::flit::Cycle;
use crate::geom::Coord;
use crate::network::Network;
use crate::router::RouterMode;

/// Records each router's mode over time, at a sampling interval.
///
/// # Examples
///
/// ```text
/// let mut net = Network::new(NetworkConfig::paper_3x3(), &AfcFactory::paper(), 1)?;
/// let mut timeline = ModeTimeline::new(10);
/// for _ in 0..50 {
///     net.step();
///     timeline.sample(&net);
/// }
/// println!("{:.0}% backpressured", 100.0 * timeline.backpressured_fraction(NodeId::new(0)));
/// ```
///
/// (Shown as text because router factories live in downstream crates; see
/// the workspace examples for runnable versions.)
#[derive(Debug, Clone)]
pub struct ModeTimeline {
    every: u64,
    samples: Vec<(Cycle, Vec<RouterMode>)>,
}

impl ModeTimeline {
    /// Creates a timeline sampling every `every` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn new(every: u64) -> ModeTimeline {
        assert!(every > 0, "sampling interval must be positive");
        ModeTimeline {
            every,
            samples: Vec::new(),
        }
    }

    /// Takes a sample if the network's clock has reached the next interval.
    /// Call once per cycle after [`Network::step`].
    pub fn sample(&mut self, net: &Network) {
        if net.now().is_multiple_of(self.every) {
            self.samples.push((net.now(), net.modes()));
        }
    }

    /// The recorded `(cycle, modes)` samples.
    pub fn samples(&self) -> &[(Cycle, Vec<RouterMode>)] {
        &self.samples
    }

    /// Fraction of samples in which `node` was backpressured.
    pub fn backpressured_fraction(&self, node: crate::geom::NodeId) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let hits = self
            .samples
            .iter()
            .filter(|(_, modes)| modes[node.index()] == RouterMode::Backpressured)
            .count();
        hits as f64 / self.samples.len() as f64
    }

    /// Number of sampled mode changes at `node` (adjacent samples that
    /// differ).
    pub fn mode_changes(&self, node: crate::geom::NodeId) -> usize {
        self.samples
            .windows(2)
            .filter(|w| w[0].1[node.index()] != w[1].1[node.index()])
            .count()
    }
}

/// Renders the most recent mode sample as an ASCII map:
/// `#` backpressured, `+` transitioning, `.` backpressureless.
pub fn render_mode_map(net: &Network) -> String {
    let mesh = net.mesh();
    let modes = net.modes();
    let mut out = String::new();
    for y in 0..mesh.height() {
        for x in 0..mesh.width() {
            let node = mesh.node_at(Coord::new(x, y)).expect("in bounds");
            out.push(match modes[node.index()] {
                RouterMode::Backpressured => '#',
                RouterMode::Transitioning => '+',
                RouterMode::Backpressureless => '.',
            });
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::counters::ActivityCounters;
    use crate::geom::NodeId;

    // A trivial always-backpressureless router for trace tests.
    struct Idle {
        counters: ActivityCounters,
    }
    impl crate::router::Router for Idle {
        fn receive_flit(&mut self, _i: crate::geom::PortId, _f: crate::flit::Flit, _n: Cycle) {}
        fn receive_credit(
            &mut self,
            _o: crate::geom::PortId,
            _c: crate::channel::Credit,
            _n: Cycle,
        ) {
        }
        fn receive_control(
            &mut self,
            _o: crate::geom::PortId,
            _s: crate::channel::ControlSignal,
            _n: Cycle,
        ) {
        }
        fn injection_ready(&self, _f: &crate::flit::Flit, _n: Cycle) -> bool {
            false
        }
        fn inject(&mut self, _f: crate::flit::Flit, _n: Cycle) {}
        fn step(
            &mut self,
            _n: Cycle,
            _r: &mut crate::rng::SimRng,
            _o: &mut crate::router::RouterOutputs,
        ) {
        }
        fn counters(&self) -> &ActivityCounters {
            &self.counters
        }
        fn counters_mut(&mut self) -> &mut ActivityCounters {
            &mut self.counters
        }
        fn mode(&self) -> RouterMode {
            RouterMode::Backpressureless
        }
        fn occupancy(&self) -> usize {
            0
        }
    }

    struct IdleFactory;
    impl crate::router::RouterFactory for IdleFactory {
        fn build_with(
            &self,
            _node: NodeId,
            _mesh: &crate::topology::Mesh,
            _config: &NetworkConfig,
            _rings: Box<[crate::flit::Flit]>,
        ) -> Box<dyn crate::router::Router> {
            Box::new(Idle {
                counters: ActivityCounters::new(),
            })
        }
        fn name(&self) -> &'static str {
            "idle"
        }
        fn flit_width_bits(&self) -> u32 {
            1
        }
        fn buffer_flits_per_port(&self, _c: &NetworkConfig) -> usize {
            0
        }
    }

    #[test]
    fn timeline_samples_at_interval() {
        let mut net = Network::new(NetworkConfig::paper_3x3(), &IdleFactory, 0).unwrap();
        let mut tl = ModeTimeline::new(5);
        for _ in 0..20 {
            net.step();
            tl.sample(&net);
        }
        assert_eq!(tl.samples().len(), 4);
        assert_eq!(tl.backpressured_fraction(NodeId::new(0)), 0.0);
        assert_eq!(tl.mode_changes(NodeId::new(0)), 0);
    }

    #[test]
    fn mode_map_renders_grid() {
        let net = Network::new(NetworkConfig::paper_3x3(), &IdleFactory, 0).unwrap();
        let map = render_mode_map(&net);
        assert_eq!(map, "...\n...\n...\n");
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn zero_interval_rejected() {
        let _ = ModeTimeline::new(0);
    }
}
