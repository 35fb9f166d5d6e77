//! Run-time observability: the spatial mode map.

use crate::geom::Coord;
use crate::network::Network;
use crate::router::RouterMode;

/// Renders every router's current mode as an ASCII map:
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
    use crate::flit::Cycle;

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

    #[derive(Debug)]
    struct IdleFactory;
    impl crate::router::RouterFactory for IdleFactory {
        fn build_bank(
            &self,
            mesh: &crate::topology::Mesh,
            _config: &NetworkConfig,
            _rings: Vec<Box<[crate::flit::Flit]>>,
        ) -> Box<dyn crate::router::RouterBank> {
            let bank: Vec<Idle> = mesh
                .nodes()
                .map(|_| Idle {
                    counters: ActivityCounters::new(),
                })
                .collect();
            Box::new(bank)
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
    fn mode_map_renders_grid() {
        let net = Network::new(NetworkConfig::paper_3x3(), &IdleFactory, 0).unwrap();
        let map = render_mode_map(&net);
        assert_eq!(map, "...\n...\n...\n");
    }
}
