//! Helpers shared by the integration suites: the mechanism list, the two
//! engine schedules, a delivery-recording traffic wrapper, and the one
//! random-case generator behind the lockstep harness ([`lockstep`]) and
//! the chaos soak.

#![allow(dead_code)]

pub mod lockstep;

use afc_bench::MechanismId;
use afc_netsim::config::{NetworkConfig, RetransmitConfig, VnetClass, VnetConfig};
use afc_netsim::faults::{FaultPlan, LinkFault, LinkFaultKind, LinkSelector};
use afc_netsim::flit::Cycle;
use afc_netsim::geom::{Direction, NodeId};
use afc_netsim::network::Network;
use afc_netsim::packet::DeliveredPacket;
use afc_netsim::rng::SimRng;
use afc_netsim::sim::{Simulation, TrafficModel};
use afc_netsim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use afc_netsim::topology::Mesh;
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;

pub const MECHANISMS: [MechanismId; 4] = [
    MechanismId::Backpressured,
    MechanismId::Backpressureless,
    MechanismId::Drop,
    MechanismId::Afc,
];

/// The simulator's two schedules, set through the network's own setters,
/// for the suites that prove a result independent of which one ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The activity-tracked serial walk, a new network's schedule.
    Tracked,
    /// The sharded engine on four threads, engine gate floor 0.
    Sharded,
}

impl Engine {
    /// The serial walk and four threads.
    pub const ALL: [Engine; 2] = [Engine::Tracked, Engine::Sharded];

    /// Puts `net` on this schedule.
    pub fn apply(self, net: &mut Network) {
        net.set_sim_threads(if self == Engine::Sharded { 4 } else { 1 });
        net.set_parallel_threshold(0);
    }

    /// Panics unless `net` ran on this schedule: no leg passes vacuously.
    pub fn assert_ran(self, net: &Network) {
        let ran = match self {
            Engine::Tracked => net.parallel_cycles() == 0,
            Engine::Sharded => net.parallel_cycles() > 0,
        };
        assert!(ran, "{self:?}: the network did not run on this engine");
    }
}

/// Records every delivered packet so the delivery stream is compared, not
/// just its totals.
pub struct Recording {
    pub inner: OpenLoopTraffic,
    pub log: Vec<DeliveredPacket>,
}

impl TrafficModel for Recording {
    fn pre_cycle(&mut self, now: Cycle, net: &mut Network) {
        self.inner.pre_cycle(now, net);
    }

    fn on_delivered(&mut self, packet: &DeliveredPacket, now: Cycle, net: &mut Network) {
        self.log.push(*packet);
        self.inner.on_delivered(packet, now, net);
    }

    // The log is test instrumentation; snapshots carry the generator.
    fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

/// A simulation of `config` under `id` that has run `cycles` cycles of
/// uniform open-loop traffic at `rate` on `threads` threads, gate floor 16
/// (the default keeps light loads serial), recording every delivery. No
/// drain: large-mesh backlogs would dominate a suite.
pub fn open_loop(
    config: &NetworkConfig,
    id: MechanismId,
    rate: f64,
    seed: u64,
    threads: usize,
    cycles: u64,
) -> Simulation<Recording> {
    let factory = id.mechanism().factory;
    let network = Network::new(config.clone(), factory.as_ref(), seed).expect("valid config");
    let traffic = Recording {
        inner: OpenLoopTraffic::new(
            RateSpec::Uniform(rate),
            Pattern::UniformRandom,
            PacketMix::paper(),
            seed ^ 0x7AFF1C,
        ),
        log: Vec::new(),
    };
    let mut sim = Simulation::new(network, traffic);
    sim.network.set_sim_threads(threads);
    sim.network.set_parallel_threshold(16);
    sim.run(cycles);
    sim
}

/// Statistics, total counters, clock, drain state, modes, fault log and
/// unreachable records.
pub fn fingerprint(net: &Network) -> String {
    format!(
        "stats={:?} counters={:?} now={} drained={} modes={:?} faults={:?} unreachable={:?}",
        net.stats(),
        net.total_counters(),
        net.now(),
        net.is_drained(),
        net.modes(),
        net.fault_log(),
        net.unreachable_packets(),
    )
}

/// Fault-plan kinds, in rotation: none, transient drop+corrupt, credit
/// loss, kills (with and without revivals), churn.
pub const PLAN_KINDS: usize = 5;

/// One drawn configuration and workload.
#[derive(Debug)]
pub struct Case {
    pub config: NetworkConfig,
    pub mechanism: MechanismId,
    /// Offered load in flits per node per cycle: 0.02–0.32, the stepper's
    /// light loads through saturation.
    pub load: f64,
    /// Where packets go: uniform, transpose or quadrant-local.
    pub pattern: Pattern,
    pub seed: u64,
    /// Cycles of injection.
    pub cycles: u64,
    /// The cycle, inside injection, at which snapshots are compared and a
    /// sharded side is resumed from one.
    pub checkpoint: Cycle,
}

/// One to three kills after cycle 10 and before `horizon + 10`, each over
/// a link, a node, a row, a column or a region, and each revived later
/// with probability 0.6.
fn kill_plan(p: &mut SimRng, mesh: &Mesh, horizon: Cycle) -> FaultPlan {
    let (w, h) = (mesh.width() as u64, mesh.height() as u64);
    let mut plan = FaultPlan::none();
    for _ in 0..1 + p.gen_index(3) {
        let (x, y) = (p.gen_range(w) as u16, p.gen_range(h) as u16);
        let selector = match p.gen_index(5) {
            0 => loop {
                let from = NodeId::new(p.gen_index(mesh.node_count()));
                let dir = Direction::ALL[p.gen_index(4)];
                if mesh.neighbor(from, dir).is_some() {
                    break LinkSelector::Link { from, dir };
                }
            },
            1 => LinkSelector::Node {
                node: NodeId::new(p.gen_index(mesh.node_count())),
            },
            2 => LinkSelector::Row { y },
            3 => LinkSelector::Column { x },
            _ => LinkSelector::Region {
                x0: x,
                y0: y,
                x1: x + p.gen_range(w - x as u64) as u16,
                y1: y + p.gen_range(h - y as u64) as u16,
            },
        };
        let at = 10 + p.gen_range(horizon);
        let mut fault = |kind| plan.link_faults.push(LinkFault { selector, kind });
        fault(LinkFaultKind::KillAt { at });
        if p.gen_bool(0.6) {
            let at = at + 10 + p.gen_range(horizon);
            fault(LinkFaultKind::ReviveAt { at });
        }
    }
    plan
}

/// A fault plan of kind `kind` (see [`PLAN_KINDS`]) for `mesh` over `cycles`.
pub fn random_plan(p: &mut SimRng, mesh: &Mesh, kind: usize, cycles: u64) -> FaultPlan {
    let rate = |p: &mut SimRng| 2e-3 + 1e-2 * p.gen_f64();
    let mut plan = match kind {
        0 => FaultPlan::none(),
        1 => FaultPlan::uniform_transient(rate(p), rate(p)),
        2 => FaultPlan::none().with_credit_loss(rate(p)),
        3 => kill_plan(p, mesh, cycles),
        _ => {
            let kills = match p.gen_bool(0.5) {
                true => kill_plan(p, mesh, cycles),
                false => FaultPlan::none(),
            };
            let (period, duty) = (20 + p.gen_range(60), 0.3 + 0.4 * p.gen_f64());
            kills.with_churn(mesh, p.gen_range(1 << 32), period, duty, cycles)
        }
    };
    plan.detection_delay = 1 + p.gen_range(24);
    plan
}

/// Case `index` of sweep `sweep`. Mechanism, plan kind and retransmission
/// rotate with the index, so any 40 consecutive cases cover every
/// combination. The rest is drawn: a 1×N to 7×7 mesh (`big` adds 8×8 and
/// 12×12), link latency 1–4, two to four vnets of random class, VCs and
/// depth, the plan, the load, the destination rule and the seed —
/// until `Network::new` accepts the draw; the rejected draws are counted
/// into `skips`.
pub fn draw(sweep: u64, index: u64, big: bool, skips: &mut u64) -> Case {
    let mut p = SimRng::seed_from(sweep ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mechanism = MECHANISMS[index as usize % 4];
    let kind = (index as usize / 4) % PLAN_KINDS;
    let retransmit = (index / 20) % 2 == 1;
    loop {
        let (width, height) = match big.then(|| p.gen_index(8)) {
            Some(0) => (8, 8),
            Some(1) => (12, 12),
            _ => (1 + p.gen_index(7) as u16, 1 + p.gen_index(7) as u16),
        };
        if width * height < 2 {
            continue;
        }
        let vnets = (0..2 + p.gen_index(3))
            .map(|_| VnetConfig {
                class: [VnetClass::Control, VnetClass::Data][p.gen_bool(0.4) as usize],
                vcs: 1 + p.gen_index(4),
                buffer_depth: 1 + p.gen_index(8),
            })
            .collect();
        let cycles = 150 + p.gen_range(250);
        let mut config = NetworkConfig {
            width,
            height,
            link_latency: 1 + p.gen_range(4),
            vnets,
            retransmit: retransmit.then(|| RetransmitConfig {
                timeout: 60 + p.gen_range(300),
                backoff_cap: p.gen_range(3) as u32,
                max_attempts: p.gen_range(4) as u32,
            }),
            ..NetworkConfig::paper_3x3()
        };
        let mesh = config.mesh().expect("a valid mesh");
        config.faults = random_plan(&mut p, &mesh, kind, cycles);
        let patterns = [
            Pattern::UniformRandom,
            Pattern::Transpose,
            Pattern::Quadrant,
        ];
        let case = Case {
            config,
            mechanism,
            load: 0.02 + 0.3 * p.gen_f64(),
            pattern: patterns[p.gen_index(3)].clone(),
            seed: p.gen_range(1 << 32),
            checkpoint: 1 + p.gen_range(cycles - 1),
            cycles,
        };
        let factory = mechanism.mechanism().factory;
        if Network::new(case.config.clone(), factory.as_ref(), case.seed).is_ok() {
            return case;
        }
        *skips += 1;
    }
}
