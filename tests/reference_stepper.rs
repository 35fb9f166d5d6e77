//! A naive reference stepper, run in lockstep with [`Network`] (DESIGN.md §8).
//!
//! From the public API alone, the stepper drives real routers (a bank from
//! the mechanism's factory) and real `NodeInterface`s over plain data: one
//! `VecDeque<(due, item)>` per link direction, `Vec` NACK and ack circuits,
//! fault fates rescanned from the `FaultPlan` per arrival, and every link,
//! NI and router visited every cycle — no link wheel, arrival masks,
//! activity sets, idle replay, `Accum` or `DueQueue`. Each cycle follows
//! `Network::try_step`'s frame: detection schedule; NACK, then ack
//! retirement; every link in channel order (credits through credit loss,
//! control, the flit's fate); NI timeouts; injection; router steps on their
//! `(cycle, router)` streams; the NI sideband.
//!
//! Not checked here: packet metadata comes from [`Network::packet_table`]
//! (the stepper steps *before* the network each cycle, so it reads the
//! table as of the cycle's start), so the table itself is trusted. Nor are
//! the age and stall watchdogs modelled: no drawn run nears them, and a
//! network error fails the case. Tier 1 runs 40 random configurations; the
//! `#[ignore]`d sweep (CI's `test` job) runs 320, 8×8 and 12×12 among them.

use std::collections::VecDeque;

use afc_bench::MechanismId;
use afc_core::config::AfcConfig;
use afc_netsim::channel::{ControlSignal, Credit};
use afc_netsim::config::{NetworkConfig, RetransmitConfig, VnetClass, VnetConfig};
use afc_netsim::faults::{
    FaultEvent, FaultEventKind, FaultPlan, FaultWindow, LinkEvent, LinkFault, LinkFaultKind,
};
use afc_netsim::flit::{Cycle, Flit, PacketId, PacketKind, VirtualNetwork};
use afc_netsim::geom::{Direction, NodeId, PortId};
use afc_netsim::network::Network;
use afc_netsim::ni::{NodeInterface, UnreachablePacket};
use afc_netsim::packet::{DeliveredPacket, PacketDescriptor, PacketInput, PacketTable};
use afc_netsim::rng::SimRng;
use afc_netsim::router::{alloc_rings, RouterBank, RouterFactory, RouterMode, RouterOutputs};
use afc_netsim::stats::NetworkStats;
use afc_netsim::topology::Mesh;

const MECHANISMS: [MechanismId; 4] = [
    MechanismId::Backpressured,
    MechanismId::Backpressureless,
    MechanismId::Drop,
    MechanismId::Afc,
];

/// Fault-plan kinds, in rotation: none, transient drop+corrupt, credit
/// loss, kill/revive, churn.
const PLAN_KINDS: usize = 5;

/// What rides a reverse lane.
#[derive(Clone, Copy)]
enum Back {
    Credit(Credit),
    Control(ControlSignal),
}

/// One directed link: its endpoints and one queue per direction.
#[derive(Default)]
struct Link {
    from: NodeId,
    dir: Direction,
    to: NodeId,
    fwd: VecDeque<(Cycle, Flit)>,
    rev: VecDeque<(Cycle, Back)>,
}

/// The items of `q` due at `now`, in push order. A lane's delay is fixed,
/// so its dues never decrease; an overdue item is a lost delivery.
fn due<T: Copy>(q: &mut VecDeque<(Cycle, T)>, now: Cycle) -> Vec<T> {
    let mut out = Vec::new();
    while let Some(&(at, item)) = q.front().filter(|&&(at, _)| at <= now) {
        assert_eq!(at, now, "an item due at {at} still waits at {now}");
        out.push(item);
        q.pop_front();
    }
    out
}

/// Retires every entry of a circuit queue due by `now`: the whole-vector
/// scan that `swap_remove`s each due entry and re-checks its index.
fn retire<T>(q: &mut Vec<(Cycle, T)>, now: Cycle) -> Vec<T> {
    let (mut out, mut i) = (Vec::new(), 0);
    while i < q.len() {
        if q[i].0 <= now {
            out.push(q.swap_remove(i).1);
        } else {
            i += 1;
        }
    }
    out
}

/// The plan's verdict on an arrival over `link` at `now`, a flit (`flit`)
/// or a credit: the plan scanned in order, `rng` drawn only when an armed
/// probabilistic entry matches. `Some(true)` lost, `Some(false)` corrupted
/// (flits only), `None` delivered. A kill holds until a covering revival
/// at or after it (a revival wins ties).
fn fate(
    plan: &FaultPlan,
    mesh: &Mesh,
    (from, dir): (NodeId, Direction),
    now: Cycle,
    flit: bool,
    rng: &mut SimRng,
) -> Option<bool> {
    use LinkFaultKind::{CreditLoss, KillAt, ReviveAt, TransientCorrupt, TransientDrop};
    let covers = |f: &&LinkFault| f.selector.matches(mesh, from, dir);
    let revived = |kill| {
        let mut covering = plan.link_faults.iter().filter(covers);
        covering.any(|f| matches!(f.kind, ReviveAt { at } if kill <= at && at <= now))
    };
    let mut armed = |rate: f64, w: FaultWindow| w.contains(now) && rate > 0.0 && rng.gen_bool(rate);
    let mut verdict = None;
    for f in plan.link_faults.iter().filter(covers) {
        match f.kind {
            KillAt { at } if now >= at && !revived(at) => return Some(true),
            TransientDrop { rate, window } if flit && armed(rate, window) => return Some(true),
            TransientCorrupt { rate, window } if flit && armed(rate, window) => {
                verdict = Some(false)
            }
            CreditLoss { rate, window } if !flit && armed(rate, window) => return Some(true),
            _ => {}
        }
    }
    verdict
}

/// The reference network.
struct Stepper {
    now: Cycle,
    mesh: Mesh,
    config: NetworkConfig,
    /// Parent of the per-`(cycle, router)` step streams.
    rng: SimRng,
    fault_rng: SimRng,
    routers: Box<dyn RouterBank>,
    nis: Vec<NodeInterface>,
    /// Every directed link, in the network's channel order.
    links: Vec<Link>,
    /// Link leaving / entering each node per direction (by `Direction::index`).
    out_link: Vec<[Option<usize>; 4]>,
    in_link: Vec<[Option<usize>; 4]>,
    /// Link events not yet detected, in firing order.
    schedule: Vec<LinkEvent>,
    nacks: Vec<(Cycle, Flit)>,
    acks: Vec<(Cycle, (NodeId, PacketId))>,
    fault_log: Vec<FaultEvent>,
    unreachable: Vec<UnreachablePacket>,
    stats: NetworkStats,
    out: RouterOutputs,
}

impl Stepper {
    fn new(config: &NetworkConfig, factory: &dyn RouterFactory, seed: u64) -> Stepper {
        let mesh = config.mesh().expect("valid mesh");
        let (n, per_port) = (mesh.node_count(), factory.buffer_flits_per_port(config));
        let rings = (0..n).map(|_| alloc_rings(per_port)).collect();
        let routers = factory.build_bank(&mesh, config, rings);
        let new_ni = |node| NodeInterface::new(node, config.vnet_count());
        let mut nis: Vec<_> = mesh.nodes().map(new_ni).collect();
        if let Some(r) = config.retransmit {
            nis.iter_mut().for_each(|ni| ni.enable_recovery(r));
        }
        let (mut links, mut out_link, mut in_link) =
            (Vec::new(), vec![[None; 4]; n], vec![[None; 4]; n]);
        for from in mesh.nodes() {
            for dir in Direction::ALL {
                if let Some(to) = mesh.neighbor(from, dir) {
                    out_link[from.index()][dir.index()] = Some(links.len());
                    in_link[to.index()][dir.opposite().index()] = Some(links.len());
                    links.push(Link {
                        from,
                        dir,
                        to,
                        ..Link::default()
                    });
                }
            }
        }
        let rng = SimRng::seed_from(seed);
        Stepper {
            now: 0,
            schedule: config.faults.event_schedule(&mesh),
            mesh,
            config: config.clone(),
            fault_rng: rng.fork(0x00FA_0171),
            rng,
            routers,
            nis,
            links,
            out_link,
            in_link,
            nacks: Vec::new(),
            acks: Vec::new(),
            fault_log: Vec::new(),
            unreachable: Vec::new(),
            stats: NetworkStats::new(),
            out: RouterOutputs::new(),
        }
    }

    /// When the NACK (`extra` 2) or ack (0) circuit from `at` reaches `src`.
    fn circuit(&self, at: usize, src: NodeId, extra: Cycle) -> Cycle {
        let dist = self.mesh.distance(NodeId::new(at), src) as Cycle;
        self.now + dist * self.config.link_latency + extra
    }

    /// One cycle; returns the packets completed during it, in NI order.
    fn step(&mut self, packets: &PacketTable) -> Vec<DeliveredPacket> {
        let (now, n, latency) = (self.now, self.nis.len(), self.config.link_latency);
        let plan = &self.config.faults;

        // Phase 0: link events reach the upstream router (revivals, both ends).
        let fired = self.schedule.partition_point(|e| e.detect_at <= now);
        for ev in self.schedule.drain(..fired) {
            let down = ev.alive.then(|| self.mesh.neighbor(ev.node, ev.dir));
            for node in [Some(ev.node), down.flatten()].into_iter().flatten() {
                let r = self.routers.router_mut(node.index());
                r.note_link_event(ev.node, ev.dir, ev.epoch, ev.alive, now);
            }
            if ev.alive {
                self.stats.links_revived += 1;
            } else {
                self.stats.links_failed += 1;
                let delay = plan.detection_delay;
                self.stats.fault_detection_latency.record(delay);
            }
        }

        // NACKs reach their source, then acks.
        for flit in retire(&mut self.nacks, now) {
            self.nis[flit.src.index()].nack(flit, now, &mut self.stats);
        }
        for (src, id) in retire(&mut self.acks, now) {
            self.nis[src.index()].acknowledge(id, &mut self.stats);
        }

        // Phase 1: every link, reverse side first.
        for link in &mut self.links {
            let (ends, arrived) = ((link.from, link.dir), due(&mut link.rev, now));
            let up = self.routers.router_mut(link.from.index());
            for &back in &arrived {
                let Back::Credit(credit) = back else { continue };
                if fate(plan, &self.mesh, ends, now, false, &mut self.fault_rng).is_none() {
                    up.receive_credit(PortId::Net(link.dir), credit, now);
                    continue;
                }
                self.stats.credits_lost += 1;
                self.stats.faults_injected += 1;
                let (cycle, from, dir, kind) =
                    (now, link.from, link.dir, FaultEventKind::CreditLost);
                self.fault_log.push(FaultEvent {
                    cycle,
                    from,
                    dir,
                    kind,
                });
            }
            for &back in &arrived {
                if let Back::Control(signal) = back {
                    up.receive_control(PortId::Net(link.dir), signal, now);
                }
            }
            let flits = due(&mut link.fwd, now);
            assert!(flits.len() <= 1, "two flits on one link in one cycle");
            let Some(mut flit) = flits.first().copied() else {
                continue;
            };
            if let Some(lost) = fate(plan, &self.mesh, ends, now, true, &mut self.fault_rng) {
                if !lost {
                    flit.corrupt();
                }
                self.stats.faults_injected += 1;
                let ev = FaultEvent::for_flit(now, link.from, link.dir, &flit, lost);
                self.fault_log.push(ev);
                if lost {
                    self.stats.flits_lost_to_faults += 1;
                    continue;
                }
            }
            let down = self.routers.router_mut(link.to.index());
            down.receive_flit(PortId::Net(link.dir.opposite()), flit, now);
        }

        // Phase 2: retransmit timeouts, then one injection attempt per NI.
        for ni in &mut self.nis {
            ni.check_timeouts(now, &mut self.stats);
        }
        for (i, ni) in self.nis.iter_mut().enumerate() {
            ni.try_inject(self.routers.router_mut(i), now, &mut self.stats);
        }

        // Phase 3: every router, outputs onto links, the NI and the NACK circuit.
        for i in 0..n {
            self.out.clear();
            let mut rng = self.rng.fork((now << 16) ^ i as u64);
            let router = self.routers.router_mut(i);
            router.step(now, &mut rng, &mut self.out);
            assert!(self.out.flits[PortId::Local].is_none());
            for dir in Direction::ALL {
                if let Some(flit) = self.out.flits[PortId::Net(dir)] {
                    let c = self.out_link[i][dir.index()].expect("a flit sent off the mesh");
                    self.links[c].fwd.push_back((now + latency + 2, flit));
                }
                if let Some(c) = self.in_link[i][dir.index()] {
                    let credits = self.out.credits[PortId::Net(dir)].iter();
                    let signals = self.out.control.iter();
                    let backs = credits
                        .map(|&c| Back::Credit(c))
                        .chain(signals.map(|&s| Back::Control(s)));
                    self.links[c].rev.extend(backs.map(|b| (now + latency, b)));
                }
            }
            let ni = &mut self.nis[i];
            ni.receive_flits(self.out.ejected.drain(..), packets, now, &mut self.stats);
            let high_water = ni.reassembly_high_water();
            self.stats.reassembly_high_water = self.stats.reassembly_high_water.max(high_water);
            for flit in std::mem::take(&mut self.out.dropped) {
                self.nacks.push((self.circuit(i, flit.src, 2), flit));
            }
        }

        // Phase 3b: corrupt arrivals NACK, acks start back, give-ups log.
        let mut delivered = Vec::new();
        for i in 0..n {
            let corrupt: Vec<Flit> = self.nis[i].drain_corrupt().collect();
            let acks: Vec<_> = self.nis[i].drain_acks().collect();
            for flit in corrupt {
                self.nacks.push((self.circuit(i, flit.src, 2), flit));
            }
            for (src, id) in acks {
                self.acks.push((self.circuit(i, src, 0), (src, id)));
            }
            self.nis[i].drain_unreachable_into(&mut self.unreachable);
            self.nis[i].drain_delivered_into(&mut delivered);
        }

        self.stats.cycles += 1;
        for r in (0..n).map(|i| self.routers.router(i)) {
            match r.mode() {
                RouterMode::Backpressured => self.stats.cycles_backpressured += 1,
                RouterMode::Backpressureless => self.stats.cycles_backpressureless += 1,
                RouterMode::Transitioning => self.stats.cycles_transitioning += 1,
            }
        }
        self.now += 1;
        delivered
    }

    fn is_drained(&self) -> bool {
        self.links.iter().all(|l| l.fwd.is_empty())
            && (0..self.nis.len()).all(|i| self.routers.router(i).occupancy() == 0)
            && self.nacks.is_empty()
            && self.acks.is_empty()
            && self.nis.iter().all(NodeInterface::is_idle)
    }
}

/// One drawn configuration and workload.
#[derive(Debug)]
struct Case {
    config: NetworkConfig,
    mechanism: MechanismId,
    /// Packets offered per node per cycle.
    rate: f64,
    seed: u64,
    cycles: u64,
}

/// A fault plan of kind `kind` (see [`PLAN_KINDS`]) for `mesh` over `cycles`.
fn random_plan(p: &mut SimRng, mesh: &Mesh, kind: usize, cycles: u64) -> FaultPlan {
    let rate = |p: &mut SimRng| 2e-3 + 1e-2 * p.gen_f64();
    let mut plan = match kind {
        0 => FaultPlan::none(),
        1 => FaultPlan::uniform_transient(rate(p), rate(p)),
        2 => FaultPlan::none().with_credit_loss(rate(p)),
        3 => {
            let mut plan = FaultPlan::none();
            for _ in 0..1 + p.gen_index(3) {
                let at = 10 + p.gen_range(cycles);
                let revive = p.gen_bool(0.6).then(|| at + 10 + p.gen_range(cycles));
                if p.gen_bool(0.75) {
                    let (node, dir) = loop {
                        let node = NodeId::new(p.gen_index(mesh.node_count()));
                        let dir = Direction::ALL[p.gen_index(4)];
                        if mesh.neighbor(node, dir).is_some() {
                            break (node, dir);
                        }
                    };
                    plan = plan.kill_link(node, dir, at);
                    if let Some(t) = revive {
                        plan = plan.revive_link(node, dir, t);
                    }
                } else {
                    let node = NodeId::new(p.gen_index(mesh.node_count()));
                    plan = plan.kill_node(node, at);
                    if let Some(t) = revive {
                        plan = plan.revive_node(node, t);
                    }
                }
            }
            plan
        }
        _ => {
            let (period, duty) = (20 + p.gen_range(60), 0.3 + 0.4 * p.gen_f64());
            FaultPlan::none().with_churn(mesh, p.gen_range(1 << 32), period, duty, cycles)
        }
    };
    plan.detection_delay = 1 + p.gen_range(24);
    plan
}

/// Case `index` of sweep `sweep`. Mechanism, plan kind and retransmission
/// rotate with the index, so any 40 consecutive cases cover every
/// combination. The rest is drawn until `Network::new` accepts it; the
/// rejected draws are counted into `skips`.
fn draw(sweep: u64, index: u64, big: bool, skips: &mut u64) -> Case {
    let mut p = SimRng::seed_from(sweep ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mechanism = MECHANISMS[index as usize % 4];
    let kind = (index as usize / 4) % PLAN_KINDS;
    let retransmit = (index / 20) % 2 == 1;
    loop {
        let (width, height) = match big.then(|| p.gen_index(8)) {
            Some(0) => (8, 8),
            Some(1) => (12, 12),
            _ => (1 + p.gen_index(6) as u16, 1 + p.gen_index(6) as u16),
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
        let case = Case {
            config,
            mechanism,
            rate: 0.005 + 0.04 * p.gen_f64(),
            seed: p.gen_range(1 << 32),
            cycles,
        };
        // AFC's gossip-threshold check panics inside construction instead
        // of failing `Network::new`, so it is asked first.
        let afc_ok =
            mechanism != MechanismId::Afc || AfcConfig::paper().validate(&case.config).is_ok();
        let factory = mechanism.mechanism().factory;
        if afc_ok && Network::new(case.config.clone(), factory.as_ref(), case.seed).is_ok() {
            return case;
        }
        *skips += 1;
    }
}

/// Steps `case` on both sides, offering both the same packets, until the
/// network drains or a budget runs out; compares the delivered stream
/// every cycle and everything else at the end. Returns the packets
/// delivered, the faults logged and the link kills detected.
fn run(index: u64, case: &Case) -> [u64; 3] {
    let factory = case.mechanism.mechanism().factory;
    let mut net = Network::new(case.config.clone(), factory.as_ref(), case.seed).expect("drawn");
    let mut reference = Stepper::new(&case.config, factory.as_ref(), case.seed);
    let mut traffic = SimRng::seed_from(case.seed ^ 0x007A_FF1C);
    let nodes = case.config.width as usize * case.config.height as usize;
    let vnets = case.config.vnet_count();
    let mut delivered = 0;
    let mut got = Vec::new();
    for cycle in 0..case.cycles + 3_000 {
        for src in (0..nodes).map(NodeId::new) {
            if cycle >= case.cycles || !traffic.gen_bool(case.rate) {
                continue;
            }
            let dest = NodeId::new((src.index() + 1 + traffic.gen_index(nodes - 1)) % nodes);
            let len = match traffic.gen_bool(0.03) {
                true => 65 + traffic.gen_index(16) as u16,
                false => 1 + traffic.gen_index(6) as u16,
            };
            let vnet = VirtualNetwork(traffic.gen_index(vnets) as u8);
            let (kind, tag) = (PacketKind::Synthetic, traffic.gen_range(1 << 40));
            let id = net.offer_packet(
                src,
                PacketInput {
                    dest,
                    vnet,
                    len,
                    kind,
                    tag,
                },
            );
            let desc = PacketDescriptor {
                id,
                src,
                dest,
                vnet,
                len,
                created_at: cycle,
                kind,
                tag,
            };
            reference.nis[src.index()].enqueue(desc, &mut reference.stats);
        }
        let want = reference.step(net.packet_table());
        net.try_step()
            .unwrap_or_else(|e| panic!("case {index}: the network failed: {e} ({case:?})"));
        got.clear();
        net.take_delivered_into(&mut got);
        assert_eq!(
            got, want,
            "case {index} cycle {cycle}: delivered streams diverge ({case:?})"
        );
        delivered += got.len() as u64;
        if cycle >= case.cycles && net.is_drained() {
            break;
        }
    }
    let d = |x: &dyn std::fmt::Debug| format!("{x:?}");
    let ours: Vec<_> = (0..nodes)
        .map(|i| net.router_counters(NodeId::new(i)))
        .collect();
    let theirs: Vec<_> = (0..nodes)
        .map(|i| *reference.routers.router(i).counters())
        .collect();
    let parts = [
        ("router counters", d(&ours), d(&theirs)),
        ("statistics", d(net.stats()), d(&reference.stats)),
        ("fault log", d(&net.fault_log()), d(&reference.fault_log)),
        (
            "unreachable",
            d(&net.unreachable_packets()),
            d(&reference.unreachable),
        ),
        (
            "drain state",
            d(&net.is_drained()),
            d(&reference.is_drained()),
        ),
    ];
    for (part, got, want) in parts {
        assert_eq!(
            got,
            want,
            "case {index} at {}: {part} ({case:?})",
            net.now()
        );
    }
    [
        delivered,
        net.fault_log().len() as u64,
        net.stats().links_failed,
    ]
}

/// Runs cases `0..cases` of sweep `sweep` and checks that the sweep was
/// not vacuous.
fn lockstep(sweep: u64, cases: u64, big: bool) {
    let (mut skips, mut total) = (0, [0; 3]);
    for index in 0..cases {
        let seen = run(index, &draw(sweep, index, big, &mut skips));
        (0..3).for_each(|k| total[k] += seen[k]);
    }
    let [delivered, faults, kills] = total;
    eprintln!(
        "{cases} cases ({skips} draws rejected by Network::new): {delivered} packets \
         delivered, {faults} faults logged, {kills} link kills detected"
    );
    assert!(delivered > 0, "vacuous sweep: nothing delivered");
    assert!(faults > 0, "vacuous sweep: no fault fired");
    assert!(kills > 0, "vacuous sweep: no link kill detected");
}

#[test]
fn random_configs_step_in_lockstep_with_the_reference() {
    lockstep(0x5EF_0001, 40, false);
}

/// The long sweep: 320 configurations, an eighth of them 8×8 and an
/// eighth 12×12.
#[test]
#[ignore = "long sweep; CI runs it with --ignored"]
fn random_configs_step_in_lockstep_with_the_reference_long() {
    lockstep(0x5EF_1000, 320, true);
}
