//! The lockstep harness (DESIGN.md §8, §12): one drawn [`Case`] stepped
//! on every side at once — a naive reference stepper, the tracked
//! [`Network`], and sharded `Network`s at 2, 3 and 5 threads (gate floor
//! 0) — each offered the same packets every cycle.
//!
//! The stepper is built from the public API alone: it drives real routers
//! (a bank from the mechanism's factory) and real `NodeInterface`s over
//! plain data: one `VecDeque<(due, item)>` per link direction, `Vec` NACK
//! and ack circuits, fault fates rescanned from the `FaultPlan` per
//! arrival, and every link, NI and router visited every cycle — no link
//! wheel, arrival masks, activity sets, idle replay, `Accum` or
//! `DueQueue`. Each cycle follows `Network::try_step`'s frame: detection
//! schedule; NACK, then ack retirement; every link in channel order
//! (credits through credit loss, control, the flit's fate); NI timeouts;
//! injection; router steps on their `(cycle, router)` streams; the NI
//! sideband.
//!
//! Every side's delivered stream is compared every cycle. At the case's
//! checkpoint cycle the `save_state` bytes of every network must be
//! equal; one sharded side is then replaced by a fresh network restored
//! from those bytes at another thread count (which must re-save them
//! unchanged), and another is retargeted to another thread count. At the
//! end, router counters, `NetworkStats`, the fault log, the unreachable
//! records and the drain state are compared against the stepper, and the
//! networks' final snapshot bytes against each other. A probabilistic
//! plan keeps the sharded sides serial (`parallel::gate`); every other
//! case must have sharded on every sharded side.
//!
//! Not checked here: packet metadata comes from [`Network::packet_table`]
//! (the stepper steps *before* the networks each cycle, so it reads the
//! table as of the cycle's start), so the table itself is trusted. Nor are
//! the age and stall watchdogs modelled: no drawn run nears them, and a
//! network error fails the case.

use std::collections::VecDeque;

use afc_netsim::channel::{ControlSignal, Credit};
use afc_netsim::config::NetworkConfig;
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
use afc_netsim::snapshot::{SnapshotReader, SnapshotWriter};
use afc_netsim::stats::NetworkStats;
use afc_netsim::topology::Mesh;

use super::{draw, Case};

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

/// Thread counts of the sharded sides; at the checkpoint a side at `t`
/// threads moves to `7 - t` (2 ↔ 5, 3 → 4).
const SHARDED: [usize; 3] = [2, 3, 5];

/// Mean packet length of the offered mix, in flits.
const MEAN_LEN: f64 = 0.97 * 3.5 + 0.03 * 72.5;

/// A network of `case` on `threads` threads, gate floor 0.
fn build(case: &Case, threads: usize) -> Network {
    let factory = case.mechanism.mechanism().factory;
    let mut net = Network::new(case.config.clone(), factory.as_ref(), case.seed).expect("drawn");
    net.set_sim_threads(threads);
    net.set_parallel_threshold(0);
    net
}

fn save(net: &Network) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    net.save_state(&mut w).expect("save");
    w.into_bytes()
}

/// What a case saw, summed over a sweep to prove it was not vacuous.
#[derive(Default)]
struct Tally {
    delivered: u64,
    faults: u64,
    kills: u64,
    /// Cases run sharded / kept serial by a probabilistic plan.
    sharded: u64,
    serial: u64,
}

/// Steps `case` on every side, offering all of them the same packets,
/// until the tracked network drains or a budget runs out; compares as the
/// module docs say.
fn run(index: u64, case: &Case, tally: &mut Tally) {
    let ctx = |what: &str| format!("case {index}: {what} ({case:?})");
    let mut sides: Vec<(usize, Network)> = [1]
        .iter()
        .chain(&SHARDED)
        .map(|&t| (t, build(case, t)))
        .collect();
    let mut reference = Stepper::new(
        &case.config,
        case.mechanism.mechanism().factory.as_ref(),
        case.seed,
    );
    let mut traffic = SimRng::seed_from(case.seed ^ 0x007A_FF1C);
    let mesh = sides[0].1.mesh().clone();
    let vnets = case.config.vnet_count();
    let mut got = Vec::new();
    for cycle in 0..case.cycles + 3_000 {
        if cycle == case.checkpoint {
            let bytes = save(&sides[0].1);
            for (t, net) in &sides[1..] {
                assert!(
                    save(net) == bytes,
                    "{}",
                    ctx(&format!("x{t}: snapshot bytes at {cycle}"))
                );
            }
            let j = 1 + index as usize % SHARDED.len();
            let t = 7 - sides[j].0;
            let mut fresh = build(case, t);
            let mut r = SnapshotReader::new(&bytes);
            fresh
                .load_state(&mut r)
                .unwrap_or_else(|e| panic!("{}", ctx(&format!("restore: {e}"))));
            r.finish("network").expect("the whole snapshot read");
            assert!(
                save(&fresh) == bytes,
                "{}",
                ctx("save -> load -> save changed the bytes")
            );
            sides[j] = (t, fresh);
            let k = 1 + j % SHARDED.len();
            let (t, net) = &mut sides[k];
            *t = 7 - *t;
            net.set_sim_threads(*t);
        }
        for src in mesh.nodes() {
            if cycle >= case.cycles || !traffic.gen_bool(case.load / MEAN_LEN) {
                continue;
            }
            let Some(dest) = case.pattern.dest(src, &mesh, &mut traffic) else {
                continue;
            };
            let len = match traffic.gen_bool(0.03) {
                true => 65 + traffic.gen_index(16) as u16,
                false => 1 + traffic.gen_index(6) as u16,
            };
            let vnet = VirtualNetwork(traffic.gen_index(vnets) as u8);
            let (kind, tag) = (PacketKind::Synthetic, traffic.gen_range(1 << 40));
            let input = PacketInput {
                dest,
                vnet,
                len,
                kind,
                tag,
            };
            let ids: Vec<_> = sides
                .iter_mut()
                .map(|(_, net)| net.offer_packet(src, input))
                .collect();
            assert!(
                ids.iter().all(|&id| id == ids[0]),
                "{}",
                ctx("packet ids differ")
            );
            let desc = PacketDescriptor {
                id: ids[0],
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
        let want = reference.step(sides[0].1.packet_table());
        for (t, net) in &mut sides {
            net.try_step()
                .unwrap_or_else(|e| panic!("{}", ctx(&format!("x{t} failed: {e}"))));
            got.clear();
            net.take_delivered_into(&mut got);
            assert!(
                got == want,
                "{}",
                ctx(&format!("x{t}: delivered streams diverge at {cycle}"))
            );
        }
        tally.delivered += want.len() as u64;
        if cycle >= case.cycles && sides[0].1.is_drained() {
            break;
        }
    }
    let d = |x: &dyn std::fmt::Debug| format!("{x:?}");
    let nodes = mesh.node_count();
    let theirs: Vec<_> = (0..nodes)
        .map(|i| *reference.routers.router(i).counters())
        .collect();
    let end = save(&sides[0].1);
    let sharded = case.config.faults.is_deterministic();
    for (t, net) in &sides {
        let ours: Vec<_> = (0..nodes)
            .map(|i| net.router_counters(NodeId::new(i)))
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
                "{}",
                ctx(&format!("x{t} at {}: {part}", net.now()))
            );
        }
        assert!(
            save(net) == end,
            "{}",
            ctx(&format!("x{t}: final snapshot bytes"))
        );
        let expect = *t > 1 && sharded;
        assert_eq!(
            net.parallel_cycles() > 0,
            expect,
            "{}",
            ctx(&format!("x{t}: sharded cycles"))
        );
    }
    tally.faults += reference.fault_log.len() as u64;
    tally.kills += reference.stats.links_failed;
    match sharded {
        true => tally.sharded += 1,
        false => tally.serial += 1,
    }
}

/// Runs cases `0..cases` of sweep `sweep` and checks that the sweep was
/// not vacuous.
pub fn sweep(sweep: u64, cases: u64, big: bool) {
    let (mut skips, mut tally) = (0, Tally::default());
    for index in 0..cases {
        run(index, &draw(sweep, index, big, &mut skips), &mut tally);
    }
    let Tally {
        delivered,
        faults,
        kills,
        sharded,
        serial,
    } = tally;
    eprintln!(
        "{cases} cases ({skips} draws rejected by Network::new; {sharded} sharded, {serial} \
         kept serial): {delivered} packets delivered, {faults} faults logged, {kills} link \
         kills detected"
    );
    assert!(delivered > 0, "vacuous sweep: nothing delivered");
    assert!(faults > 0, "vacuous sweep: no fault fired");
    assert!(kills > 0, "vacuous sweep: no link kill detected");
    assert!(
        sharded > 0 && serial > 0,
        "vacuous sweep: one schedule never ran"
    );
}
