//! Differential wall for [`LatchBank::step_with`]: the `Vec`-based bufferless
//! datapath it replaced, kept as the reference — flit vectors, an
//! `Assignment` list, the [`FreeDirs`] free list, `Vec<Direction>` blocked
//! scratch, the step bodies of the three routers that shared them — and
//! driven side by side with the kernel over every small case. Equal means
//! equal outputs, equal counters and an equal RNG state afterwards: the
//! draw sequence is part of the contract.

use afc_netsim::config::NetworkConfig;
use afc_netsim::counters::ActivityCounters;
use afc_netsim::fault_aware::RouteOutcome;
use afc_netsim::flit::{Flit, PacketId};
use afc_netsim::geom::{Direction, NodeId, PortId};
use afc_netsim::rng::SimRng;
use afc_netsim::router::RouterOutputs;
use afc_netsim::topology::Mesh;

use crate::arbiter::FreeDirs;
use crate::deflection::{LatchBank, Loser, RankPolicy};

type Prefer<'a> = Option<&'a mut dyn FnMut(&Flit) -> RouteOutcome>;

struct Assignment {
    flit: Flit,
    dir: Direction,
    deflected: bool,
}

/// The reference router state: what `DeflectionRouter`, `DropRouter` and
/// `AfcRouter` each held before the latch bank.
struct Reference {
    node: NodeId,
    mesh: Mesh,
    dirs: Vec<Direction>,
    policy: RankPolicy,
    eject_bandwidth: usize,
    latches: Vec<Flit>,
}

impl Reference {
    fn rank(&self, flits: &mut [Flit], rng: &mut SimRng) {
        match self.policy {
            RankPolicy::Random => rng.shuffle(flits),
            RankPolicy::OldestFirst => flits.sort_by_key(|f| (f.injected_at, f.packet, f.seq)),
        }
    }

    fn split_ejections_into(&mut self, out: &mut Vec<Flit>) {
        let latches = &mut self.latches;
        let mut idx: Vec<usize> = (0..latches.len())
            .filter(|&i| latches[i].dest == self.node)
            .collect();
        idx.sort_by_key(|&i| (latches[i].injected_at, latches[i].packet, latches[i].seq));
        idx.truncate(self.eject_bandwidth);
        idx.sort_unstable();
        let start = out.len();
        for &i in idx.iter().rev() {
            out.push(latches.swap_remove(i));
        }
        out[start..].reverse();
    }

    fn assign_with_into(
        &self,
        flits: &mut [Flit],
        blocked: &[Direction],
        mut prefer: impl FnMut(&Flit) -> Option<Direction>,
        rng: &mut SimRng,
        out: &mut Vec<Assignment>,
    ) {
        let mut free = FreeDirs::fill(self.dirs.iter().copied(), |d| !blocked.contains(&d));
        assert!(flits.len() <= free.len(), "deflection invariant violated");
        self.rank(flits, rng);
        for &flit in flits.iter() {
            let choice = match prefer(&flit) {
                Some(d) => free.contains(d).then_some(d),
                None => free.first_free(self.mesh.productive_dirs(self.node, flit.dest)),
            };
            let (dir, deflected) = match choice {
                Some(d) => (d, false),
                None => (free.get(rng.gen_index(free.len())), true),
            };
            free.take(dir);
            out.push(Assignment {
                flit,
                dir,
                deflected,
            });
        }
    }

    /// `DeflectionRouter::step` past the empty-latch return, with
    /// `AfcRouter::step_deflect`'s re-sync hold (`held`) folded in.
    fn step_deflect(
        &mut self,
        dead: u8,
        held: u8,
        mut prefer: Prefer<'_>,
        rng: &mut SimRng,
        out: &mut RouterOutputs,
        counters: &mut ActivityCounters,
    ) {
        let before = out.ejected.len();
        self.split_ejections_into(&mut out.ejected);
        counters.ejections += (out.ejected.len() - before) as u64;

        let mut flits = std::mem::take(&mut self.latches);
        let mut assigns = Vec::new();
        let mut blocked: Vec<Direction> = Vec::new();
        if let Some(route) = prefer.as_mut() {
            let mut i = 0;
            while i < flits.len() {
                if matches!(route(&flits[i]), RouteOutcome::Unreachable) {
                    out.dropped.push(flits.remove(i));
                    counters.drops += 1;
                } else {
                    i += 1;
                }
            }
        }
        // The dead-port list, shortened until every flit has a port
        // (`FaultAwareness::fill_blocked`, as was).
        for &d in &self.dirs {
            if dead >> d.index() & 1 != 0 {
                blocked.push(d);
            }
        }
        while !blocked.is_empty() && flits.len() > self.dirs.len() - blocked.len() {
            blocked.pop();
        }
        for &d in &self.dirs {
            if held >> d.index() & 1 != 0 && flits.len() + blocked.len() < self.dirs.len() {
                blocked.push(d);
            }
        }
        counters.arbitrations += flits.len() as u64;
        let degraded = prefer.is_some();
        match prefer {
            None => self.assign_with_into(&mut flits, &blocked, |_| None, rng, &mut assigns),
            Some(route) => self.assign_with_into(
                &mut flits,
                &blocked,
                |f| match route(f) {
                    RouteOutcome::Dir(d) => Some(d),
                    RouteOutcome::Local | RouteOutcome::Unreachable => None,
                },
                rng,
                &mut assigns,
            ),
        }
        for a in &mut assigns {
            let productive = self.mesh.productive_dirs(self.node, a.flit.dest);
            if a.deflected {
                a.flit.deflections = a.flit.deflections.saturating_add(1);
                counters.deflections += 1;
            } else if degraded && !productive.contains(a.dir) {
                counters.reroutes += 1;
            }
            a.flit.hops += 1;
            counters.crossbar_traversals += 1;
            counters.link_traversals += 1;
            out.flits[PortId::Net(a.dir)] = Some(a.flit);
        }
    }

    /// `DropRouter::step` past the empty-latch return.
    fn step_drop(
        &mut self,
        dead: u8,
        mut prefer: Prefer<'_>,
        rng: &mut SimRng,
        out: &mut RouterOutputs,
        counters: &mut ActivityCounters,
    ) {
        let before = out.ejected.len();
        self.split_ejections_into(&mut out.ejected);
        counters.ejections += (out.ejected.len() - before) as u64;

        let mut flits = std::mem::take(&mut self.latches);
        self.rank(&mut flits, rng);
        let mut free = FreeDirs::fill(self.dirs.iter().copied(), |d| dead >> d.index() & 1 == 0);
        for mut flit in flits.iter().copied() {
            counters.arbitrations += 1;
            let productive = self.mesh.productive_dirs(self.node, flit.dest);
            let choice = match prefer.as_mut() {
                None => free.first_free(productive),
                Some(route) => match route(&flit) {
                    RouteOutcome::Dir(d) if free.contains(d) => {
                        if !productive.contains(d) {
                            counters.reroutes += 1;
                        }
                        Some(d)
                    }
                    _ => None,
                },
            };
            match choice {
                Some(dir) => {
                    free.take(dir);
                    flit.hops += 1;
                    counters.crossbar_traversals += 1;
                    counters.link_traversals += 1;
                    out.flits[PortId::Net(dir)] = Some(flit);
                }
                None => {
                    counters.drops += 1;
                    counters.retransmissions += 1;
                    out.dropped.push(flit);
                }
            }
        }
    }
}

/// SplitMix-style scramble: per-case pseudo-random choices without an RNG
/// whose state would need keeping in step.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One case, both ways. `hops` holds the degraded-mode outcome of each
/// flit by packet id (`None`: a clean step).
#[allow(clippy::too_many_arguments)]
fn check(
    mesh: &Mesh,
    node: NodeId,
    policy: RankPolicy,
    loser: Loser,
    eject_bandwidth: usize,
    flits: &[Flit],
    (dead, held): (u8, u8),
    hops: Option<&[RouteOutcome]>,
    seed: u64,
    outs: (&mut RouterOutputs, &mut RouterOutputs),
) {
    let mut bank = LatchBank::new(node, mesh, policy, eject_bandwidth);
    flits.iter().for_each(|f| bank.push(*f));
    let mut reference = Reference {
        node,
        mesh: mesh.clone(),
        dirs: mesh.neighbor_dirs(node).collect(),
        policy,
        eject_bandwidth,
        latches: flits.to_vec(),
    };
    let mut hop_a = |f: &Flit| hops.expect("hooked")[f.packet.0 as usize];
    let mut hop_b = hop_a;
    let (mut rng_a, mut rng_b) = (SimRng::seed_from(seed), SimRng::seed_from(seed));
    let (out_a, out_b) = outs;
    out_a.clear();
    out_b.clear();
    let (mut c_a, mut c_b) = (ActivityCounters::new(), ActivityCounters::new());

    let prefer: Prefer<'_> = match hops {
        Some(_) => Some(&mut hop_a),
        None => None,
    };
    let sent = bank.step_with(loser, dead, held, prefer, &mut rng_a, out_a, &mut c_a);
    let prefer: Prefer<'_> = match hops {
        Some(_) => Some(&mut hop_b),
        None => None,
    };
    match loser {
        Loser::Deflect => reference.step_deflect(dead, held, prefer, &mut rng_b, out_b, &mut c_b),
        Loser::Drop => reference.step_drop(dead | held, prefer, &mut rng_b, out_b, &mut c_b),
    }

    let case = || {
        format!(
            "{node} {policy:?} {loser:?} bw {eject_bandwidth} dead {dead:04b} held {held:04b} \
             hops {hops:?} seed {seed} flits {:?}",
            flits
                .iter()
                .map(|f| (f.dest.index(), f.injected_at))
                .collect::<Vec<_>>()
        )
    };
    assert!(bank.is_empty(), "{}", case());
    assert_eq!(out_a.flits, out_b.flits, "{}", case());
    assert_eq!(out_a.ejected, out_b.ejected, "{}", case());
    assert_eq!(out_a.dropped, out_b.dropped, "{}", case());
    assert_eq!(c_a, c_b, "{}", case());
    assert_eq!(rng_a.state(), rng_b.state(), "{}", case());
    let used = Direction::ALL
        .iter()
        .filter(|d| out_a.flits[PortId::Net(**d)].is_some())
        .fold(0, |m, d| m | 1 << d.index());
    assert_eq!(sent, used, "{}", case());
}

#[test]
fn latch_kernel_equals_the_vec_reference_on_every_small_case() {
    let config = NetworkConfig::paper_3x3();
    let mesh = config.mesh().unwrap();
    let mut cases = 0u64;
    let (mut out_a, mut out_b) = (RouterOutputs::new(), RouterOutputs::new());
    // Every node of the 3x3: degrees 2, 3 and 4, every port-presence mask
    // a mesh produces. From any of them the nine destinations are every
    // productive set (none = local, one, two) the position admits.
    for node in mesh.nodes() {
        let dirs: Vec<Direction> = mesh.neighbor_dirs(node).collect();
        let present = dirs.iter().fold(0u8, |m, d| m | 1 << d.index());
        for count in 0..=dirs.len() + 1 {
            for tuple in 0..9u64.pow(count as u32) {
                // Destinations by base-9 digit; ages and packet ids vary
                // with the tuple so ejection and oldest-first ranking see
                // ties, inversions and id fallbacks.
                let flits: Vec<Flit> = (0..count)
                    .map(|i| {
                        let dest = NodeId::new((tuple / 9u64.pow(i as u32) % 9) as usize);
                        let mut f = Flit::test_flit(PacketId(i as u64), NodeId::new(0), dest);
                        f.injected_at = mix(tuple, i as u64) % 3;
                        f.seq = (mix(tuple, 7 + i as u64) % 2) as u16;
                        f.len = 2;
                        f
                    })
                    .collect();
                let non_local = flits.iter().filter(|f| f.dest != node).count();
                // Every way to mark each present port dead, held or open —
                // crossed with every tuple up to three flits; four- and
                // five-flit tuples rotate through the markings instead
                // (each marking still meets thousands of tuples).
                let stride = [1, 1, 1, 1, 3, 27][count];
                for marks in (tuple % stride..3u64.pow(dirs.len() as u32)).step_by(stride as usize)
                {
                    let (mut dead, mut held) = (0u8, 0u8);
                    for (k, d) in dirs.iter().enumerate() {
                        match marks / 3u64.pow(k as u32) % 3 {
                            1 => dead |= 1 << d.index(),
                            2 => held |= 1 << d.index(),
                            _ => {}
                        }
                    }
                    debug_assert_eq!((dead | held) & !present, 0);
                    let salt = mix(tuple, marks ^ (node.index() as u64) << 32);
                    for (policy, loser, hooked) in [
                        (RankPolicy::Random, Loser::Deflect, false),
                        (RankPolicy::Random, Loser::Deflect, true),
                        (RankPolicy::OldestFirst, Loser::Deflect, false),
                        (RankPolicy::OldestFirst, Loser::Deflect, true),
                        (RankPolicy::Random, Loser::Drop, false),
                        (RankPolicy::Random, Loser::Drop, true),
                        (RankPolicy::OldestFirst, Loser::Drop, false),
                        (RankPolicy::OldestFirst, Loser::Drop, true),
                    ] {
                        let eject_bandwidth = 1 + (salt % 2) as usize;
                        // Deflection past its port count is the invariant
                        // panic (its own test), not a case.
                        let staying =
                            non_local + (count - non_local).saturating_sub(eject_bandwidth);
                        if loser == Loser::Deflect && !hooked && staying > dirs.len() {
                            continue;
                        }
                        // Degraded outcomes: a local flit routes `Local`;
                        // any other gets some present port or no path.
                        let hops: Vec<RouteOutcome> = flits
                            .iter()
                            .map(
                                |f| match mix(salt, f.packet.0) as usize % (dirs.len() + 1) {
                                    _ if f.dest == node => RouteOutcome::Local,
                                    k if k < dirs.len() => RouteOutcome::Dir(dirs[k]),
                                    _ => RouteOutcome::Unreachable,
                                },
                            )
                            .collect();
                        let unreachable = flits
                            .iter()
                            .zip(&hops)
                            .filter(|(_, h)| **h == RouteOutcome::Unreachable)
                            .count();
                        if loser == Loser::Deflect && hooked && staying - unreachable > dirs.len() {
                            continue;
                        }
                        check(
                            &mesh,
                            node,
                            policy,
                            loser,
                            eject_bandwidth,
                            &flits,
                            (dead, held),
                            hooked.then_some(&hops[..]),
                            salt,
                            (&mut out_a, &mut out_b),
                        );
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases > 1_000_000, "only {cases} cases");
}
