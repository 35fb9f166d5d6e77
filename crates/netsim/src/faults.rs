//! Deterministic fault injection: the configured *fault plane*.
//!
//! A [`FaultPlan`] describes every fault a run should experience — transient
//! flit drop/corruption on links, permanent link kills and revivals, and
//! credit loss on the reverse lanes. The plan lives in
//! [`NetworkConfig`](crate::config::NetworkConfig) and is evaluated by the
//! network engine with a dedicated RNG stream forked from the run seed, so a
//! given `(config, seed)` pair reproduces the *exact same* fault sequence
//! cycle for cycle. Every injected fault is counted in
//! [`NetworkStats`](crate::stats::NetworkStats) and recorded in the
//! network's fault log for trace analysis.
//!
//! Fault semantics:
//!
//! * **Transient drop** — an arriving flit silently vanishes with the given
//!   per-flit-hop probability inside the window. Recovery requires the
//!   NI-level retransmit timeout (see
//!   [`RetransmitConfig`](crate::config::RetransmitConfig)).
//! * **Transient corruption** — an arriving flit's payload is damaged (its
//!   `corrupted` flag toggles); the destination NI detects it on arrival
//!   and NACKs the flit back to its source for retransmission.
//! * **Kill** — from cycle `at` onward the link delivers nothing; every
//!   flit pushed onto it is lost (counted as a fault drop).
//! * **Credit loss** — an arriving credit vanishes with the given
//!   probability, modeling a glitched reverse lane. Exercised by the
//!   credit-conservation audit
//!   ([`Network::credit_audit`](crate::network::Network::credit_audit)).

use crate::flit::{Cycle, Flit, PacketId};
use crate::geom::{Direction, NodeId};
use crate::rng::SimRng;
use crate::topology::Mesh;

/// A half-open cycle interval `[start, end)` during which a fault is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First cycle (inclusive) the fault is active.
    pub start: Cycle,
    /// First cycle (exclusive) after which the fault is inert.
    pub end: Cycle,
}

impl FaultWindow {
    /// A window covering the whole run.
    pub const ALWAYS: FaultWindow = FaultWindow {
        start: 0,
        end: Cycle::MAX,
    };

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: Cycle) -> bool {
        self.start <= now && now < self.end
    }
}

/// Which links a [`LinkSelector`] applies to.
///
/// Selectors beyond `All`/`Link` make kill-storm plans expressible without
/// enumerating links: `Node` isolates a node (every directed link entering
/// *or* leaving it), while `Row`/`Column`/`Region` select by the *upstream*
/// endpoint's coordinate — a regional kill severs everything leaving the
/// region's nodes, including the links crossing its boundary outward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSelector {
    /// Every directed link in the mesh.
    All,
    /// The single directed link leaving `from` toward `dir`.
    Link {
        /// Upstream endpoint.
        from: NodeId,
        /// Outgoing direction at the upstream endpoint.
        dir: Direction,
    },
    /// Every directed link entering or leaving `node` (isolates the node).
    Node {
        /// The isolated node.
        node: NodeId,
    },
    /// Every directed link whose upstream endpoint sits in row `y`.
    Row {
        /// Row index (0 = northmost).
        y: u16,
    },
    /// Every directed link whose upstream endpoint sits in column `x`.
    Column {
        /// Column index (0 = westmost).
        x: u16,
    },
    /// Every directed link whose upstream endpoint lies in the inclusive
    /// rectangle `[x0, x1] × [y0, y1]`.
    Region {
        /// West edge (inclusive).
        x0: u16,
        /// North edge (inclusive).
        y0: u16,
        /// East edge (inclusive).
        x1: u16,
        /// South edge (inclusive).
        y1: u16,
    },
}

impl LinkSelector {
    /// Whether the selector covers the directed link `from -> dir`.
    pub fn matches(&self, mesh: &Mesh, from: NodeId, dir: Direction) -> bool {
        match *self {
            LinkSelector::All => true,
            LinkSelector::Link { from: f, dir: d } => f == from && d == dir,
            LinkSelector::Node { node } => from == node || mesh.neighbor(from, dir) == Some(node),
            LinkSelector::Row { y } => mesh.coord(from).y == y,
            LinkSelector::Column { x } => mesh.coord(from).x == x,
            LinkSelector::Region { x0, y0, x1, y1 } => {
                let c = mesh.coord(from);
                (x0..=x1).contains(&c.x) && (y0..=y1).contains(&c.y)
            }
        }
    }
}

/// What a link fault does to the traffic crossing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFaultKind {
    /// Drop each arriving flit with probability `rate` inside `window`.
    TransientDrop {
        /// Per-flit drop probability in `[0, 1]`.
        rate: f64,
        /// Active interval.
        window: FaultWindow,
    },
    /// Corrupt each arriving flit's payload with probability `rate`.
    TransientCorrupt {
        /// Per-flit corruption probability in `[0, 1]`.
        rate: f64,
        /// Active interval.
        window: FaultWindow,
    },
    /// Permanently kill the link: nothing arrives from cycle `at` onward
    /// (until a matching [`LinkFaultKind::ReviveAt`] at or after `at`
    /// supersedes the kill).
    KillAt {
        /// Cycle of the kill.
        at: Cycle,
    },
    /// Revive the link at cycle `at`: any kill whose cycle is `<= at` is
    /// superseded from `at` onward (a revive and a kill scheduled for the
    /// same cycle resolve in the revive's favor). Traffic flows normally
    /// again; the repair plane notifies both endpoints `detection_delay`
    /// cycles later so routing state re-converges (DESIGN.md §15).
    ReviveAt {
        /// Cycle of the revival.
        at: Cycle,
    },
    /// Drop each arriving credit with probability `rate` inside `window`.
    CreditLoss {
        /// Per-credit loss probability in `[0, 1]`.
        rate: f64,
        /// Active interval.
        window: FaultWindow,
    },
}

/// One fault bound to a set of links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Links the fault applies to.
    pub selector: LinkSelector,
    /// Fault behavior.
    pub kind: LinkFaultKind,
}

/// The complete fault schedule for one run.
///
/// An empty plan (the default) injects nothing and costs nothing on the hot
/// path.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Link-level faults, evaluated in order for every matching arrival.
    pub link_faults: Vec<LinkFault>,
    /// Cycles between a link kill taking effect and the upstream router
    /// *detecting* it (modeling a credit/progress timeout). Deterministic:
    /// the engine dispatches the detection exactly `kill_at +
    /// detection_delay`, with no wall-clock involvement.
    pub detection_delay: Cycle,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            link_faults: Vec::new(),
            detection_delay: FaultPlan::DEFAULT_DETECTION_DELAY,
        }
    }
}

impl FaultPlan {
    /// Default link-kill detection latency in cycles.
    pub const DEFAULT_DETECTION_DELAY: Cycle = 16;

    /// A plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty()
    }

    /// Uniform transient faults on every link for the whole run: flits drop
    /// with `drop_rate` and corrupt with `corrupt_rate`.
    pub fn uniform_transient(drop_rate: f64, corrupt_rate: f64) -> FaultPlan {
        let mut plan = FaultPlan::none();
        if drop_rate > 0.0 {
            plan.link_faults.push(LinkFault {
                selector: LinkSelector::All,
                kind: LinkFaultKind::TransientDrop {
                    rate: drop_rate,
                    window: FaultWindow::ALWAYS,
                },
            });
        }
        if corrupt_rate > 0.0 {
            plan.link_faults.push(LinkFault {
                selector: LinkSelector::All,
                kind: LinkFaultKind::TransientCorrupt {
                    rate: corrupt_rate,
                    window: FaultWindow::ALWAYS,
                },
            });
        }
        plan
    }

    /// Adds a permanent kill of the directed link `from -> dir` at `at`.
    pub fn kill_link(mut self, from: NodeId, dir: Direction, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Link { from, dir },
            kind: LinkFaultKind::KillAt { at },
        });
        self
    }

    /// Adds a permanent kill of every link entering or leaving `node` at
    /// `at` (isolates the node).
    pub fn kill_node(mut self, node: NodeId, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Node { node },
            kind: LinkFaultKind::KillAt { at },
        });
        self
    }

    /// Adds a permanent kill of every link leaving row `y` at `at`.
    pub fn kill_row(mut self, y: u16, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Row { y },
            kind: LinkFaultKind::KillAt { at },
        });
        self
    }

    /// Adds a permanent kill of every link leaving column `x` at `at`.
    pub fn kill_column(mut self, x: u16, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Column { x },
            kind: LinkFaultKind::KillAt { at },
        });
        self
    }

    /// Adds a permanent kill of every link leaving the inclusive rectangle
    /// `[x0, x1] × [y0, y1]` at `at`.
    pub fn kill_region(mut self, x0: u16, y0: u16, x1: u16, y1: u16, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Region { x0, y0, x1, y1 },
            kind: LinkFaultKind::KillAt { at },
        });
        self
    }

    /// Adds a revival of the directed link `from -> dir` at `at`.
    pub fn revive_link(mut self, from: NodeId, dir: Direction, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Link { from, dir },
            kind: LinkFaultKind::ReviveAt { at },
        });
        self
    }

    /// Adds a revival of every link entering or leaving `node` at `at`.
    pub fn revive_node(mut self, node: NodeId, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Node { node },
            kind: LinkFaultKind::ReviveAt { at },
        });
        self
    }

    /// Adds a revival of every link leaving the inclusive rectangle
    /// `[x0, x1] × [y0, y1]` at `at`.
    pub fn revive_region(mut self, x0: u16, y0: u16, x1: u16, y1: u16, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Region { x0, y0, x1, y1 },
            kind: LinkFaultKind::ReviveAt { at },
        });
        self
    }

    /// Pairs every `KillAt` fault already in the plan with a `ReviveAt` of
    /// the same selector `after` cycles later — the CLI's `--revive-after`
    /// semantics: every kill heals on a fixed delay.
    pub fn with_revive_after(mut self, after: Cycle) -> FaultPlan {
        let revives: Vec<LinkFault> = self
            .link_faults
            .iter()
            .filter_map(|f| match f.kind {
                LinkFaultKind::KillAt { at } => Some(LinkFault {
                    selector: f.selector,
                    kind: LinkFaultKind::ReviveAt {
                        at: at.saturating_add(after),
                    },
                }),
                _ => None,
            })
            .collect();
        self.link_faults.extend(revives);
        self
    }

    /// Appends a deterministic churn schedule: every `period` cycles one
    /// pseudo-randomly chosen directed link is killed, then revived
    /// `duty * period` cycles later, until `horizon`. The schedule is a
    /// pure function of `(mesh, seed, period, duty, horizon)` — only
    /// `KillAt`/`ReviveAt` entries are produced, so the plan stays
    /// deterministic and parallel-engine eligible.
    pub fn with_churn(
        mut self,
        mesh: &Mesh,
        seed: u64,
        period: Cycle,
        duty: f64,
        horizon: Cycle,
    ) -> FaultPlan {
        assert!(period > 0, "churn period must be positive");
        assert!(
            (0.0..=1.0).contains(&duty),
            "churn duty must be in [0, 1], got {duty}"
        );
        let mut rng = SimRng::seed_from(seed ^ 0x6368_7572_6e00);
        let dead_for = ((period as f64) * duty).round() as Cycle;
        let mut at = period;
        while at < horizon {
            // Rejection-sample a directed link that exists in the mesh.
            let (from, dir) = loop {
                let node = NodeId::new(rng.gen_range(mesh.node_count() as u64) as usize);
                let dir = Direction::ALL[rng.gen_range(4) as usize];
                if mesh.neighbor(node, dir).is_some() {
                    break (node, dir);
                }
            };
            self.link_faults.push(LinkFault {
                selector: LinkSelector::Link { from, dir },
                kind: LinkFaultKind::KillAt { at },
            });
            self.link_faults.push(LinkFault {
                selector: LinkSelector::Link { from, dir },
                kind: LinkFaultKind::ReviveAt {
                    at: at.saturating_add(dead_for),
                },
            });
            at = at.saturating_add(period);
        }
        self
    }

    /// Overrides the link-kill detection latency.
    pub fn with_detection_delay(mut self, cycles: Cycle) -> FaultPlan {
        self.detection_delay = cycles;
        self
    }

    /// True when the plan's entire effect is a pure function of the cycle
    /// counter: only permanent link kills and revivals, no probabilistic
    /// link faults. Deterministic plans never draw from the fault RNG,
    /// which is what lets the sharded engine (whose shards own no fault
    /// RNG) run under them.
    pub fn is_deterministic(&self) -> bool {
        self.link_faults.iter().all(|f| {
            matches!(
                f.kind,
                LinkFaultKind::KillAt { .. } | LinkFaultKind::ReviveAt { .. }
            )
        })
    }

    /// True when any fault in the plan is a revival (the repair plane is
    /// active).
    pub fn has_revivals(&self) -> bool {
        self.link_faults
            .iter()
            .any(|f| matches!(f.kind, LinkFaultKind::ReviveAt { .. }))
    }

    /// Earliest cycle at which the directed link `from -> dir` is
    /// permanently killed, if any kill fault covers it.
    pub fn first_kill_at(&self, mesh: &Mesh, from: NodeId, dir: Direction) -> Option<Cycle> {
        self.link_faults
            .iter()
            .filter(|f| f.selector.matches(mesh, from, dir))
            .filter_map(|f| match f.kind {
                LinkFaultKind::KillAt { at } => Some(at),
                _ => None,
            })
            .min()
    }

    /// The alive-state transition timeline of the directed link
    /// `from -> dir`: `(cycle, alive)` entries in increasing cycle order,
    /// starting from the implicit alive state at cycle 0 (which is *not* an
    /// entry). The 1-based index of each transition is the link's **epoch**
    /// at and after that cycle — the monotonic version number fault gossip
    /// carries so a revival supersedes a kill (and vice versa) regardless
    /// of arrival order. Kills and revivals scheduled for the same cycle
    /// coalesce in the revival's favor.
    pub fn link_timeline(&self, mesh: &Mesh, from: NodeId, dir: Direction) -> Vec<(Cycle, bool)> {
        let mut events: Vec<(Cycle, bool)> = self
            .link_faults
            .iter()
            .filter(|f| f.selector.matches(mesh, from, dir))
            .filter_map(|f| match f.kind {
                LinkFaultKind::KillAt { at } => Some((at, false)),
                LinkFaultKind::ReviveAt { at } => Some((at, true)),
                _ => None,
            })
            .collect();
        if events.is_empty() {
            return events;
        }
        // Within one cycle a revival wins; sorting kills first makes the
        // last state seen at each cycle the winning one.
        events.sort_unstable_by_key(|&(at, alive)| (at, alive));
        let mut timeline = Vec::new();
        let mut i = 0;
        let mut alive = true;
        while i < events.len() {
            let cycle = events[i].0;
            let mut state = alive;
            while i < events.len() && events[i].0 == cycle {
                state = events[i].1;
                i += 1;
            }
            if state != alive {
                alive = state;
                timeline.push((cycle, alive));
            }
        }
        timeline
    }

    /// The deterministic link-event detection schedule: one entry per
    /// alive-state *transition* of each directed link, sorted by
    /// `(detect_cycle, node, dir, epoch)`. `detect_cycle = transition_at +
    /// detection_delay` (saturating). The engine dispatches each entry
    /// once: a death to the upstream router (which masks the output and
    /// gossips the fact), a revival to both endpoints (the upstream router
    /// unmasks and re-gossips; the downstream router clears its input mask
    /// and starts the credit re-sync handshake).
    pub fn event_schedule(&self, mesh: &Mesh) -> Vec<LinkEvent> {
        let mut schedule = Vec::new();
        if self.link_faults.is_empty() {
            return schedule;
        }
        for node in mesh.nodes() {
            for dir in Direction::ALL {
                if mesh.neighbor(node, dir).is_none() {
                    continue;
                }
                for (i, (at, alive)) in self.link_timeline(mesh, node, dir).into_iter().enumerate()
                {
                    schedule.push(LinkEvent {
                        detect_at: at.saturating_add(self.detection_delay),
                        node,
                        dir,
                        alive,
                        epoch: (i + 1) as u32,
                    });
                }
            }
        }
        schedule.sort_unstable_by_key(|e| (e.detect_at, e.node.index(), e.dir.index(), e.epoch));
        schedule
    }

    /// The deterministic link-kill detection schedule: the dead-transition
    /// entries of [`FaultPlan::event_schedule`] as `(detect_cycle, upstream
    /// node, direction)` tuples.
    pub fn kill_schedule(&self, mesh: &Mesh) -> Vec<(Cycle, NodeId, Direction)> {
        self.event_schedule(mesh)
            .into_iter()
            .filter(|e| !e.alive)
            .map(|e| (e.detect_at, e.node, e.dir))
            .collect()
    }

    /// The deterministic link-revival detection schedule: the
    /// alive-transition entries of [`FaultPlan::event_schedule`] as
    /// `(detect_cycle, upstream node, direction)` tuples — symmetric to
    /// [`FaultPlan::kill_schedule`].
    pub fn revive_schedule(&self, mesh: &Mesh) -> Vec<(Cycle, NodeId, Direction)> {
        self.event_schedule(mesh)
            .into_iter()
            .filter(|e| e.alive)
            .map(|e| (e.detect_at, e.node, e.dir))
            .collect()
    }

    /// Adds uniform credit loss on every link for the whole run.
    pub fn with_credit_loss(mut self, rate: f64) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::All,
            kind: LinkFaultKind::CreditLoss {
                rate,
                window: FaultWindow::ALWAYS,
            },
        });
        self
    }

    /// Validates rates, windows, and selector bounds against the mesh
    /// dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`](crate::error::ConfigError) for a
    /// probability outside `[0, 1]`, an inverted window, or a selector
    /// referencing a node, row, column, or region outside the
    /// `width × height` mesh.
    pub fn validate(&self, width: u16, height: u16) -> Result<(), crate::error::ConfigError> {
        use crate::error::ConfigError;
        let nodes = width as usize * height as usize;
        for f in &self.link_faults {
            match f.selector {
                LinkSelector::All | LinkSelector::Link { .. } => {}
                LinkSelector::Node { node } => {
                    if node.index() >= nodes {
                        return Err(ConfigError::OutOfRange {
                            what: "fault selector node",
                            range: "node < width * height",
                        });
                    }
                }
                LinkSelector::Row { y } => {
                    if y >= height {
                        return Err(ConfigError::OutOfRange {
                            what: "fault selector row",
                            range: "row < height",
                        });
                    }
                }
                LinkSelector::Column { x } => {
                    if x >= width {
                        return Err(ConfigError::OutOfRange {
                            what: "fault selector column",
                            range: "column < width",
                        });
                    }
                }
                LinkSelector::Region { x0, y0, x1, y1 } => {
                    if x0 > x1 || y0 > y1 || x1 >= width || y1 >= height {
                        return Err(ConfigError::OutOfRange {
                            what: "fault selector region",
                            range: "x0 <= x1 < width, y0 <= y1 < height",
                        });
                    }
                }
            }
            let (rate, window) = match f.kind {
                LinkFaultKind::TransientDrop { rate, window }
                | LinkFaultKind::TransientCorrupt { rate, window }
                | LinkFaultKind::CreditLoss { rate, window } => (rate, Some(window)),
                LinkFaultKind::KillAt { .. } | LinkFaultKind::ReviveAt { .. } => (0.0, None),
            };
            if !(0.0..=1.0).contains(&rate) {
                return Err(ConfigError::OutOfRange {
                    what: "fault rate",
                    range: "0.0..=1.0",
                });
            }
            if let Some(w) = window {
                if w.end < w.start {
                    return Err(ConfigError::OutOfRange {
                        what: "fault window",
                        range: "start <= end",
                    });
                }
            }
        }
        Ok(())
    }
}

/// One [`LinkFault`] as it bears on a single link, selector resolved away.
#[derive(Debug, Clone, Copy)]
enum Armed {
    /// A `KillAt`: dead throughout the window, which the earliest covering
    /// `ReviveAt` at or after the kill ends (none: forever).
    Dead(FaultWindow),
    Drop(f64, FaultWindow),
    Corrupt(f64, FaultWindow),
    CreditLoss(f64, FaultWindow),
}

/// A [`FaultPlan`] compiled against one network's links: what the engines
/// consult per arriving flit and credit. Each link holds the
/// plan entries that cover it, in plan order, so a probabilistic entry draws
/// from the fault RNG exactly when the plan-scanning queries it replaced
/// would (they survive in the unit tests as the specification). An empty
/// plan compiles to empty vectors: no allocation.
#[derive(Debug, Default)]
pub(crate) struct FaultPlane {
    /// `armed[link_off[c]..link_off[c + 1]]`: link `c`'s entries.
    armed: Vec<Armed>,
    link_off: Vec<u32>,
}

/// Row `i` of a flattened table (`off` is empty when the table is).
#[inline]
fn row<'a, T>(items: &'a [T], off: &[u32], i: usize) -> &'a [T] {
    match off.get(i..i + 2) {
        Some(o) => &items[o[0] as usize..o[1] as usize],
        None => &[],
    }
}

impl FaultPlane {
    /// Compiles `plan` for the links `links` (in the network's channel
    /// order) of `mesh`.
    pub(crate) fn compile(
        plan: &FaultPlan,
        mesh: &Mesh,
        links: impl ExactSizeIterator<Item = (NodeId, Direction)>,
    ) -> FaultPlane {
        use LinkFaultKind::{CreditLoss, KillAt, ReviveAt, TransientCorrupt, TransientDrop};
        let mut plane = FaultPlane::default();
        if !plan.link_faults.is_empty() {
            plane.link_off.reserve_exact(links.len() + 1);
            plane.link_off.push(0);
            for (from, dir) in links {
                let covering = || {
                    plan.link_faults
                        .iter()
                        .filter(move |f| f.selector.matches(mesh, from, dir))
                };
                // A kill stays armed until the earliest revival at or after it.
                let revived_at = |kill: Cycle| {
                    let revivals = covering().filter_map(|f| match f.kind {
                        ReviveAt { at } if at >= kill => Some(at),
                        _ => None,
                    });
                    revivals.min().unwrap_or(Cycle::MAX)
                };
                for fault in covering() {
                    plane.armed.push(match fault.kind {
                        KillAt { at } => Armed::Dead(FaultWindow {
                            start: at,
                            end: revived_at(at),
                        }),
                        TransientDrop { rate, window } => Armed::Drop(rate, window),
                        TransientCorrupt { rate, window } => Armed::Corrupt(rate, window),
                        CreditLoss { rate, window } => Armed::CreditLoss(rate, window),
                        ReviveAt { .. } => continue,
                    });
                }
                plane.link_off.push(plane.armed.len() as u32);
            }
        }
        plane
    }

    /// Whether link `c` is inside a kill's dead window at `now` — all a
    /// deterministic plan can do, so the parallel engine (which admits no
    /// other plan and owns no fault RNG) asks this, not the methods below.
    #[inline]
    pub(crate) fn link_dead(&self, c: usize, now: Cycle) -> bool {
        row(&self.armed, &self.link_off, c)
            .iter()
            .any(|a| matches!(a, Armed::Dead(w) if w.contains(now)))
    }

    /// Decides the fate of a flit arriving over link `c` at `now`, drawing
    /// from `rng` only when an armed probabilistic entry covers it (so an
    /// empty or inactive plan leaves the stream untouched).
    pub(crate) fn flit_fate(&self, c: usize, now: Cycle, rng: &mut SimRng) -> FlitFate {
        let mut fate = FlitFate::Deliver;
        for armed in row(&self.armed, &self.link_off, c) {
            match *armed {
                Armed::Dead(w) if w.contains(now) => return FlitFate::Drop,
                Armed::Drop(rate, w) if w.contains(now) && rate > 0.0 && rng.gen_bool(rate) => {
                    return FlitFate::Drop;
                }
                Armed::Corrupt(rate, w) if w.contains(now) && rate > 0.0 && rng.gen_bool(rate) => {
                    fate = FlitFate::Corrupt;
                }
                _ => {}
            }
        }
        fate
    }

    /// Whether a credit arriving over link `c` at `now` is lost.
    pub(crate) fn credit_lost(&self, c: usize, now: Cycle, rng: &mut SimRng) -> bool {
        row(&self.armed, &self.link_off, c)
            .iter()
            .any(|armed| match *armed {
                Armed::Dead(w) => w.contains(now),
                Armed::CreditLoss(rate, w) => w.contains(now) && rate > 0.0 && rng.gen_bool(rate),
                _ => false,
            })
    }

    /// Heap bytes owned by the compiled tables.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.armed.capacity() * size_of::<Armed>() + self.link_off.capacity() * size_of::<u32>()
    }
}

/// One entry of the deterministic link-event detection schedule: the
/// directed link `node -> dir` transitioned to `alive` (epoch `epoch`) and
/// the engine reports it at `detect_at` (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    /// Cycle the engine dispatches the notification (transition cycle plus
    /// the plan's detection delay).
    pub detect_at: Cycle,
    /// Upstream endpoint of the link.
    pub node: NodeId,
    /// Outgoing direction at the upstream endpoint.
    pub dir: Direction,
    /// New alive state of the link.
    pub alive: bool,
    /// Monotonic per-link epoch of the transition (1-based; epoch 0 is the
    /// implicit initial alive state).
    pub epoch: u32,
}

/// Outcome of evaluating the fault plane for one arriving flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitFate {
    /// Delivered untouched.
    Deliver,
    /// Silently lost on the link.
    Drop,
    /// Delivered with a damaged payload.
    Corrupt,
}

/// One injected fault, as recorded in the network's fault log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultEvent {
    /// Cycle of the event.
    pub cycle: Cycle,
    /// Upstream endpoint of the affected link.
    pub from: NodeId,
    /// Direction of the affected link.
    pub dir: Direction,
    /// What happened.
    pub kind: FaultEventKind,
}

/// The kind of an injected fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultEventKind {
    /// A flit was dropped on the link.
    FlitDropped {
        /// Packet the flit belonged to.
        packet: PacketId,
        /// Flit sequence number.
        seq: u16,
    },
    /// A flit was corrupted on the link.
    FlitCorrupted {
        /// Packet the flit belonged to.
        packet: PacketId,
        /// Flit sequence number.
        seq: u16,
    },
    /// A credit was lost on the reverse lane.
    #[default]
    CreditLost,
}

impl FaultEvent {
    /// Builds the log record for a flit-affecting fault.
    pub fn for_flit(
        cycle: Cycle,
        from: NodeId,
        dir: Direction,
        flit: &Flit,
        dropped: bool,
    ) -> FaultEvent {
        let kind = if dropped {
            FaultEventKind::FlitDropped {
                packet: flit.packet,
                seq: flit.seq,
            }
        } else {
            FaultEventKind::FlitCorrupted {
                packet: flit.packet,
                seq: flit.seq,
            }
        };
        FaultEvent {
            cycle,
            from,
            dir,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh3() -> Mesh {
        Mesh::new(3, 3).unwrap()
    }

    /// The selector-scanning fault queries the engines used before the plan
    /// was compiled into a [`FaultPlane`], kept as its specification: they
    /// rescan the whole plan per query (and `revived_since` rescans it per
    /// armed kill).
    impl FaultPlan {
        /// Whether a matching revival supersedes a kill of `from -> dir` taken
        /// at `kill_at`, as observed at `now`: true iff some `ReviveAt` covers
        /// the link with `kill_at <= at <= now` (the inclusive lower bound is
        /// the revive-wins-ties rule). Draws no randomness, so kill-only plans
        /// are byte-identical with or without this check.
        fn revived_since(
            &self,
            mesh: &Mesh,
            from: NodeId,
            dir: Direction,
            kill_at: Cycle,
            now: Cycle,
        ) -> bool {
            self.link_faults.iter().any(|f| match f.kind {
                LinkFaultKind::ReviveAt { at } => {
                    kill_at <= at && at <= now && f.selector.matches(mesh, from, dir)
                }
                _ => false,
            })
        }

        /// The half-open cycle intervals `[dead_from, alive_from)` during which
        /// the directed link `from -> dir` is dead (the last interval ends at
        /// `Cycle::MAX` if the link never revives). For deterministic plans an
        /// interval test is exactly equivalent to [`FaultPlan::flit_fate`].
        pub fn dead_windows(
            &self,
            mesh: &Mesh,
            from: NodeId,
            dir: Direction,
        ) -> Vec<(Cycle, Cycle)> {
            let mut windows = Vec::new();
            let mut dead_from = None;
            for (cycle, alive) in self.link_timeline(mesh, from, dir) {
                if alive {
                    if let Some(start) = dead_from.take() {
                        windows.push((start, cycle));
                    }
                } else {
                    dead_from = Some(cycle);
                }
            }
            if let Some(start) = dead_from {
                windows.push((start, Cycle::MAX));
            }
            windows
        }

        /// Decides the fate of a flit arriving over the link `from -> dir` at
        /// `now`, drawing from `rng` only when an armed fault matches (so an
        /// empty or inactive plan leaves the stream untouched).
        pub fn flit_fate(
            &self,
            mesh: &Mesh,
            from: NodeId,
            dir: Direction,
            now: Cycle,
            rng: &mut SimRng,
        ) -> FlitFate {
            let mut fate = FlitFate::Deliver;
            for f in &self.link_faults {
                if !f.selector.matches(mesh, from, dir) {
                    continue;
                }
                match f.kind {
                    LinkFaultKind::KillAt { at }
                        if now >= at && !self.revived_since(mesh, from, dir, at, now) =>
                    {
                        return FlitFate::Drop;
                    }
                    LinkFaultKind::TransientDrop { rate, window }
                        if window.contains(now) && rate > 0.0 && rng.gen_bool(rate) =>
                    {
                        return FlitFate::Drop;
                    }
                    LinkFaultKind::TransientCorrupt { rate, window }
                        if window.contains(now) && rate > 0.0 && rng.gen_bool(rate) =>
                    {
                        fate = FlitFate::Corrupt;
                    }
                    _ => {}
                }
            }
            fate
        }

        /// Whether a credit arriving over `from -> dir` at `now` is lost.
        pub fn credit_lost(
            &self,
            mesh: &Mesh,
            from: NodeId,
            dir: Direction,
            now: Cycle,
            rng: &mut SimRng,
        ) -> bool {
            for f in &self.link_faults {
                if !f.selector.matches(mesh, from, dir) {
                    continue;
                }
                match f.kind {
                    LinkFaultKind::KillAt { at }
                        if now >= at && !self.revived_since(mesh, from, dir, at, now) =>
                    {
                        return true;
                    }
                    LinkFaultKind::CreditLoss { rate, window }
                        if window.contains(now) && rate > 0.0 && rng.gen_bool(rate) =>
                    {
                        return true;
                    }
                    _ => {}
                }
            }
            false
        }
    }

    /// Every directed link of `mesh`, in the network's channel order.
    fn links(mesh: &Mesh) -> Vec<(NodeId, Direction)> {
        mesh.nodes()
            .flat_map(|n| Direction::ALL.map(|d| (n, d)))
            .filter(|&(n, d)| mesh.neighbor(n, d).is_some())
            .collect()
    }

    fn random_selector(mesh: &Mesh, rng: &mut SimRng) -> LinkSelector {
        let (w, h) = (mesh.width() as u64, mesh.height() as u64);
        let node = NodeId::new(rng.gen_index(mesh.node_count()));
        match rng.gen_range(6) {
            0 => LinkSelector::All,
            1 => LinkSelector::Link {
                from: node,
                dir: Direction::ALL[rng.gen_index(4)],
            },
            2 => LinkSelector::Node { node },
            3 => LinkSelector::Row {
                y: rng.gen_range(h) as u16,
            },
            4 => LinkSelector::Column {
                x: rng.gen_range(w) as u16,
            },
            _ => {
                let (x0, y0) = (rng.gen_range(w) as u16, rng.gen_range(h) as u16);
                LinkSelector::Region {
                    x0,
                    y0,
                    x1: x0 + rng.gen_range(w - x0 as u64) as u16,
                    y1: y0 + rng.gen_range(h - y0 as u64) as u16,
                }
            }
        }
    }

    fn random_plan(mesh: &Mesh, rng: &mut SimRng, horizon: Cycle) -> FaultPlan {
        let mut plan = FaultPlan::none();
        let window = |rng: &mut SimRng| {
            let start = rng.gen_range(horizon);
            FaultWindow {
                start,
                end: start + rng.gen_range(horizon),
            }
        };
        for _ in 0..rng.gen_range(12) {
            // Rates of exactly 0 and 1 are the edge cases of the draw rule.
            let rate = [0.0, 0.2, 0.7, 1.0][rng.gen_index(4)];
            let at = rng.gen_range(horizon);
            let kind = match rng.gen_range(5) {
                0 => LinkFaultKind::KillAt { at },
                1 => LinkFaultKind::ReviveAt { at },
                2 => LinkFaultKind::TransientDrop {
                    rate,
                    window: window(rng),
                },
                3 => LinkFaultKind::TransientCorrupt {
                    rate,
                    window: window(rng),
                },
                _ => LinkFaultKind::CreditLoss {
                    rate,
                    window: window(rng),
                },
            };
            plan.link_faults.push(LinkFault {
                selector: random_selector(mesh, rng),
                kind,
            });
        }
        plan
    }

    #[test]
    fn compiled_plane_equals_the_scanning_reference() {
        const HORIZON: Cycle = 40;
        for (w, h) in [(1, 5), (4, 1), (3, 3), (5, 4)] {
            let mesh = Mesh::new(w, h).unwrap();
            let links = links(&mesh);
            for seed in 0..60u64 {
                let mut gen = SimRng::seed_from(seed * 31 + w as u64);
                let plan = random_plan(&mesh, &mut gen, HORIZON);
                plan.validate(w, h).unwrap();
                let plane = FaultPlane::compile(&plan, &mesh, links.iter().copied());
                let (mut a, mut b) = (SimRng::seed_from(seed), SimRng::seed_from(seed));
                for now in 0..2 * HORIZON + 2 {
                    for (c, &(from, dir)) in links.iter().enumerate() {
                        let what = format!("{w}x{h} seed {seed} cycle {now} link {c}");
                        assert_eq!(
                            plane.flit_fate(c, now, &mut a),
                            plan.flit_fate(&mesh, from, dir, now, &mut b),
                            "flit fate, {what}"
                        );
                        assert_eq!(a.state(), b.state(), "draws after flit fate, {what}");
                        assert_eq!(
                            plane.credit_lost(c, now, &mut a),
                            plan.credit_lost(&mesh, from, dir, now, &mut b),
                            "credit loss, {what}"
                        );
                        assert_eq!(a.state(), b.state(), "draws after credit loss, {what}");
                        if plan.is_deterministic() {
                            let dead = plan
                                .dead_windows(&mesh, from, dir)
                                .iter()
                                .any(|&(kill, revive)| kill <= now && now < revive);
                            assert_eq!(plane.link_dead(c, now), dead, "dead window, {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_plan_compiles_to_nothing() {
        let mesh = mesh3();
        let plane = FaultPlane::compile(&FaultPlan::none(), &mesh, links(&mesh).into_iter());
        assert_eq!(plane.heap_bytes(), 0);
        let mut rng = SimRng::seed_from(1);
        let before = rng.clone();
        assert_eq!(plane.flit_fate(5, 9, &mut rng), FlitFate::Deliver);
        assert!(!plane.credit_lost(5, 9, &mut rng));
        assert!(!plane.link_dead(5, 9));
        assert_eq!(rng, before);
    }

    #[test]
    fn empty_plan_delivers_everything_without_touching_rng() {
        let plan = FaultPlan::none();
        let mesh = mesh3();
        let mut rng = SimRng::seed_from(1);
        let before = rng.clone();
        for now in 0..100 {
            assert_eq!(
                plan.flit_fate(&mesh, NodeId::new(0), Direction::East, now, &mut rng),
                FlitFate::Deliver
            );
            assert!(!plan.credit_lost(&mesh, NodeId::new(0), Direction::East, now, &mut rng));
        }
        assert_eq!(rng, before, "no fault may consume randomness");
    }

    #[test]
    fn kill_is_absolute_after_the_cycle() {
        let plan = FaultPlan::none().kill_link(NodeId::new(3), Direction::North, 50);
        let mesh = mesh3();
        let mut rng = SimRng::seed_from(2);
        assert_eq!(
            plan.flit_fate(&mesh, NodeId::new(3), Direction::North, 49, &mut rng),
            FlitFate::Deliver
        );
        assert_eq!(
            plan.flit_fate(&mesh, NodeId::new(3), Direction::North, 50, &mut rng),
            FlitFate::Drop
        );
        // Other links are untouched.
        assert_eq!(
            plan.flit_fate(&mesh, NodeId::new(3), Direction::South, 1_000, &mut rng),
            FlitFate::Deliver
        );
        assert!(plan.credit_lost(&mesh, NodeId::new(3), Direction::North, 60, &mut rng));
    }

    #[test]
    fn transient_rates_hit_roughly_proportionally() {
        let plan = FaultPlan::uniform_transient(0.25, 0.0);
        let mesh = mesh3();
        let mut rng = SimRng::seed_from(3);
        let drops = (0..10_000)
            .filter(|&now| {
                plan.flit_fate(&mesh, NodeId::new(0), Direction::East, now, &mut rng)
                    == FlitFate::Drop
            })
            .count();
        assert!((2_000..3_000).contains(&drops), "got {drops}");
    }

    #[test]
    fn windows_gate_faults() {
        let plan = FaultPlan {
            link_faults: vec![LinkFault {
                selector: LinkSelector::All,
                kind: LinkFaultKind::TransientDrop {
                    rate: 1.0,
                    window: FaultWindow { start: 10, end: 20 },
                },
            }],
            detection_delay: FaultPlan::DEFAULT_DETECTION_DELAY,
        };
        let mesh = mesh3();
        let mut rng = SimRng::seed_from(4);
        assert_eq!(
            plan.flit_fate(&mesh, NodeId::new(0), Direction::East, 9, &mut rng),
            FlitFate::Deliver
        );
        assert_eq!(
            plan.flit_fate(&mesh, NodeId::new(0), Direction::East, 10, &mut rng),
            FlitFate::Drop
        );
        assert_eq!(
            plan.flit_fate(&mesh, NodeId::new(0), Direction::East, 20, &mut rng),
            FlitFate::Deliver
        );
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let plan = FaultPlan::uniform_transient(1.5, 0.0);
        assert!(plan.validate(3, 3).is_err());
        assert!(FaultPlan::uniform_transient(0.001, 0.001)
            .validate(3, 3)
            .is_ok());
        assert!(FaultPlan::none().validate(3, 3).is_ok());
    }

    #[test]
    fn validation_rejects_out_of_mesh_selectors() {
        assert!(FaultPlan::none()
            .kill_node(NodeId::new(9), 0)
            .validate(3, 3)
            .is_err());
        assert!(FaultPlan::none().kill_row(3, 0).validate(3, 3).is_err());
        assert!(FaultPlan::none().kill_column(3, 0).validate(3, 3).is_err());
        assert!(FaultPlan::none()
            .kill_region(2, 0, 1, 1, 0)
            .validate(3, 3)
            .is_err());
        assert!(FaultPlan::none()
            .kill_region(0, 0, 1, 3, 0)
            .validate(3, 3)
            .is_err());
        assert!(FaultPlan::none()
            .kill_node(NodeId::new(8), 0)
            .kill_row(2, 0)
            .kill_column(2, 0)
            .kill_region(0, 0, 1, 1, 0)
            .validate(3, 3)
            .is_ok());
    }

    #[test]
    fn node_selector_isolates_both_directions() {
        // Node 4 is the 3x3 center: every link leaving it AND every link
        // entering it (from its four neighbors) must match.
        let mesh = mesh3();
        let sel = LinkSelector::Node {
            node: NodeId::new(4),
        };
        for dir in Direction::ALL {
            assert!(sel.matches(&mesh, NodeId::new(4), dir), "out {dir:?}");
            let nb = mesh.neighbor(NodeId::new(4), dir).unwrap();
            assert!(sel.matches(&mesh, nb, dir.opposite()), "in from {nb:?}");
        }
        // A corner-to-corner-neighbor link never touches the center.
        assert!(!sel.matches(&mesh, NodeId::new(0), Direction::East));
    }

    #[test]
    fn row_column_region_select_by_upstream_coordinate() {
        let mesh = mesh3();
        let row = LinkSelector::Row { y: 1 };
        assert!(row.matches(&mesh, NodeId::new(3), Direction::East));
        assert!(row.matches(&mesh, NodeId::new(5), Direction::North));
        assert!(!row.matches(&mesh, NodeId::new(0), Direction::South));
        let col = LinkSelector::Column { x: 2 };
        assert!(col.matches(&mesh, NodeId::new(2), Direction::South));
        assert!(!col.matches(&mesh, NodeId::new(1), Direction::East));
        let region = LinkSelector::Region {
            x0: 0,
            y0: 0,
            x1: 1,
            y1: 1,
        };
        assert!(region.matches(&mesh, NodeId::new(4), Direction::East));
        assert!(!region.matches(&mesh, NodeId::new(5), Direction::West));
    }

    #[test]
    fn kill_schedule_is_sorted_and_deduplicated() {
        let plan = FaultPlan::none()
            .kill_link(NodeId::new(4), Direction::East, 100)
            // Overlapping kill of the same link later: earliest wins.
            .kill_link(NodeId::new(4), Direction::East, 500)
            .kill_link(NodeId::new(0), Direction::South, 200)
            .with_detection_delay(10);
        let mesh = mesh3();
        let schedule = plan.kill_schedule(&mesh);
        assert_eq!(
            schedule,
            vec![
                (110, NodeId::new(4), Direction::East),
                (210, NodeId::new(0), Direction::South),
            ]
        );
        assert!(plan.is_deterministic());
        assert!(!FaultPlan::uniform_transient(0.1, 0.0).is_deterministic());
        assert!(!FaultPlan::none().with_credit_loss(0.1).is_deterministic());
        assert_eq!(
            plan.first_kill_at(&mesh, NodeId::new(4), Direction::East),
            Some(100)
        );
        assert_eq!(
            plan.first_kill_at(&mesh, NodeId::new(4), Direction::West),
            None
        );
    }

    #[test]
    fn node_kill_schedule_covers_entering_and_leaving_links() {
        let plan = FaultPlan::none()
            .kill_node(NodeId::new(4), 50)
            .with_detection_delay(0);
        let mesh = mesh3();
        let schedule = plan.kill_schedule(&mesh);
        // Center of a 3x3: 4 outgoing + 4 incoming directed links.
        assert_eq!(schedule.len(), 8);
        assert!(schedule.iter().all(|&(cycle, _, _)| cycle == 50));
    }

    #[test]
    fn revival_supersedes_kill_in_flit_fate() {
        let plan = FaultPlan::none()
            .kill_link(NodeId::new(3), Direction::North, 50)
            .revive_link(NodeId::new(3), Direction::North, 200);
        let mesh = mesh3();
        let mut rng = SimRng::seed_from(3);
        let mut fate = |now| plan.flit_fate(&mesh, NodeId::new(3), Direction::North, now, &mut rng);
        assert_eq!(fate(49), FlitFate::Deliver);
        assert_eq!(fate(50), FlitFate::Drop);
        assert_eq!(fate(199), FlitFate::Drop);
        // The revival cycle itself is alive (half-open dead window).
        assert_eq!(fate(200), FlitFate::Deliver);
        assert_eq!(fate(10_000), FlitFate::Deliver);
        let mut rng = SimRng::seed_from(3);
        assert!(plan.credit_lost(&mesh, NodeId::new(3), Direction::North, 199, &mut rng));
        assert!(!plan.credit_lost(&mesh, NodeId::new(3), Direction::North, 200, &mut rng));
        assert!(plan.is_deterministic(), "revivals stay parallel-eligible");
        assert!(plan.has_revivals());
        assert!(!FaultPlan::none()
            .kill_link(NodeId::new(3), Direction::North, 50)
            .has_revivals());
    }

    #[test]
    fn same_cycle_tie_goes_to_the_revival() {
        let plan = FaultPlan::none()
            .kill_link(NodeId::new(1), Direction::East, 80)
            .revive_link(NodeId::new(1), Direction::East, 80);
        let mesh = mesh3();
        // The coalesced timeline has no transition at all: the link never
        // observably dies.
        assert!(plan
            .link_timeline(&mesh, NodeId::new(1), Direction::East)
            .is_empty());
        assert!(plan
            .dead_windows(&mesh, NodeId::new(1), Direction::East)
            .is_empty());
        let mut rng = SimRng::seed_from(4);
        assert_eq!(
            plan.flit_fate(&mesh, NodeId::new(1), Direction::East, 80, &mut rng),
            FlitFate::Deliver
        );
    }

    #[test]
    fn link_timeline_coalesces_and_orders_transitions() {
        let plan = FaultPlan::none()
            .kill_link(NodeId::new(0), Direction::East, 300)
            // Redundant second kill while already dead: no transition.
            .kill_link(NodeId::new(0), Direction::East, 350)
            .revive_link(NodeId::new(0), Direction::East, 500)
            .kill_link(NodeId::new(0), Direction::East, 700);
        let mesh = mesh3();
        assert_eq!(
            plan.link_timeline(&mesh, NodeId::new(0), Direction::East),
            vec![(300, false), (500, true), (700, false)]
        );
        assert_eq!(
            plan.dead_windows(&mesh, NodeId::new(0), Direction::East),
            vec![(300, 500), (700, Cycle::MAX)]
        );
        // An unrelated link has an empty timeline.
        assert!(plan
            .link_timeline(&mesh, NodeId::new(0), Direction::South)
            .is_empty());
    }

    #[test]
    fn event_schedule_epochs_are_monotonic_per_link() {
        let plan = FaultPlan::none()
            .kill_link(NodeId::new(4), Direction::West, 100)
            .revive_link(NodeId::new(4), Direction::West, 250)
            .kill_link(NodeId::new(4), Direction::West, 400)
            .kill_link(NodeId::new(0), Direction::East, 150)
            .with_detection_delay(10);
        let mesh = mesh3();
        let schedule = plan.event_schedule(&mesh);
        assert_eq!(schedule.len(), 4);
        // Sorted by detection cycle across links.
        assert!(schedule
            .windows(2)
            .all(|w| w[0].detect_at <= w[1].detect_at));
        let west: Vec<&LinkEvent> = schedule
            .iter()
            .filter(|e| e.node == NodeId::new(4) && e.dir == Direction::West)
            .collect();
        assert_eq!(
            west.iter()
                .map(|e| (e.detect_at, e.epoch, e.alive))
                .collect::<Vec<_>>(),
            vec![(110, 1, false), (260, 2, true), (410, 3, false)]
        );
        // The other link's epoch numbering is independent.
        let east: Vec<&LinkEvent> = schedule
            .iter()
            .filter(|e| e.node == NodeId::new(0) && e.dir == Direction::East)
            .collect();
        assert_eq!(
            east.iter()
                .map(|e| (e.detect_at, e.epoch, e.alive))
                .collect::<Vec<_>>(),
            vec![(160, 1, false)]
        );
        // revive_schedule / kill_schedule are the alive/dead projections.
        assert_eq!(
            plan.revive_schedule(&mesh),
            vec![(260, NodeId::new(4), Direction::West)]
        );
        assert_eq!(plan.kill_schedule(&mesh).len(), 3);
    }

    #[test]
    fn with_revive_after_heals_every_kill_shape() {
        let plan = FaultPlan::none()
            .kill_node(NodeId::new(4), 50)
            .kill_row(0, 100)
            .with_revive_after(75);
        let mesh = mesh3();
        let kills = plan.kill_schedule(&mesh);
        let revives = plan.revive_schedule(&mesh);
        assert!(!kills.is_empty());
        assert_eq!(kills.len(), revives.len());
        // Every directed link's dead window is exactly 75 cycles wide.
        for node in mesh.nodes() {
            for dir in Direction::ALL {
                for (kill, revive) in plan.dead_windows(&mesh, node, dir) {
                    assert_eq!(revive - kill, 75, "link {node:?} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn churn_is_a_pure_function_of_its_arguments() {
        let mesh = mesh3();
        let a = FaultPlan::none().with_churn(&mesh, 9, 100, 0.5, 1_000);
        let b = FaultPlan::none().with_churn(&mesh, 9, 100, 0.5, 1_000);
        assert_eq!(a.event_schedule(&mesh), b.event_schedule(&mesh));
        let c = FaultPlan::none().with_churn(&mesh, 10, 100, 0.5, 1_000);
        assert_ne!(a.event_schedule(&mesh), c.event_schedule(&mesh));
        // Every churn kill is paired with a revival 50 cycles later, and
        // nothing is scheduled at or past the horizon.
        assert!(a.is_deterministic());
        let events = a.event_schedule(&mesh);
        assert!(!events.is_empty());
        let (kills, revives): (Vec<&LinkEvent>, Vec<&LinkEvent>) =
            events.iter().partition(|e| !e.alive);
        assert_eq!(kills.len(), revives.len());
        for node in mesh.nodes() {
            for dir in Direction::ALL {
                for (kill, revive) in a.dead_windows(&mesh, node, dir) {
                    assert!((100..1_000).contains(&kill));
                    assert_eq!(revive, kill + 50);
                }
            }
        }
    }
}
