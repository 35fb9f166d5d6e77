//! Closed-loop memory-system traffic: the substitute for the paper's
//! Simics/GEMS full-system workloads.
//!
//! Each node models a multithreaded core front-end: `threads` demand units
//! per node alternate between *thinking* (exponential think time) and
//! issuing an L1-miss *transaction*, bounded by `mshrs` outstanding misses
//! per node. A transaction sends a 1-flit request on the request virtual
//! network to an address-hashed L2 bank; the bank replies after its hit (or
//! off-chip miss) latency with a multi-flit data packet on the data virtual
//! network. Completed transactions may emit a dirty writeback (a data
//! packet to a random bank, acknowledged on the second control vnet) — the
//! paper's "unexpected packet" case.
//!
//! This preserves the property the paper's methodology section insists on:
//! the network's latency feeds back into execution time, because slow
//! replies keep MSHRs occupied and throttle further injection. Performance
//! is measured exactly as in Table IV — cycles to complete a fixed number
//! of transactions after warmup.

use afc_netsim::flit::Cycle;
use afc_netsim::geom::NodeId;
use afc_netsim::network::Network;
use afc_netsim::packet::{DeliveredPacket, PacketInput, PacketKind};
use afc_netsim::rng::SimRng;
use afc_netsim::sim::TrafficModel;
use afc_netsim::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};

/// Parameters of one closed-loop workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Workload name (for reports).
    pub name: &'static str,
    /// Demand units (hardware thread contexts) per node.
    pub threads: usize,
    /// Mean think time in cycles between a thread's completed transaction
    /// and its next issue (exponentially distributed).
    pub think_mean: f64,
    /// Maximum outstanding transactions per node (L1 MSHRs, Table II: 16).
    pub mshrs: usize,
    /// L2 bank hit latency (Table II: 12 cycles).
    pub l2_hit_latency: u64,
    /// Off-chip access time for L2 misses (Table II: 250 cycles).
    pub memory_latency: u64,
    /// Fraction of transactions that miss in the L2.
    pub l2_miss_rate: f64,
    /// Fraction of completed transactions that emit a dirty writeback.
    pub writeback_rate: f64,
    /// Control packet length in flits.
    pub control_len: u16,
    /// Data packet length in flits (16 x 32-bit flits = one 64-byte block).
    pub data_len: u16,
    /// Injection rate the paper reports for this workload (Table III),
    /// in flits/node/cycle — used for calibration checks only.
    pub paper_injection_rate: f64,
    /// Program-phase period in cycles (`0` = steady load). Real workloads
    /// alternate communication-heavy and compute-heavy phases; the paper's
    /// mode-duty-cycle data (Section V-A) shows ocean and oltp switching
    /// modes over time.
    pub phase_period: u64,
    /// Fraction of each period spent in the alternate phase.
    pub phase_fraction: f64,
    /// Think-time multiplier during the alternate phase (< 1 = a
    /// communication burst, > 1 = a compute lull).
    pub phase_think_scale: f64,
}

impl WorkloadParams {
    /// Mean think time in effect at `now`, honoring program phases.
    pub fn think_mean_at(&self, now: Cycle) -> f64 {
        if self.phase_period == 0 {
            return self.think_mean;
        }
        let pos = now % self.phase_period;
        let boundary = (self.phase_period as f64 * self.phase_fraction) as u64;
        if pos < boundary {
            self.think_mean * self.phase_think_scale
        } else {
            self.think_mean
        }
    }
}

/// Virtual-network assignment used by the closed-loop model (matching the
/// paper's two control vnets + one data vnet).
pub mod vnets {
    use afc_netsim::flit::VirtualNetwork;
    /// Requests travel on the first control vnet.
    pub const REQUEST: VirtualNetwork = VirtualNetwork(0);
    /// Writeback acknowledgements travel on the second control vnet.
    pub const ACK: VirtualNetwork = VirtualNetwork(1);
    /// Data replies and writebacks travel on the data vnet.
    pub const DATA: VirtualNetwork = VirtualNetwork(2);
}

/// A pending L2 bank response.
#[derive(Debug, Clone, Copy, Default)]
struct PendingReply {
    ready_at: Cycle,
    bank: NodeId,
    requester: NodeId,
    tag: u64,
}

/// Per-node thread states: the cycle at which each thread next wants to
/// issue (`u64::MAX` while a transaction is outstanding).
#[derive(Debug, Clone)]
struct CoreState {
    ready_at: Vec<Cycle>,
    outstanding: usize,
}

/// The closed-loop memory-system traffic model.
///
/// Supports both homogeneous operation (the paper's setup: one workload on
/// every node) and *heterogeneous consolidation* (different applications on
/// different nodes — the scenario the paper's Section V-B approximates with
/// open-loop traffic, here run closed-loop with full feedback).
#[derive(Debug, Clone)]
pub struct ClosedLoopTraffic {
    /// Per-node workload parameters.
    params: Vec<WorkloadParams>,
    cores: Vec<CoreState>,
    pending_replies: Vec<PendingReply>,
    /// Local (same-node) L2 accesses complete without network traffic.
    pending_local: Vec<(Cycle, NodeId, u64)>,
    rng: SimRng,
    completed: u64,
    completed_by_node: Vec<u64>,
    issued: u64,
    target: Option<u64>,
}

impl ClosedLoopTraffic {
    /// Creates the workload over `nodes` cores, all running `params`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `mshrs == 0`.
    pub fn new(params: WorkloadParams, nodes: usize, seed: u64) -> ClosedLoopTraffic {
        ClosedLoopTraffic::heterogeneous(vec![params; nodes], seed)
    }

    /// Creates a consolidation workload: node `i` runs `params[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty or any entry has zero threads or MSHRs.
    pub fn heterogeneous(params: Vec<WorkloadParams>, seed: u64) -> ClosedLoopTraffic {
        assert!(!params.is_empty(), "need at least one node");
        let mut rng = SimRng::seed_from(seed ^ 0x434C_4F53_4544_4C50); // "CLOSEDLP"
        let cores = params
            .iter()
            .map(|p| {
                assert!(p.threads > 0, "need at least one thread per node");
                assert!(p.mshrs > 0, "need at least one MSHR per node");
                CoreState {
                    // Stagger initial issues so cycle 0 is not a
                    // synchronized burst.
                    ready_at: (0..p.threads)
                        .map(|_| rng.gen_exp(p.think_mean.max(1.0)))
                        .collect(),
                    outstanding: 0,
                }
            })
            .collect();
        let nodes = params.len();
        ClosedLoopTraffic {
            params,
            cores,
            pending_replies: Vec::new(),
            pending_local: Vec::new(),
            rng,
            completed: 0,
            completed_by_node: vec![0; nodes],
            issued: 0,
            target: None,
        }
    }

    /// The workload parameters (first node — all nodes in homogeneous
    /// runs).
    pub fn params(&self) -> &WorkloadParams {
        &self.params[0]
    }

    /// Transactions completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Transactions completed by each node (for consolidation studies).
    pub fn completed_by_node(&self) -> &[u64] {
        &self.completed_by_node
    }

    /// Zeroes the per-node completion counters (end of warmup).
    pub fn reset_completed_by_node(&mut self) {
        self.completed_by_node.iter_mut().for_each(|c| *c = 0);
    }

    /// Transactions issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Sets the completion target for [`TrafficModel::is_finished`]
    /// (measured from zero completed transactions).
    pub fn set_target(&mut self, completed: u64) {
        self.target = Some(completed);
    }

    fn tag_of(node: NodeId, thread: usize) -> u64 {
        ((node.index() as u64) << 16) | thread as u64
    }

    fn untag(tag: u64) -> (usize, usize) {
        ((tag >> 16) as usize, (tag & 0xFFFF) as usize)
    }

    /// Service latency at the bank for a request from `requester` (the
    /// miss rate is a property of the requesting application's access
    /// stream).
    fn bank_latency(&mut self, requester: usize) -> u64 {
        let p = &self.params[requester];
        let miss = self.rng.gen_bool(p.l2_miss_rate);
        p.l2_hit_latency + if miss { p.memory_latency } else { 0 }
    }

    /// A thread's transaction finished: start thinking, maybe write back a
    /// dirty block.
    fn complete(&mut self, node: usize, thread: usize, now: Cycle, net: &mut Network) {
        let core = &mut self.cores[node];
        debug_assert!(core.outstanding > 0, "completion without outstanding txn");
        core.outstanding -= 1;
        let think = self
            .rng
            .gen_exp(self.params[node].think_mean_at(now).max(1.0));
        core.ready_at[thread] = now + think;
        self.completed += 1;
        self.completed_by_node[node] += 1;
        if self.rng.gen_bool(self.params[node].writeback_rate) {
            let nodes = net.mesh().node_count();
            let bank = NodeId::new(self.rng.gen_index(nodes));
            if bank.index() != node {
                net.offer_packet(
                    NodeId::new(node),
                    PacketInput {
                        dest: bank,
                        vnet: vnets::DATA,
                        len: self.params[node].data_len,
                        kind: PacketKind::Writeback,
                        tag: 0,
                    },
                );
            }
        }
    }
}

impl TrafficModel for ClosedLoopTraffic {
    fn pre_cycle(&mut self, now: Cycle, net: &mut Network) {
        // L2 banks emit replies whose service latency has elapsed.
        let mut i = 0;
        while i < self.pending_replies.len() {
            if self.pending_replies[i].ready_at <= now {
                let r = self.pending_replies.swap_remove(i);
                let len = self.params[r.requester.index()].data_len;
                net.offer_packet(
                    r.bank,
                    PacketInput {
                        dest: r.requester,
                        vnet: vnets::DATA,
                        len,
                        kind: PacketKind::Response,
                        tag: r.tag,
                    },
                );
            } else {
                i += 1;
            }
        }
        // Local (same-node bank) accesses complete without the network.
        let mut i = 0;
        while i < self.pending_local.len() {
            if self.pending_local[i].0 <= now {
                let (_, node, tag) = self.pending_local.swap_remove(i);
                let (n, thread) = Self::untag(tag);
                debug_assert_eq!(n, node.index());
                self.complete(node.index(), thread, now, net);
            } else {
                i += 1;
            }
        }
        // Ready threads issue new transactions, bounded by MSHRs.
        let nodes = net.mesh().node_count();
        for node in 0..nodes {
            for thread in 0..self.params[node].threads {
                if self.cores[node].outstanding >= self.params[node].mshrs {
                    break;
                }
                if self.cores[node].ready_at[thread] > now {
                    continue;
                }
                let bank = NodeId::new(self.rng.gen_index(nodes));
                let tag = Self::tag_of(NodeId::new(node), thread);
                self.cores[node].ready_at[thread] = u64::MAX;
                self.cores[node].outstanding += 1;
                self.issued += 1;
                if bank.index() == node {
                    let lat = self.bank_latency(node);
                    self.pending_local.push((now + lat, NodeId::new(node), tag));
                } else {
                    net.offer_packet(
                        NodeId::new(node),
                        PacketInput {
                            dest: bank,
                            vnet: vnets::REQUEST,
                            len: self.params[node].control_len,
                            kind: PacketKind::Request,
                            tag,
                        },
                    );
                }
            }
        }
    }

    fn on_delivered(&mut self, packet: &DeliveredPacket, now: Cycle, net: &mut Network) {
        let d = &packet.descriptor;
        match d.kind {
            PacketKind::Request => {
                // Arrived at the L2 bank: serve after the bank latency.
                let lat = self.bank_latency(d.src.index());
                self.pending_replies.push(PendingReply {
                    ready_at: now + lat,
                    bank: d.dest,
                    requester: d.src,
                    tag: d.tag,
                });
            }
            PacketKind::Response if d.vnet == vnets::DATA => {
                let (node, thread) = Self::untag(d.tag);
                debug_assert_eq!(node, d.dest.index(), "reply must reach the requester");
                self.complete(node, thread, now, net);
            }
            PacketKind::Response => {
                // Writeback acknowledgement: fire-and-forget.
            }
            PacketKind::Writeback => {
                // The bank acknowledges on the second control vnet.
                net.offer_packet(
                    d.dest,
                    PacketInput {
                        dest: d.src,
                        vnet: vnets::ACK,
                        len: self.params[d.src.index()].control_len,
                        kind: PacketKind::Response,
                        tag: 0,
                    },
                );
            }
            PacketKind::Synthetic => {}
        }
    }

    fn is_finished(&self, _now: Cycle) -> bool {
        match self.target {
            Some(t) => self.completed >= t,
            None => false,
        }
    }

    fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        // Workload parameters are construction-time configuration; only the
        // mutable execution state travels.
        self.rng.put(w);
        (self.completed, self.issued, self.target).put(w);
        self.cores.len().put(w);
        for (core, done) in self.cores.iter().zip(&self.completed_by_node) {
            core.outstanding.put(w);
            core.ready_at.put(w);
            done.put(w);
        }
        self.pending_replies.put(w);
        self.pending_local.put(w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rng.load(r)?;
        (self.completed, self.issued, self.target) = Codec::get(r)?;
        if r.get_usize("closed-loop node count")? != self.cores.len() {
            return Err(SnapshotError::Malformed {
                what: "closed-loop node count",
            });
        }
        for (node, core) in self.cores.iter_mut().enumerate() {
            let params = &self.params[node];
            core.outstanding = r.get_index(params.mshrs + 1, "closed-loop outstanding count")?;
            core.ready_at.load(r)?;
            if core.ready_at.len() != params.threads {
                return Err(SnapshotError::Malformed {
                    what: "closed-loop thread count",
                });
            }
            self.completed_by_node[node].load(r)?;
        }
        self.pending_replies.load(r)?;
        self.pending_local.load(r)
    }
}

impl Codec for PendingReply {
    fn put(&self, w: &mut SnapshotWriter) {
        (self.ready_at, self.bank, self.requester, self.tag).put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        (self.ready_at, self.bank, self.requester, self.tag) = Codec::get(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_netsim::config::NetworkConfig;
    use afc_netsim::sim::Simulation;
    use afc_routers::BackpressuredFactory;

    fn tiny_workload() -> WorkloadParams {
        WorkloadParams {
            name: "test",
            threads: 2,
            think_mean: 20.0,
            mshrs: 4,
            l2_hit_latency: 12,
            memory_latency: 250,
            l2_miss_rate: 0.1,
            writeback_rate: 0.2,
            control_len: 1,
            data_len: 16,
            paper_injection_rate: 0.0,
            phase_period: 0,
            phase_fraction: 0.0,
            phase_think_scale: 1.0,
        }
    }

    #[test]
    fn transactions_complete_and_feedback_holds() {
        let net =
            Network::new(NetworkConfig::paper_3x3(), &BackpressuredFactory::new(), 7).unwrap();
        let mut traffic = ClosedLoopTraffic::new(tiny_workload(), 9, 7);
        traffic.set_target(200);
        let mut sim = Simulation::new(net, traffic);
        assert!(
            sim.run_until_finished(200_000),
            "closed loop must complete its transaction budget"
        );
        assert!(sim.traffic.completed() >= 200);
        assert!(sim.traffic.issued() >= sim.traffic.completed());
        // Every request got exactly one reply: no starvation, no duplicates.
        let stats = sim.network.stats();
        assert!(stats.packets_delivered > 0);
    }

    #[test]
    fn mshrs_bound_outstanding_transactions() {
        let params = WorkloadParams {
            threads: 8,
            mshrs: 2,
            think_mean: 1.0,
            ..tiny_workload()
        };
        let net =
            Network::new(NetworkConfig::paper_3x3(), &BackpressuredFactory::new(), 8).unwrap();
        let mut traffic = ClosedLoopTraffic::new(params, 9, 8);
        traffic.set_target(50);
        let mut sim = Simulation::new(net, traffic);
        for _ in 0..2000 {
            sim.step();
            for core in &sim.traffic.cores {
                assert!(core.outstanding <= 2, "MSHR limit violated");
            }
            if sim.traffic.is_finished(0) {
                break;
            }
        }
        assert!(sim.traffic.completed() >= 50);
    }

    #[test]
    fn higher_think_time_lowers_injection_rate() {
        let run = |think: f64| {
            let net =
                Network::new(NetworkConfig::paper_3x3(), &BackpressuredFactory::new(), 9).unwrap();
            let params = WorkloadParams {
                think_mean: think,
                ..tiny_workload()
            };
            let traffic = ClosedLoopTraffic::new(params, 9, 9);
            let mut sim = Simulation::new(net, traffic);
            sim.run(20_000);
            sim.network.stats().injection_rate(9)
        };
        let fast = run(5.0);
        let slow = run(500.0);
        assert!(
            fast > 2.0 * slow,
            "think time must throttle injection (fast {fast}, slow {slow})"
        );
    }

    #[test]
    fn tags_roundtrip() {
        let tag = ClosedLoopTraffic::tag_of(NodeId::new(63), 7);
        assert_eq!(ClosedLoopTraffic::untag(tag), (63, 7));
    }
}
