//! Network interfaces: injection queues and MSHR-style reassembly buffers.
//!
//! Each node has one [`NodeInterface`] sitting between the traffic model and
//! its router. On the send side it holds per-virtual-network packet queues
//! and feeds the router one flit per cycle (the local port has unit
//! bandwidth, like every other port). On the receive side it reassembles
//! flits — which may arrive in arbitrary order and arbitrarily interleaved
//! across packets under flit-by-flit routing — into packets, modeling the
//! MSHR receive-side buffering the paper argues is already present in
//! coherence controllers (Section II).

use crate::config::RetransmitConfig;
use crate::flit::{Cycle, Flit, PacketId};
use crate::geom::NodeId;
use crate::packet::{DeliveredPacket, PacketDescriptor};
use crate::router::Router;
use crate::snapshot::{self, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::NetworkStats;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Structured record of a packet its source NI gave up on: after
/// `max_attempts` retransmissions went unacknowledged the packet is retired
/// with this outcome instead of retrying forever (DESIGN.md §13). The
/// network accumulates these in
/// [`Network::unreachable_packets`](crate::network::Network::unreachable_packets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnreachablePacket {
    /// The retired packet.
    pub id: PacketId,
    /// Source node (where the record was produced).
    pub src: NodeId,
    /// Destination the packet could not reach.
    pub dest: NodeId,
    /// Retransmission attempts spent before giving up.
    pub attempts: u32,
    /// Cycle the source gave up.
    pub gave_up_at: Cycle,
}

/// In-progress injection of one packet on one virtual network.
#[derive(Debug, Clone)]
struct InjectProgress {
    desc: PacketDescriptor,
    next_seq: u16,
    first_injected_at: Cycle,
}

/// Source-side record of a fully injected packet awaiting its end-to-end
/// acknowledgement (recovery mode only).
#[derive(Debug, Clone)]
struct Outstanding {
    desc: PacketDescriptor,
    /// Cycle the packet's first flit entered the network.
    first_injected_at: Cycle,
    /// Retransmit timeouts fired so far for this packet.
    attempts: u32,
    /// Cycle at which the next timeout fires.
    next_deadline: Cycle,
}

/// End-to-end detection + retransmission state, enabled by
/// [`NodeInterface::enable_recovery`].
///
/// Ordered maps keep timeout scans deterministic regardless of hash state.
#[derive(Debug, Default)]
struct Recovery {
    cfg: RetransmitConfig,
    /// Fully injected, not yet acknowledged packets sourced at this node.
    outstanding: BTreeMap<PacketId, Outstanding>,
    /// Packets fully reassembled at this node (dedup filter for late
    /// retransmitted copies).
    completed: BTreeSet<PacketId>,
    /// No outstanding deadline and no reassembly expiry falls before this
    /// cycle, so [`NodeInterface::check_timeouts`] is a no-op until then.
    /// A lower bound, only ever lowered outside the scan that recomputes
    /// it; derived state (0 after a restore: the first scan settles it).
    wake_at: Cycle,
}

/// Reassembly state for one partially received packet.
#[derive(Debug, Clone)]
struct Reassembly {
    desc: PacketDescriptor,
    received: Vec<bool>,
    received_count: u16,
    min_injected_at: Cycle,
    total_hops: u32,
    total_deflections: u32,
    /// Cycle of the most recent arrival; entries quiet past the recovery
    /// TTL are discarded by [`NodeInterface::check_timeouts`].
    last_arrival: Cycle,
}

/// The descriptor of the packet `flit` belongs to (every flit carries its
/// packet's full identity).
fn descriptor_of(flit: &Flit) -> PacketDescriptor {
    PacketDescriptor {
        id: flit.packet,
        src: flit.src,
        dest: flit.dest,
        vnet: flit.vnet,
        len: flit.len,
        created_at: flit.created_at,
        kind: flit.kind,
        tag: flit.tag,
    }
}

/// An empty arrival bitmap: a recycled one if any is spare.
fn spare_bitmap(spares: &mut Vec<Vec<bool>>) -> Vec<bool> {
    let mut bitmap = spares.pop().unwrap_or_default();
    bitmap.clear();
    bitmap
}

/// The per-node injection/ejection endpoint.
#[derive(Debug)]
pub struct NodeInterface {
    node: NodeId,
    /// Per-vnet queues of packets waiting to start injection.
    queues: Vec<VecDeque<PacketDescriptor>>,
    /// Per-vnet packet currently being injected flit-by-flit.
    in_progress: Vec<Option<InjectProgress>>,
    /// Round-robin pointer over vnets for injection fairness.
    rr_next: usize,
    /// Dropped flits awaiting retransmission (drop-based routers only);
    /// served ahead of fresh packets.
    retransmit: VecDeque<Flit>,
    /// Open reassembly buffers.
    reassembly: HashMap<PacketId, Reassembly>,
    /// Arrival bitmaps of closed buffers, reused by the next buffer to open
    /// so steady-state reassembly does not allocate. A bitmap is only ever
    /// allocated when this list is empty, so open + spare never exceeds the
    /// high-water mark of open buffers. Not simulation state.
    spare_bitmaps: Vec<Vec<bool>>,
    /// Fully reassembled packets awaiting pickup by the traffic model.
    delivered: Vec<DeliveredPacket>,
    /// High-water mark of simultaneously open reassembly buffers.
    reassembly_high_water: usize,
    /// End-to-end retransmission state, if enabled.
    recovery: Option<Recovery>,
    /// Corrupt arrivals awaiting pickup by the network's NACK circuit.
    corrupt_outbox: Vec<Flit>,
    /// End-to-end acknowledgements `(source node, packet)` awaiting routing
    /// back to the packet's source NI.
    acks_outbox: Vec<(NodeId, PacketId)>,
    /// Packets given up on (bounded retransmit exhausted) awaiting pickup
    /// by the network's structured-outcome log.
    unreachable_outbox: Vec<UnreachablePacket>,
}

impl NodeInterface {
    /// Creates the interface for `node` with `vnet_count` virtual networks.
    pub fn new(node: NodeId, vnet_count: usize) -> NodeInterface {
        NodeInterface {
            node,
            queues: (0..vnet_count).map(|_| VecDeque::new()).collect(),
            in_progress: (0..vnet_count).map(|_| None).collect(),
            rr_next: 0,
            retransmit: VecDeque::new(),
            reassembly: HashMap::new(),
            spare_bitmaps: Vec::new(),
            delivered: Vec::new(),
            reassembly_high_water: 0,
            recovery: None,
            corrupt_outbox: Vec::new(),
            acks_outbox: Vec::new(),
            unreachable_outbox: Vec::new(),
        }
    }

    /// Returns the interface to its freshly constructed state in place:
    /// queues, in-flight injections, reassembly buffers, outboxes, and the
    /// recovery block are all emptied without freeing backing storage
    /// (clearing a `Vec`/`VecDeque`/`HashMap` keeps its allocation;
    /// dropping the empty `BTreeMap`/`BTreeSet` inside `Recovery` frees
    /// nothing). The network re-enables recovery after a reset exactly as
    /// it does after construction.
    pub fn reset(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        for slot in &mut self.in_progress {
            *slot = None;
        }
        self.rr_next = 0;
        self.retransmit.clear();
        self.close_reassemblies();
        self.delivered.clear();
        self.reassembly_high_water = 0;
        self.recovery = None;
        self.corrupt_outbox.clear();
        self.acks_outbox.clear();
        self.unreachable_outbox.clear();
    }

    /// Discards every open reassembly buffer, keeping the bitmaps for reuse
    /// (a restore or arena reset must not feed fresh bitmaps into
    /// circulation each time it runs).
    fn close_reassemblies(&mut self) {
        let open = self.reassembly.drain().map(|(_, e)| e.received);
        self.spare_bitmaps.extend(open);
    }

    /// Switches on end-to-end recovery: outstanding-packet tracking, timeout
    /// retransmission, and duplicate-tolerant reassembly.
    pub fn enable_recovery(&mut self, cfg: RetransmitConfig) {
        self.recovery = Some(Recovery {
            cfg,
            ..Recovery::default()
        });
    }

    /// Node this interface belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Enqueues a packet for injection.
    ///
    /// # Panics
    ///
    /// Panics if the descriptor's vnet index is out of range, its source is
    /// not this node, or its length is zero.
    pub fn enqueue(&mut self, desc: PacketDescriptor, stats: &mut NetworkStats) {
        assert_eq!(desc.src, self.node, "packet source must match NI node");
        assert!(desc.len >= 1, "packets must have at least one flit");
        let q = self
            .queues
            .get_mut(desc.vnet.index())
            .unwrap_or_else(|| panic!("vnet {} out of range", desc.vnet));
        q.push_back(desc);
        stats.packets_offered += 1;
    }

    /// Packets queued or mid-injection on the send side.
    pub fn pending_packets(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum::<usize>()
            + self.in_progress.iter().flatten().count()
    }

    /// Flits still owed to the network by queued/in-progress packets.
    pub fn pending_flits(&self) -> usize {
        let queued: usize = self
            .queues
            .iter()
            .flat_map(|q| q.iter())
            .map(|d| d.len as usize)
            .sum();
        let in_flight: usize = self
            .in_progress
            .iter()
            .flatten()
            .map(|p| (p.desc.len - p.next_seq) as usize)
            .sum();
        queued + in_flight
    }

    /// Queues a previously dropped flit for retransmission. Retransmissions
    /// take priority over fresh packets and preserve the flit's original
    /// injection timestamp so latency statistics include the drop penalty.
    ///
    /// # Panics
    ///
    /// Panics if the flit's source is not this node.
    pub fn enqueue_retransmit(&mut self, mut flit: Flit) {
        assert_eq!(flit.src, self.node, "retransmit must return to the source");
        // A retransmitting source sends fresh data: a copy NACKed for
        // corruption goes back out with a pristine checksum.
        flit.repair();
        self.retransmit.push_back(flit);
    }

    /// Flits waiting for retransmission.
    pub fn pending_retransmits(&self) -> usize {
        self.retransmit.len()
    }

    /// Attempts to inject one flit into `router` this cycle, round-robin
    /// across virtual networks. Retransmissions go first.
    pub fn try_inject(&mut self, router: &mut dyn Router, now: Cycle, stats: &mut NetworkStats) {
        if let Some(&flit) = self.retransmit.front() {
            // A retransmitted flit must not cut into a fresh packet's open
            // wormhole on the same vnet: VC routers route body flits by
            // their head's path, so interleaving would misroute them. Let
            // the fresh wormhole finish first (the fall-through below).
            let wormhole_open = self.in_progress[flit.vnet.index()]
                .as_ref()
                .is_some_and(|p| p.next_seq > 0);
            if !wormhole_open {
                if router.injection_ready(&flit, now) {
                    router.inject(flit, now);
                    self.retransmit.pop_front();
                    stats.flits_retransmitted += 1;
                }
                // The local port carries at most one flit per cycle.
                return;
            }
        }
        let vnets = self.queues.len();
        for offset in 0..vnets {
            let v = (self.rr_next + offset) % vnets;
            // Promote the next queued packet if this vnet is idle.
            if self.in_progress[v].is_none() {
                if let Some(desc) = self.queues[v].pop_front() {
                    self.in_progress[v] = Some(InjectProgress {
                        desc,
                        next_seq: 0,
                        first_injected_at: 0,
                    });
                }
            }
            let Some(progress) = self.in_progress[v].as_mut() else {
                continue;
            };
            let flit = progress.desc.flit(progress.next_seq, now);
            if !router.injection_ready(&flit, now) {
                continue;
            }
            if progress.next_seq == 0 {
                progress.first_injected_at = now;
                stats.packets_injected += 1;
            }
            router.inject(flit, now);
            stats.flits_injected += 1;
            progress.next_seq += 1;
            if progress.next_seq == progress.desc.len {
                let done = self.in_progress[v].take().expect("progress just borrowed");
                if let Some(rec) = &mut self.recovery {
                    let next_deadline = now + rec.cfg.timeout;
                    rec.wake_at = rec.wake_at.min(next_deadline);
                    rec.outstanding.insert(
                        done.desc.id,
                        Outstanding {
                            desc: done.desc,
                            first_injected_at: done.first_injected_at,
                            attempts: 0,
                            next_deadline,
                        },
                    );
                }
            }
            // One flit per cycle through the local port; resume fairness
            // from the next vnet.
            self.rr_next = (v + 1) % vnets;
            return;
        }
    }

    /// Receives ejected flits from the router, reassembling packets.
    ///
    /// A flit whose checksum no longer matches (corrupted by a link fault)
    /// is never counted as delivered: it lands in the corrupt outbox, from
    /// which the network NACKs it back to its source for retransmission —
    /// the drop router's NACK circuit generalized to every mechanism.
    ///
    /// With recovery enabled, redundant copies (a retransmission racing an
    /// original) are silently discarded and counted; without it a duplicate
    /// still indicates a router bug and panics.
    ///
    /// # Panics
    ///
    /// Panics on flits not addressed to this node, or on duplicate flits
    /// when recovery is disabled.
    pub fn receive_flits(
        &mut self,
        flits: impl IntoIterator<Item = Flit>,
        now: Cycle,
        stats: &mut NetworkStats,
    ) {
        for flit in flits {
            assert_eq!(
                flit.dest, self.node,
                "flit {flit} ejected at wrong node {}",
                self.node
            );
            if flit.is_corrupt() {
                stats.flits_corrupted += 1;
                self.corrupt_outbox.push(flit);
                continue;
            }
            if let Some(rec) = &self.recovery {
                let duplicate = rec.completed.contains(&flit.packet)
                    || self
                        .reassembly
                        .get(&flit.packet)
                        .is_some_and(|e| e.received[flit.seq as usize]);
                if duplicate {
                    stats.duplicate_flits_discarded += 1;
                    continue;
                }
            }
            stats.flits_delivered += 1;
            stats.flit_hops.record(flit.hops as u64);
            stats.flit_deflections.record(flit.deflections as u64);
            if flit.len == 1 {
                // Complete on arrival: nothing to reassemble, so no buffer
                // is opened (the high-water mark is sampled after the loop
                // and never saw one-flit buffers anyway).
                let delivered = DeliveredPacket {
                    descriptor: descriptor_of(&flit),
                    injected_at: flit.injected_at,
                    delivered_at: now,
                    total_hops: flit.hops as u32,
                    total_deflections: flit.deflections as u32,
                };
                self.deliver(delivered, stats);
                continue;
            }
            let spares = &mut self.spare_bitmaps;
            let recovery = &mut self.recovery;
            let entry = self.reassembly.entry(flit.packet).or_insert_with(|| {
                if let Some(rec) = recovery {
                    rec.wake_at = rec
                        .wake_at
                        .min(now.saturating_add(rec.cfg.reassembly_ttl()));
                }
                let mut received = spare_bitmap(spares);
                received.resize(flit.len as usize, false);
                Reassembly {
                    desc: descriptor_of(&flit),
                    received,
                    received_count: 0,
                    min_injected_at: flit.injected_at,
                    total_hops: 0,
                    total_deflections: 0,
                    last_arrival: now,
                }
            });
            assert!(
                !entry.received[flit.seq as usize],
                "duplicate flit {flit} delivered"
            );
            entry.received[flit.seq as usize] = true;
            entry.received_count += 1;
            entry.last_arrival = now;
            entry.min_injected_at = entry.min_injected_at.min(flit.injected_at);
            entry.total_hops += flit.hops as u32;
            entry.total_deflections += flit.deflections as u32;

            if entry.received_count == entry.desc.len {
                let entry = self.reassembly.remove(&flit.packet).expect("just inserted");
                self.spare_bitmaps.push(entry.received);
                let delivered = DeliveredPacket {
                    descriptor: entry.desc,
                    injected_at: entry.min_injected_at,
                    delivered_at: now,
                    total_hops: entry.total_hops,
                    total_deflections: entry.total_deflections,
                };
                self.deliver(delivered, stats);
            }
        }
        self.reassembly_high_water = self.reassembly_high_water.max(self.reassembly.len());
    }

    /// Hands a fully received packet to the traffic model's pickup list,
    /// records its latencies and (under recovery) acknowledges it.
    fn deliver(&mut self, delivered: DeliveredPacket, stats: &mut NetworkStats) {
        stats.packets_delivered += 1;
        stats.network_latency.record(delivered.network_latency());
        stats
            .network_latency_hist
            .record(delivered.network_latency());
        stats.total_latency.record(delivered.total_latency());
        self.delivered.push(delivered);
        if let Some(rec) = &mut self.recovery {
            let PacketDescriptor { id, src, .. } = delivered.descriptor;
            rec.completed.insert(id);
            self.acks_outbox.push((src, id));
        }
    }

    /// Fires end-to-end retransmit timeouts (recovery mode only): every
    /// fully injected, unacknowledged packet whose deadline has passed is
    /// re-materialized into the retransmit queue with its original
    /// injection timestamp, and its next deadline backs off exponentially
    /// (capped).
    ///
    /// A packet with copies still waiting in the retransmit queue is
    /// neither re-fired nor given up — the previous attempt has not yet
    /// left the NI, so it must reach the wire (where a revived route may
    /// yet deliver it) before it can count against the attempt budget.
    ///
    /// With `max_attempts > 0`, a packet whose deadline passes after that
    /// many retransmissions have fully left the NI is *given up*: removed
    /// from the outstanding table, and a structured [`UnreachablePacket`]
    /// record emitted instead of another retry — the clean termination for
    /// destinations a permanent link kill made unreachable.
    pub fn check_timeouts(&mut self, now: Cycle, stats: &mut NetworkStats) {
        let Some(rec) = &mut self.recovery else {
            return;
        };
        if now < rec.wake_at {
            return;
        }
        let mut wake_at = Cycle::MAX;
        let mut gave_up: Vec<PacketId> = Vec::new();
        for (id, out) in rec.outstanding.iter_mut() {
            if out.next_deadline > now {
                wake_at = wake_at.min(out.next_deadline);
                continue;
            }
            if self.retransmit.iter().any(|f| f.packet == *id) {
                // The previous attempt's copies have not even left the NI
                // (e.g. the network wedged and then healed): give them
                // their shot before the give-up check below — checking
                // attempts first would charge the packet for an attempt
                // that never reached the wire and retire it one retry
                // early.
                wake_at = now;
                continue;
            }
            if rec.cfg.max_attempts > 0 && out.attempts >= rec.cfg.max_attempts {
                gave_up.push(*id);
                continue;
            }
            out.attempts += 1;
            stats.retransmit_timeouts += 1;
            stats.flits_retransmit_copies += out.desc.len as u64;
            for seq in 0..out.desc.len {
                self.retransmit
                    .push_back(out.desc.flit(seq, out.first_injected_at));
            }
            let backoff = out.attempts.min(rec.cfg.backoff_cap);
            out.next_deadline = now + (rec.cfg.timeout << backoff);
            wake_at = wake_at.min(out.next_deadline);
        }
        for id in gave_up {
            let out = rec.outstanding.remove(&id).expect("collected above");
            let before = self.retransmit.len();
            self.retransmit.retain(|f| f.packet != id);
            stats.flits_abandoned += (before - self.retransmit.len()) as u64;
            stats.packets_unreachable += 1;
            self.unreachable_outbox.push(UnreachablePacket {
                id,
                src: out.desc.src,
                dest: out.desc.dest,
                attempts: out.attempts,
                gave_up_at: now,
            });
        }

        // Destination-side cleanup: a partial reassembly whose flit stream
        // has gone quiet for the recovery TTL will never complete on its
        // own — its source either gave up (bounded retransmit) or a
        // permanent fault keeps eating the missing flits. Discard it so
        // the NI can go idle; a still-retrying source rebuilds the entry
        // from scratch on its next full copy (late duplicates of the
        // purged flits are fresh arrivals to an empty entry, not
        // conservation leaks — every copy still retires exactly once).
        let ttl = rec.cfg.reassembly_ttl();
        let before = self.reassembly.len();
        self.reassembly.retain(|_, e| {
            let keep = now.saturating_sub(e.last_arrival) < ttl;
            if keep {
                wake_at = wake_at.min(e.last_arrival.saturating_add(ttl));
            }
            keep
        });
        stats.reassemblies_expired += (before - self.reassembly.len()) as u64;
        rec.wake_at = wake_at;
    }

    /// Handles a NACK that has travelled back to this source.
    ///
    /// With recovery enabled the NACK becomes a *fast retransmit*: the
    /// whole packet's timeout is pulled forward to `now`, so the next
    /// [`check_timeouts`](Self::check_timeouts) resends every flit in
    /// order — VC routers need the full wormhole replayed head-first, not
    /// the lone NACKed flit spliced mid-stream. Without recovery (the drop
    /// router's native NACK circuit on bufferless routers, where flits
    /// route independently) the flit is requeued directly, preserving the
    /// original per-flit semantics.
    pub fn nack(&mut self, flit: Flit, now: Cycle, stats: &mut NetworkStats) {
        assert_eq!(flit.src, self.node, "NACK must return to the source");
        if let Some(rec) = &mut self.recovery {
            if let Some(out) = rec.outstanding.get_mut(&flit.packet) {
                out.next_deadline = out.next_deadline.min(now);
                rec.wake_at = rec.wake_at.min(now);
            }
            // The NACKed copy itself is retired here (its data comes back
            // as fresh retransmit copies); if the packet is no longer
            // outstanding this was a stale NACK racing a delivered
            // retransmission. Either way the flit leaves the system.
            stats.nacks_absorbed += 1;
            return;
        }
        self.enqueue_retransmit(flit);
    }

    /// Delivers an end-to-end acknowledgement for a packet sourced here
    /// (recovery mode only). A packet that needed at least one timeout
    /// retransmission counts as recovered.
    pub fn acknowledge(&mut self, id: PacketId, stats: &mut NetworkStats) {
        let Some(rec) = &mut self.recovery else {
            return;
        };
        if let Some(out) = rec.outstanding.remove(&id) {
            if out.attempts > 0 {
                stats.recovered_packets += 1;
            }
        }
    }

    /// Packets injected here and still awaiting acknowledgement.
    pub fn outstanding_packets(&self) -> usize {
        self.recovery
            .as_ref()
            .map_or(0, |rec| rec.outstanding.len())
    }

    /// True when a sideband outbox (corrupt arrivals, acks, given-up
    /// records) holds anything for the network to collect.
    pub(crate) fn has_sideband(&self) -> bool {
        !(self.corrupt_outbox.is_empty()
            && self.acks_outbox.is_empty()
            && self.unreachable_outbox.is_empty())
    }

    /// Takes the corrupt arrivals collected since the last call (the
    /// network routes them onto the NACK circuit).
    pub fn take_corrupt(&mut self) -> Vec<Flit> {
        std::mem::take(&mut self.corrupt_outbox)
    }

    /// Takes the pending end-to-end acknowledgements `(source, packet)`.
    pub fn take_acks(&mut self) -> Vec<(NodeId, PacketId)> {
        std::mem::take(&mut self.acks_outbox)
    }

    /// Appends the given-up-packet records produced since the last drain to
    /// `out` (the network accumulates them into its run-wide log).
    pub fn drain_unreachable_into(&mut self, out: &mut Vec<UnreachablePacket>) {
        out.append(&mut self.unreachable_outbox);
    }

    /// Takes the packets completed since the last call.
    pub fn take_delivered(&mut self) -> Vec<DeliveredPacket> {
        std::mem::take(&mut self.delivered)
    }

    /// True when completed packets are waiting to be taken.
    pub fn has_delivered(&self) -> bool {
        !self.delivered.is_empty()
    }

    /// Appends the packets completed since the last drain to `out`,
    /// retaining both buffers' capacities (the allocation-free form of
    /// [`NodeInterface::take_delivered`]).
    pub fn drain_delivered_into(&mut self, out: &mut Vec<DeliveredPacket>) {
        out.append(&mut self.delivered);
    }

    /// Open (incomplete) reassembly buffers right now.
    pub fn open_reassemblies(&self) -> usize {
        self.reassembly.len()
    }

    /// High-water mark of simultaneously open reassembly buffers.
    pub fn reassembly_high_water(&self) -> usize {
        self.reassembly_high_water
    }

    /// Approximate heap bytes owned by this interface. Every term scales
    /// with *traffic through this node* (queued packets, open reassembly
    /// buffers, outstanding retransmits), never with mesh size, which is
    /// what keeps 128×128 meshes affordable.
    pub fn heap_bytes(&self) -> usize {
        let queues: usize = self
            .queues
            .iter()
            .map(|q| q.capacity() * std::mem::size_of::<PacketDescriptor>())
            .sum();
        let reassembly: usize = self.reassembly.capacity()
            * (std::mem::size_of::<PacketId>() + std::mem::size_of::<Reassembly>())
            + self
                .reassembly
                .values()
                .map(|r| r.received.capacity())
                .sum::<usize>()
            + self.spare_bitmaps.capacity() * std::mem::size_of::<Vec<bool>>()
            + self.spare_bitmaps.iter().map(Vec::capacity).sum::<usize>();
        let recovery = self.recovery.as_ref().map_or(0, |r| {
            r.outstanding.len()
                * (std::mem::size_of::<PacketId>() + std::mem::size_of::<Outstanding>())
                + r.completed.len() * std::mem::size_of::<PacketId>()
        });
        queues
            + self.in_progress.capacity() * std::mem::size_of::<Option<InjectProgress>>()
            + self.retransmit.capacity() * std::mem::size_of::<Flit>()
            + reassembly
            + self.delivered.capacity() * std::mem::size_of::<DeliveredPacket>()
            + recovery
            + self.corrupt_outbox.capacity() * std::mem::size_of::<Flit>()
            + self.acks_outbox.capacity() * std::mem::size_of::<(NodeId, PacketId)>()
            + self.unreachable_outbox.capacity() * std::mem::size_of::<UnreachablePacket>()
    }

    /// Serializes all mutable interface state for a snapshot.
    ///
    /// The reassembly map is written in sorted packet-id order so the byte
    /// stream is independent of hash-map iteration order.
    pub fn save(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.queues.len());
        for q in &self.queues {
            w.put_usize(q.len());
            for d in q {
                snapshot::write_descriptor(w, d);
            }
        }
        for p in &self.in_progress {
            match p {
                Some(p) => {
                    w.put_bool(true);
                    snapshot::write_descriptor(w, &p.desc);
                    w.put_u16(p.next_seq);
                    w.put_u64(p.first_injected_at);
                }
                None => w.put_bool(false),
            }
        }
        w.put_usize(self.rr_next);
        w.put_usize(self.retransmit.len());
        for f in &self.retransmit {
            snapshot::write_flit(w, f);
        }
        let mut ids: Vec<PacketId> = self.reassembly.keys().copied().collect();
        ids.sort_unstable();
        w.put_usize(ids.len());
        for id in ids {
            let e = &self.reassembly[&id];
            snapshot::write_descriptor(w, &e.desc);
            for got in &e.received {
                w.put_bool(*got);
            }
            w.put_u64(e.min_injected_at);
            w.put_u32(e.total_hops);
            w.put_u32(e.total_deflections);
            w.put_u64(e.last_arrival);
        }
        w.put_usize(self.delivered.len());
        for d in &self.delivered {
            snapshot::write_delivered(w, d);
        }
        w.put_usize(self.reassembly_high_water);
        match &self.recovery {
            Some(rec) => {
                w.put_bool(true);
                w.put_u64(rec.cfg.timeout);
                w.put_u32(rec.cfg.backoff_cap);
                w.put_u32(rec.cfg.max_attempts);
                w.put_usize(rec.outstanding.len());
                for (id, out) in &rec.outstanding {
                    w.put_u64(id.0);
                    snapshot::write_descriptor(w, &out.desc);
                    w.put_u64(out.first_injected_at);
                    w.put_u32(out.attempts);
                    w.put_u64(out.next_deadline);
                }
                w.put_usize(rec.completed.len());
                for id in &rec.completed {
                    w.put_u64(id.0);
                }
            }
            None => w.put_bool(false),
        }
        w.put_usize(self.corrupt_outbox.len());
        for f in &self.corrupt_outbox {
            snapshot::write_flit(w, f);
        }
        w.put_usize(self.acks_outbox.len());
        for (node, id) in &self.acks_outbox {
            w.put_usize(node.index());
            w.put_u64(id.0);
        }
        w.put_usize(self.unreachable_outbox.len());
        for u in &self.unreachable_outbox {
            w.put_u64(u.id.0);
            w.put_usize(u.src.index());
            w.put_usize(u.dest.index());
            w.put_u32(u.attempts);
            w.put_u64(u.gave_up_at);
        }
    }

    /// Restores state written by [`NodeInterface::save`] into this
    /// interface (which must have been constructed with the same vnet
    /// count, as it is when the network is rebuilt from the same config).
    pub fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let vnets = r.get_usize("ni vnet count")?;
        if vnets != self.queues.len() {
            return Err(SnapshotError::ContextMismatch {
                what: "ni vnet count",
                snapshot: vnets.to_string(),
                current: self.queues.len().to_string(),
            });
        }
        for q in &mut self.queues {
            q.clear();
            let n = r.get_usize("ni queue length")?;
            for _ in 0..n {
                q.push_back(snapshot::read_descriptor(r)?);
            }
        }
        for p in &mut self.in_progress {
            *p = if r.get_bool("ni in-progress presence")? {
                let desc = snapshot::read_descriptor(r)?;
                let next_seq = r.get_u16("ni in-progress seq")?;
                let first_injected_at = r.get_u64("ni in-progress injected_at")?;
                if next_seq > desc.len {
                    return Err(SnapshotError::Malformed {
                        what: "ni in-progress seq",
                    });
                }
                Some(InjectProgress {
                    desc,
                    next_seq,
                    first_injected_at,
                })
            } else {
                None
            };
        }
        self.rr_next = r.get_usize("ni round-robin cursor")?;
        if self.rr_next >= vnets {
            return Err(SnapshotError::Malformed {
                what: "ni round-robin cursor",
            });
        }
        self.retransmit.clear();
        for _ in 0..r.get_usize("ni retransmit length")? {
            self.retransmit.push_back(snapshot::read_flit(r)?);
        }
        self.close_reassemblies();
        for _ in 0..r.get_usize("ni reassembly count")? {
            let desc = snapshot::read_descriptor(r)?;
            let mut received = spare_bitmap(&mut self.spare_bitmaps);
            let mut received_count = 0u16;
            for _ in 0..desc.len {
                let got = r.get_bool("ni reassembly bitmap")?;
                received_count += got as u16;
                received.push(got);
            }
            let entry = Reassembly {
                desc,
                received,
                received_count,
                min_injected_at: r.get_u64("ni reassembly injected_at")?,
                total_hops: r.get_u32("ni reassembly hops")?,
                total_deflections: r.get_u32("ni reassembly deflections")?,
                last_arrival: r.get_u64("ni reassembly last arrival")?,
            };
            if self.reassembly.insert(desc.id, entry).is_some() {
                return Err(SnapshotError::Malformed {
                    what: "ni duplicate reassembly id",
                });
            }
        }
        self.delivered.clear();
        for _ in 0..r.get_usize("ni delivered count")? {
            self.delivered.push(snapshot::read_delivered(r)?);
        }
        self.reassembly_high_water = r.get_usize("ni reassembly high water")?;
        self.recovery = if r.get_bool("ni recovery presence")? {
            let cfg = RetransmitConfig {
                timeout: r.get_u64("ni recovery timeout")?,
                backoff_cap: r.get_u32("ni recovery backoff cap")?,
                max_attempts: r.get_u32("ni recovery max attempts")?,
            };
            let mut outstanding = BTreeMap::new();
            for _ in 0..r.get_usize("ni outstanding count")? {
                let id = PacketId(r.get_u64("ni outstanding id")?);
                let out = Outstanding {
                    desc: snapshot::read_descriptor(r)?,
                    first_injected_at: r.get_u64("ni outstanding injected_at")?,
                    attempts: r.get_u32("ni outstanding attempts")?,
                    next_deadline: r.get_u64("ni outstanding deadline")?,
                };
                outstanding.insert(id, out);
            }
            let mut completed = BTreeSet::new();
            for _ in 0..r.get_usize("ni completed count")? {
                completed.insert(PacketId(r.get_u64("ni completed id")?));
            }
            Some(Recovery {
                cfg,
                outstanding,
                completed,
                wake_at: 0,
            })
        } else {
            None
        };
        self.corrupt_outbox.clear();
        for _ in 0..r.get_usize("ni corrupt outbox length")? {
            self.corrupt_outbox.push(snapshot::read_flit(r)?);
        }
        self.acks_outbox.clear();
        for _ in 0..r.get_usize("ni ack outbox length")? {
            let node = NodeId::new(r.get_usize("ni ack node")?);
            let id = PacketId(r.get_u64("ni ack packet")?);
            self.acks_outbox.push((node, id));
        }
        self.unreachable_outbox.clear();
        for _ in 0..r.get_usize("ni unreachable outbox length")? {
            self.unreachable_outbox.push(UnreachablePacket {
                id: PacketId(r.get_u64("ni unreachable packet")?),
                src: NodeId::new(r.get_usize("ni unreachable src")?),
                dest: NodeId::new(r.get_usize("ni unreachable dest")?),
                attempts: r.get_u32("ni unreachable attempts")?,
                gave_up_at: r.get_u64("ni unreachable cycle")?,
            });
        }
        Ok(())
    }

    /// True when the send side is fully drained and no packet is partially
    /// reassembled or undelivered.
    pub fn is_idle(&self) -> bool {
        self.pending_packets() == 0
            && self.retransmit.is_empty()
            && self.reassembly.is_empty()
            && self.delivered.is_empty()
            && self.corrupt_outbox.is_empty()
            && self.acks_outbox.is_empty()
            && self.unreachable_outbox.is_empty()
            && self.outstanding_packets() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ControlSignal, Credit};
    use crate::counters::ActivityCounters;
    use crate::flit::{PacketKind, VirtualNetwork};
    use crate::geom::PortId;
    use crate::rng::SimRng;
    use crate::router::{RouterMode, RouterOutputs};

    /// A router stub that accepts everything and remembers injections.
    #[derive(Default)]
    struct SinkRouter {
        injected: Vec<Flit>,
        accept: bool,
        counters: ActivityCounters,
    }

    impl Router for SinkRouter {
        fn receive_flit(&mut self, _input: PortId, _flit: Flit, _now: Cycle) {}
        fn receive_credit(&mut self, _output: PortId, _credit: Credit, _now: Cycle) {}
        fn receive_control(&mut self, _output: PortId, _signal: ControlSignal, _now: Cycle) {}
        fn injection_ready(&self, _flit: &Flit, _now: Cycle) -> bool {
            self.accept
        }
        fn inject(&mut self, flit: Flit, _now: Cycle) {
            self.injected.push(flit);
        }
        fn step(&mut self, _now: Cycle, _rng: &mut SimRng, _out: &mut RouterOutputs) {}
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
            0
        }
    }

    fn desc(id: u64, src: usize, dest: usize, vnet: u8, len: u16) -> PacketDescriptor {
        PacketDescriptor {
            id: PacketId(id),
            src: NodeId::new(src),
            dest: NodeId::new(dest),
            vnet: VirtualNetwork(vnet),
            len,
            created_at: 0,
            kind: PacketKind::Synthetic,
            tag: 0,
        }
    }

    #[test]
    fn injects_one_flit_per_cycle_in_order() {
        let mut ni = NodeInterface::new(NodeId::new(0), 3);
        let mut stats = NetworkStats::new();
        let mut router = SinkRouter {
            accept: true,
            ..SinkRouter::default()
        };
        ni.enqueue(desc(1, 0, 5, 0, 3), &mut stats);
        assert_eq!(ni.pending_flits(), 3);
        for now in 0..3 {
            ni.try_inject(&mut router, now, &mut stats);
        }
        assert_eq!(router.injected.len(), 3);
        assert_eq!(
            router.injected.iter().map(|f| f.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(stats.packets_injected, 1);
        assert_eq!(stats.flits_injected, 3);
        assert!(ni.is_idle());
    }

    #[test]
    fn round_robins_across_vnets() {
        let mut ni = NodeInterface::new(NodeId::new(0), 2);
        let mut stats = NetworkStats::new();
        let mut router = SinkRouter {
            accept: true,
            ..SinkRouter::default()
        };
        ni.enqueue(desc(1, 0, 5, 0, 2), &mut stats);
        ni.enqueue(desc(2, 0, 5, 1, 2), &mut stats);
        for now in 0..4 {
            ni.try_inject(&mut router, now, &mut stats);
        }
        let vnets: Vec<u8> = router.injected.iter().map(|f| f.vnet.0).collect();
        assert_eq!(vnets, vec![0, 1, 0, 1]);
    }

    #[test]
    fn refusal_stalls_injection() {
        let mut ni = NodeInterface::new(NodeId::new(0), 1);
        let mut stats = NetworkStats::new();
        let mut router = SinkRouter::default(); // accept = false
        ni.enqueue(desc(1, 0, 5, 0, 1), &mut stats);
        ni.try_inject(&mut router, 0, &mut stats);
        assert!(router.injected.is_empty());
        assert_eq!(ni.pending_flits(), 1);
        router.accept = true;
        ni.try_inject(&mut router, 1, &mut stats);
        assert_eq!(router.injected.len(), 1);
    }

    #[test]
    fn reassembles_out_of_order_flits() {
        let mut ni = NodeInterface::new(NodeId::new(5), 1);
        let mut stats = NetworkStats::new();
        let d = desc(9, 0, 5, 0, 3);
        let mut f0 = d.flit(0, 10);
        let mut f1 = d.flit(1, 11);
        let f2 = d.flit(2, 12);
        f0.hops = 2;
        f1.deflections = 1;
        ni.receive_flits([f2, f0], 20, &mut stats);
        assert_eq!(ni.open_reassemblies(), 1);
        assert!(ni.take_delivered().is_empty());
        ni.receive_flits([f1], 25, &mut stats);
        let delivered = ni.take_delivered();
        assert_eq!(delivered.len(), 1);
        let p = delivered[0];
        assert_eq!(p.descriptor.id, PacketId(9));
        assert_eq!(p.injected_at, 10);
        assert_eq!(p.delivered_at, 25);
        assert_eq!(p.total_hops, 2);
        assert_eq!(p.total_deflections, 1);
        assert_eq!(stats.packets_delivered, 1);
        assert_eq!(stats.flits_delivered, 3);
        assert!(ni.is_idle());
    }

    #[test]
    #[should_panic(expected = "duplicate flit")]
    fn duplicate_flit_detected() {
        let mut ni = NodeInterface::new(NodeId::new(5), 1);
        let mut stats = NetworkStats::new();
        let d = desc(9, 0, 5, 0, 2);
        let f = d.flit(0, 0);
        ni.receive_flits([f, f], 1, &mut stats);
    }

    #[test]
    #[should_panic(expected = "wrong node")]
    fn misdelivered_flit_detected() {
        let mut ni = NodeInterface::new(NodeId::new(4), 1);
        let mut stats = NetworkStats::new();
        let d = desc(9, 0, 5, 0, 1);
        ni.receive_flits([d.flit(0, 0)], 1, &mut stats);
    }

    #[test]
    fn retransmissions_preempt_fresh_packets() {
        let mut ni = NodeInterface::new(NodeId::new(0), 1);
        let mut stats = NetworkStats::new();
        let mut router = SinkRouter {
            accept: true,
            ..SinkRouter::default()
        };
        ni.enqueue(desc(1, 0, 5, 0, 1), &mut stats);
        let dropped = desc(9, 0, 7, 0, 1).flit(0, 3);
        ni.enqueue_retransmit(dropped);
        assert_eq!(ni.pending_retransmits(), 1);
        ni.try_inject(&mut router, 10, &mut stats);
        // The retransmission went first and kept its original timestamp.
        assert_eq!(router.injected.len(), 1);
        assert_eq!(router.injected[0].packet, PacketId(9));
        assert_eq!(router.injected[0].injected_at, 3);
        assert_eq!(stats.flits_retransmitted, 1);
        assert_eq!(ni.pending_retransmits(), 0);
        // The fresh packet follows on the next cycle.
        ni.try_inject(&mut router, 11, &mut stats);
        assert_eq!(router.injected[1].packet, PacketId(1));
    }

    #[test]
    fn retransmit_blocks_until_router_accepts() {
        let mut ni = NodeInterface::new(NodeId::new(0), 1);
        let mut stats = NetworkStats::new();
        let mut router = SinkRouter::default(); // refuses
        ni.enqueue_retransmit(desc(9, 0, 7, 0, 1).flit(0, 3));
        ni.try_inject(&mut router, 0, &mut stats);
        assert!(router.injected.is_empty());
        assert_eq!(ni.pending_retransmits(), 1);
        assert!(!ni.is_idle());
    }

    #[test]
    fn bounded_retransmit_gives_up_with_structured_record() {
        let mut ni = NodeInterface::new(NodeId::new(0), 1);
        ni.enable_recovery(RetransmitConfig {
            timeout: 10,
            backoff_cap: 0,
            max_attempts: 2,
        });
        let mut stats = NetworkStats::new();
        let mut router = SinkRouter {
            accept: true,
            ..SinkRouter::default()
        };
        ni.enqueue(desc(1, 0, 5, 0, 2), &mut stats);
        ni.try_inject(&mut router, 0, &mut stats);
        ni.try_inject(&mut router, 1, &mut stats);
        assert_eq!(ni.outstanding_packets(), 1);
        // Two timeouts fire (attempts 1 and 2) and both attempts' copies
        // fully leave the NI.
        ni.check_timeouts(11, &mut stats);
        ni.try_inject(&mut router, 12, &mut stats);
        ni.try_inject(&mut router, 13, &mut stats);
        ni.check_timeouts(25, &mut stats);
        ni.try_inject(&mut router, 26, &mut stats);
        ni.try_inject(&mut router, 27, &mut stats);
        assert_eq!(stats.retransmit_timeouts, 2);
        assert_eq!(ni.pending_retransmits(), 0);
        // Third deadline: both attempts reached the wire and attempts ==
        // max_attempts, so the packet is retired — structured record
        // emitted. Nothing was queued, so nothing is abandoned.
        ni.check_timeouts(40, &mut stats);
        assert_eq!(ni.outstanding_packets(), 0);
        assert_eq!(ni.pending_retransmits(), 0);
        assert_eq!(stats.packets_unreachable, 1);
        assert_eq!(stats.flits_abandoned, 0);
        let mut records = Vec::new();
        ni.drain_unreachable_into(&mut records);
        assert_eq!(
            records,
            vec![UnreachablePacket {
                id: PacketId(1),
                src: NodeId::new(0),
                dest: NodeId::new(5),
                attempts: 2,
                gave_up_at: 40,
            }]
        );
        assert!(ni.is_idle());
        // No further timeouts fire for the retired packet.
        ni.check_timeouts(100, &mut stats);
        assert_eq!(stats.retransmit_timeouts, 2);
        assert_eq!(stats.packets_unreachable, 1);
    }

    #[test]
    fn queued_retransmit_copies_defer_give_up() {
        // Regression for an off-by-one in the attempt accounting: while a
        // retransmit attempt's copies are still queued in the NI (the
        // network wedged — e.g. the route died), a passing deadline must
        // neither fire another attempt nor count toward give-up. The
        // attempt has to reach the wire (where a revived route may yet
        // deliver it) before it can be charged against max_attempts;
        // otherwise a packet waiting out a dead link would be retired one
        // wire-attempt early.
        let mut ni = NodeInterface::new(NodeId::new(0), 1);
        ni.enable_recovery(RetransmitConfig {
            timeout: 10,
            backoff_cap: 0,
            max_attempts: 2,
        });
        let mut stats = NetworkStats::new();
        let mut router = SinkRouter {
            accept: true,
            ..SinkRouter::default()
        };
        ni.enqueue(desc(1, 0, 5, 0, 2), &mut stats);
        ni.try_inject(&mut router, 0, &mut stats);
        ni.try_inject(&mut router, 1, &mut stats);
        // Attempt 1 fires, then the router wedges: the copies never leave.
        ni.check_timeouts(11, &mut stats);
        router.accept = false;
        ni.try_inject(&mut router, 12, &mut stats);
        assert_eq!(ni.pending_retransmits(), 2);
        // Deadlines keep passing while the copies are queued: no new
        // attempt, no give-up — even far past max_attempts' worth of
        // timeouts.
        ni.check_timeouts(30, &mut stats);
        ni.check_timeouts(100, &mut stats);
        assert_eq!(stats.retransmit_timeouts, 1);
        assert_eq!(ni.outstanding_packets(), 1);
        assert_eq!(stats.packets_unreachable, 0);
        assert_eq!(ni.pending_retransmits(), 2);
        // The network heals: the queued copies reach the wire, the next
        // deadline fires attempt 2, and only after *that* attempt has also
        // left does give-up trigger.
        router.accept = true;
        ni.try_inject(&mut router, 101, &mut stats);
        ni.try_inject(&mut router, 102, &mut stats);
        assert_eq!(ni.pending_retransmits(), 0);
        ni.check_timeouts(150, &mut stats);
        assert_eq!(stats.retransmit_timeouts, 2);
        ni.try_inject(&mut router, 151, &mut stats);
        ni.try_inject(&mut router, 152, &mut stats);
        ni.check_timeouts(200, &mut stats);
        assert_eq!(ni.outstanding_packets(), 0);
        assert_eq!(stats.packets_unreachable, 1);
        let mut records = Vec::new();
        ni.drain_unreachable_into(&mut records);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].attempts, 2);
    }

    /// NI state and stats as snapshot bytes.
    fn state_bytes(ni: &NodeInterface, stats: &NetworkStats) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        ni.save(&mut w);
        stats.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn timeout_wake_cache_is_unobservable() {
        // Two NIs driven identically through injections, refusals, NACKs,
        // acks, partial arrivals and deadlines; the second has its wake
        // cycle zeroed before every call, which is the pre-cache behaviour
        // (a full scan every cycle). Bytes must match after every cycle.
        for seed in 0..8u64 {
            let cfg = RetransmitConfig {
                timeout: 12 + seed,
                backoff_cap: (seed % 3) as u32,
                max_attempts: (seed % 4) as u32,
            };
            let mut nis = [0, 1].map(|_| {
                let mut ni = NodeInterface::new(NodeId::new(0), 2);
                ni.enable_recovery(cfg);
                ni
            });
            let mut stats = [NetworkStats::new(), NetworkStats::new()];
            let mut routers = [SinkRouter::default(), SinkRouter::default()];
            let mut rng = SimRng::seed_from(0x77A6 + seed);
            let (mut next_id, mut scans_skipped) = (0u64, 0u32);
            for now in 0..1_500u64 {
                // Offers come in bursts so the source side falls quiet for
                // longer than a reassembly TTL while arrivals continue.
                let offer = (now / 300 % 2 == 0 && rng.gen_bool(0.15)).then(|| {
                    next_id += 1;
                    desc(
                        next_id,
                        0,
                        5,
                        rng.gen_range(2) as u8,
                        1 + rng.gen_range(3) as u16,
                    )
                });
                let accept = rng.gen_bool(0.8);
                // A flit of some packet sourced elsewhere arrives; most
                // packets never complete, so their buffers expire.
                let arrival = rng.gen_bool(0.1).then(|| {
                    let d = desc(10_000 + rng.gen_range(40), 3, 0, 0, 4);
                    d.flit(rng.gen_range(4) as u16, now)
                });
                let (nack, ack) = (rng.gen_bool(0.05), rng.gen_bool(0.3));
                let pick = rng.next_u64() as usize;
                for k in 0..2 {
                    let (ni, st, router) = (&mut nis[k], &mut stats[k], &mut routers[k]);
                    if let Some(d) = offer {
                        ni.enqueue(d, st);
                    }
                    // NACKs and acks name one of the latest few injections.
                    let sent = router.injected.len();
                    let recent = sent.saturating_sub(1 + pick % 6);
                    if sent > 0 && nack {
                        ni.nack(router.injected[recent], now, st);
                    }
                    if sent > 0 && ack {
                        ni.acknowledge(router.injected[recent].packet, st);
                    }
                    if let Some(f) = arrival {
                        ni.receive_flits([f], now, st);
                    }
                    let rec = ni.recovery.as_mut().unwrap();
                    if k == 1 {
                        rec.wake_at = 0;
                    } else if now < rec.wake_at {
                        scans_skipped += 1;
                    }
                    ni.check_timeouts(now, st);
                    router.accept = accept;
                    ni.try_inject(router, now, st);
                }
                assert_eq!(
                    state_bytes(&nis[0], &stats[0]),
                    state_bytes(&nis[1], &stats[1]),
                    "seed {seed} cycle {now}"
                );
            }
            assert!(stats[0].retransmit_timeouts > 0 && stats[0].reassemblies_expired > 0);
            assert!(
                scans_skipped > 300,
                "seed {seed}: only {scans_skipped} scans skipped"
            );
        }
    }

    #[test]
    #[should_panic(expected = "return to the source")]
    fn retransmit_at_wrong_node_panics() {
        let mut ni = NodeInterface::new(NodeId::new(4), 1);
        ni.enqueue_retransmit(desc(9, 0, 7, 0, 1).flit(0, 3));
    }

    #[test]
    fn ni_snapshot_round_trip_is_byte_identical() {
        let mut ni = NodeInterface::new(NodeId::new(0), 2);
        ni.enable_recovery(RetransmitConfig {
            timeout: 100,
            backoff_cap: 3,
            max_attempts: 2,
        });
        let mut stats = NetworkStats::new();
        let mut router = SinkRouter {
            accept: true,
            ..SinkRouter::default()
        };
        ni.enqueue(desc(1, 0, 5, 0, 3), &mut stats);
        ni.enqueue(desc(2, 0, 6, 1, 2), &mut stats);
        ni.try_inject(&mut router, 0, &mut stats);
        ni.try_inject(&mut router, 1, &mut stats);
        ni.enqueue_retransmit(desc(9, 0, 7, 0, 1).flit(0, 3));
        let inbound = desc(11, 3, 0, 0, 2);
        let mut arriving = inbound.flit(0, 4);
        arriving.dest = NodeId::new(0);
        arriving.src = NodeId::new(3);
        ni.receive_flits([arriving], 8, &mut stats);

        let mut w = SnapshotWriter::new();
        ni.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = NodeInterface::new(NodeId::new(0), 2);
        let mut r = SnapshotReader::new(&bytes);
        restored.load(&mut r).unwrap();
        r.finish("ni").unwrap();
        // Re-serializing the restored interface must reproduce the bytes.
        let mut w2 = SnapshotWriter::new();
        restored.save(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        assert_eq!(restored.pending_flits(), ni.pending_flits());
        assert_eq!(restored.pending_retransmits(), ni.pending_retransmits());
        assert_eq!(restored.open_reassemblies(), ni.open_reassemblies());
    }

    #[test]
    fn ni_load_rejects_vnet_count_mismatch() {
        let ni = NodeInterface::new(NodeId::new(0), 2);
        let mut w = SnapshotWriter::new();
        ni.save(&mut w);
        let bytes = w.into_bytes();
        let mut other = NodeInterface::new(NodeId::new(0), 3);
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            other.load(&mut r),
            Err(SnapshotError::ContextMismatch { .. })
        ));
    }

    #[test]
    fn tracks_reassembly_high_water() {
        let mut ni = NodeInterface::new(NodeId::new(5), 1);
        let mut stats = NetworkStats::new();
        let d1 = desc(1, 0, 5, 0, 2);
        let d2 = desc(2, 1, 5, 0, 2);
        ni.receive_flits([d1.flit(0, 0), d2.flit(0, 0)], 1, &mut stats);
        assert_eq!(ni.reassembly_high_water(), 2);
        ni.receive_flits([d1.flit(1, 0), d2.flit(1, 0)], 2, &mut stats);
        assert_eq!(ni.open_reassemblies(), 0);
        assert_eq!(ni.reassembly_high_water(), 2);
    }
}
