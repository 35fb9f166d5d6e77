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
use crate::packet::{DeliveredPacket, PacketDescriptor, PacketTable};
use crate::router::Router;
use crate::snapshot::{record_codec, Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::NetworkStats;
use std::collections::VecDeque;

/// Structured record of a packet its source NI gave up on: after
/// `max_attempts` retransmissions went unacknowledged the packet is retired
/// with this outcome instead of retrying forever (DESIGN.md §13). The
/// network accumulates these in
/// [`Network::unreachable_packets`](crate::network::Network::unreachable_packets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
#[derive(Debug, Clone, Default)]
struct InjectProgress {
    /// The packet: the source keeps its own descriptor, so it never reads
    /// the network's packet table.
    desc: PacketDescriptor,
    /// The next flit to inject, built once however many cycles the router
    /// refuses it. `injected_at` is stamped at each attempt.
    next: Flit,
    first_injected_at: Cycle,
}

/// The send side of one virtual network.
#[derive(Debug, Default)]
struct Lane {
    /// Packets waiting to start injection.
    queue: VecDeque<PacketDescriptor>,
    /// The packet currently being injected flit-by-flit.
    progress: Option<InjectProgress>,
}

/// Source-side record of a fully injected packet awaiting its end-to-end
/// acknowledgement (recovery mode only).
#[derive(Debug, Clone, Default)]
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
/// The timeout scan walks packets in ascending id order, which fixes the
/// order retransmit copies queue in.
#[derive(Debug, Default)]
struct Recovery {
    cfg: RetransmitConfig,
    /// Fully injected, not yet acknowledged packets sourced at this node,
    /// dense and sorted by packet id (a handful at a time; they finish
    /// injecting nearly in id order, so inserts land at or near the end).
    outstanding: Vec<Outstanding>,
    /// No outstanding deadline and no reassembly expiry falls before this
    /// cycle, so [`NodeInterface::check_timeouts`] is a no-op until then.
    /// A lower bound, only ever lowered outside the scan that recomputes
    /// it; derived state (0 after a restore: the first scan settles it).
    wake_at: Cycle,
}

impl Recovery {
    fn outstanding_at(&self, id: PacketId) -> Result<usize, usize> {
        self.outstanding.binary_search_by_key(&id, |o| o.desc.id)
    }

    fn insert_outstanding(&mut self, out: Outstanding) {
        match self.outstanding_at(out.desc.id) {
            Ok(at) => self.outstanding[at] = out,
            Err(at) => self.outstanding.insert(at, out),
        }
    }
}

/// Reassembly state for one partially received packet.
#[derive(Debug, Clone, Default)]
struct Reassembly {
    desc: PacketDescriptor,
    /// Arrival bits of flits 0..64, inline: paper packets are 1 or 5 flits.
    got: u64,
    /// Arrival words of flits 64.. (empty unless `desc.len > 64`, the one
    /// case opening a buffer allocates).
    got_more: Vec<u64>,
    received_count: u16,
    min_injected_at: Cycle,
    total_hops: u32,
    total_deflections: u32,
    /// Cycle of the most recent arrival; entries quiet past the recovery
    /// TTL are discarded by [`NodeInterface::check_timeouts`].
    last_arrival: Cycle,
}

impl Reassembly {
    fn open(desc: PacketDescriptor, injected_at: Cycle, now: Cycle) -> Reassembly {
        Reassembly {
            desc,
            got: 0,
            got_more: vec![0; (desc.len as usize - 1) / 64],
            received_count: 0,
            min_injected_at: injected_at,
            total_hops: 0,
            total_deflections: 0,
            last_arrival: now,
        }
    }

    /// Whether flit `seq` has arrived.
    ///
    /// # Panics
    ///
    /// Panics (as does [`Reassembly::mark`]) if `seq` is not a flit of
    /// this packet.
    fn has(&self, seq: u16) -> bool {
        assert!(seq < self.desc.len, "flit seq {seq} of {}", self.desc.id);
        let word = match seq / 64 {
            0 => self.got,
            w => self.got_more[w as usize - 1],
        };
        word >> (seq % 64) & 1 != 0
    }

    /// Records the arrival of flit `seq`.
    fn mark(&mut self, seq: u16) {
        assert!(seq < self.desc.len, "flit seq {seq} of {}", self.desc.id);
        let word = match seq / 64 {
            0 => &mut self.got,
            w => &mut self.got_more[w as usize - 1],
        };
        *word |= 1 << (seq % 64);
        self.received_count += 1;
    }
}

/// The descriptor of the packet `flit` belongs to: its identity from the
/// flit, its end-to-end data from the packet's table entry.
///
/// # Panics
///
/// Panics if the packet has no live entry: it was delivered already, so
/// only a duplicate (which the caller discards first) can name it.
fn descriptor_of(flit: &Flit, packets: &PacketTable) -> PacketDescriptor {
    match packets.get(flit.packet) {
        Some(&meta) => PacketDescriptor::of(flit, meta),
        None => panic!("flit {flit} names no undelivered packet"),
    }
}

/// The per-node injection/ejection endpoint.
#[derive(Debug)]
pub struct NodeInterface {
    node: NodeId,
    /// The send side, one lane per virtual network.
    lanes: Box<[Lane]>,
    /// Packets queued or mid-injection across all lanes.
    pending_packets: usize,
    /// Flits those packets still owe the network.
    pending_flits: usize,
    /// Round-robin pointer over vnets for injection fairness.
    rr_next: usize,
    /// Dropped flits awaiting retransmission (drop-based routers only);
    /// served ahead of fresh packets.
    retransmit: VecDeque<Flit>,
    /// Open reassembly buffers, dense and unordered; `open_ids[i]` is the
    /// packet of `open[i]`. A node has a dozen open at most, so finding a
    /// flit's buffer is a scan of one or two cache lines of ids.
    open: Vec<Reassembly>,
    open_ids: Vec<PacketId>,
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
            lanes: (0..vnet_count).map(|_| Lane::default()).collect(),
            pending_packets: 0,
            pending_flits: 0,
            rr_next: 0,
            retransmit: VecDeque::new(),
            open: Vec::new(),
            open_ids: Vec::new(),
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
    /// (clearing a `Vec`/`VecDeque` keeps its allocation; the recovery
    /// block is dropped). The network re-enables recovery after a reset
    /// exactly as it does after construction.
    pub fn reset(&mut self) {
        for lane in self.lanes.iter_mut() {
            lane.queue.clear();
            lane.progress = None;
        }
        (self.pending_packets, self.pending_flits) = (0, 0);
        self.rr_next = 0;
        self.retransmit.clear();
        self.open.clear();
        self.open_ids.clear();
        self.delivered.clear();
        self.reassembly_high_water = 0;
        self.recovery = None;
        self.corrupt_outbox.clear();
        self.acks_outbox.clear();
        self.unreachable_outbox.clear();
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
        let lane = self
            .lanes
            .get_mut(desc.vnet.index())
            .unwrap_or_else(|| panic!("vnet {} out of range", desc.vnet));
        lane.queue.push_back(desc);
        self.pending_packets += 1;
        self.pending_flits += desc.len as usize;
        stats.packets_offered += 1;
    }

    /// Packets queued or mid-injection on the send side.
    pub fn pending_packets(&self) -> usize {
        self.pending_packets
    }

    /// Flits still owed to the network by queued/in-progress packets.
    pub fn pending_flits(&self) -> usize {
        self.pending_flits
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
        // corruption goes back out clean.
        flit.repair();
        self.retransmit.push_back(flit);
    }

    /// Flits waiting for retransmission.
    pub fn pending_retransmits(&self) -> usize {
        self.retransmit.len()
    }

    /// Attempts to inject one flit into `router` this cycle, round-robin
    /// across virtual networks. Retransmissions go first.
    pub fn try_inject<R: Router + ?Sized>(
        &mut self,
        router: &mut R,
        now: Cycle,
        stats: &mut NetworkStats,
    ) {
        if let Some(flit) = self.retransmit.front() {
            // A retransmitted flit must not cut into a fresh packet's open
            // wormhole on the same vnet: VC routers route body flits by
            // their head's path, so interleaving would misroute them. Let
            // the fresh wormhole finish first (the fall-through below).
            let wormhole_open = self.lanes[flit.vnet.index()]
                .progress
                .as_ref()
                .is_some_and(|p| p.next.seq > 0);
            if !wormhole_open {
                if router.injection_ready(flit, now) {
                    router.inject(*flit, now);
                    self.retransmit.pop_front();
                    stats.flits_retransmitted += 1;
                }
                // The local port carries at most one flit per cycle.
                return;
            }
        }
        let vnets = self.lanes.len();
        let mut next = self.rr_next;
        for _ in 0..vnets {
            let lane = &mut self.lanes[next];
            next = if next + 1 == vnets { 0 } else { next + 1 };
            // Promote the next queued packet if this vnet is idle.
            if lane.progress.is_none() {
                if let Some(desc) = lane.queue.pop_front() {
                    lane.progress = Some(InjectProgress {
                        desc,
                        next: desc.flit(0, 0),
                        first_injected_at: 0,
                    });
                }
            }
            let Some(progress) = lane.progress.as_mut() else {
                continue;
            };
            let flit = &mut progress.next;
            flit.injected_at = now;
            if !router.injection_ready(flit, now) {
                continue;
            }
            if flit.seq == 0 {
                progress.first_injected_at = now;
                stats.packets_injected += 1;
            }
            router.inject(*flit, now);
            stats.flits_injected += 1;
            self.pending_flits -= 1;
            flit.seq += 1;
            if flit.seq == flit.len {
                let desc = progress.desc;
                let first_injected_at = progress.first_injected_at;
                lane.progress = None;
                self.pending_packets -= 1;
                if let Some(rec) = &mut self.recovery {
                    let next_deadline = now + rec.cfg.timeout;
                    rec.wake_at = rec.wake_at.min(next_deadline);
                    rec.insert_outstanding(Outstanding {
                        desc,
                        first_injected_at,
                        attempts: 0,
                        next_deadline,
                    });
                }
            }
            // One flit per cycle through the local port; resume fairness
            // from the next vnet.
            self.rr_next = next;
            return;
        }
    }

    /// Receives ejected flits from the router, reassembling packets; the
    /// first clean, fresh flit of a packet reads the packet's entry in
    /// `packets`.
    ///
    /// A flit corrupted by a link fault is never counted as delivered: it
    /// lands in the corrupt outbox, from which the network NACKs it back to
    /// its source for retransmission — the drop router's NACK circuit
    /// generalized to every mechanism.
    ///
    /// With recovery enabled, redundant copies (a retransmission racing an
    /// original) are silently discarded and counted; without it a duplicate
    /// still indicates a router bug and panics. A copy is redundant when its
    /// packet has no live entry in `packets` (delivered and taken: ids are
    /// dense and an entry leaves only by retiring), waits here delivered
    /// and untaken, or already has this flit in its open buffer — so the NI
    /// keeps nothing per packet it ever delivered.
    ///
    /// # Panics
    ///
    /// Panics on flits not addressed to this node, on duplicate flits
    /// when recovery is disabled, and on a fresh packet with no entry in
    /// `packets`.
    pub fn receive_flits(
        &mut self,
        flits: impl IntoIterator<Item = Flit>,
        packets: &PacketTable,
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
            // A multi-flit packet's open buffer, if any. (A one-flit packet
            // completes on arrival and never has one.)
            let at = match flit.len {
                1 => None,
                _ => self.open_ids.iter().position(|id| *id == flit.packet),
            };
            if self.recovery.is_some() {
                let duplicate = packets.get(flit.packet).is_none()
                    || match at {
                        Some(at) => self.open[at].has(flit.seq),
                        None => self
                            .delivered
                            .iter()
                            .any(|d| d.descriptor.id == flit.packet),
                    };
                if duplicate {
                    stats.duplicate_flits_discarded += 1;
                    continue;
                }
            }
            stats.flits_delivered += 1;
            stats.flit_hops.record(flit.hops as u64);
            stats.flit_deflections.record(flit.deflections as u64);
            if flit.len == 1 {
                // Nothing to reassemble, so no buffer is opened (the
                // high-water mark is sampled after the loop and never saw
                // one-flit buffers anyway).
                let delivered = DeliveredPacket {
                    descriptor: descriptor_of(&flit, packets),
                    injected_at: flit.injected_at,
                    delivered_at: now,
                    total_hops: flit.hops as u32,
                    total_deflections: flit.deflections as u32,
                };
                self.deliver(delivered, stats);
                continue;
            }
            let at = at.unwrap_or_else(|| {
                if let Some(rec) = &mut self.recovery {
                    rec.wake_at = rec
                        .wake_at
                        .min(now.saturating_add(rec.cfg.reassembly_ttl()));
                }
                self.open_ids.push(flit.packet);
                let desc = descriptor_of(&flit, packets);
                self.open
                    .push(Reassembly::open(desc, flit.injected_at, now));
                self.open.len() - 1
            });
            let entry = &mut self.open[at];
            assert!(!entry.has(flit.seq), "duplicate flit {flit} delivered");
            entry.mark(flit.seq);
            entry.last_arrival = now;
            entry.min_injected_at = entry.min_injected_at.min(flit.injected_at);
            entry.total_hops += flit.hops as u32;
            entry.total_deflections += flit.deflections as u32;

            if entry.received_count == entry.desc.len {
                let entry = self.open.swap_remove(at);
                self.open_ids.swap_remove(at);
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
        self.reassembly_high_water = self.reassembly_high_water.max(self.open.len());
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
        if self.recovery.is_some() {
            let PacketDescriptor { id, src, .. } = delivered.descriptor;
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
        for out in rec.outstanding.iter_mut() {
            let id = &out.desc.id;
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
            let at = rec.outstanding_at(id).expect("collected above");
            let out = rec.outstanding.remove(at);
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
        let mut at = 0;
        while at < self.open.len() {
            let last_arrival = self.open[at].last_arrival;
            if now.saturating_sub(last_arrival) < ttl {
                wake_at = wake_at.min(last_arrival.saturating_add(ttl));
                at += 1;
            } else {
                self.open.swap_remove(at);
                self.open_ids.swap_remove(at);
                stats.reassemblies_expired += 1;
            }
        }
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
            if let Ok(at) = rec.outstanding_at(flit.packet) {
                let out = &mut rec.outstanding[at];
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
        if let Ok(at) = rec.outstanding_at(id) {
            if rec.outstanding.remove(at).attempts > 0 {
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

    /// Drains the corrupt arrivals collected since the last drain (the
    /// network routes them onto the NACK circuit); the outbox keeps its
    /// capacity.
    pub fn drain_corrupt(&mut self) -> std::vec::Drain<'_, Flit> {
        self.corrupt_outbox.drain(..)
    }

    /// Drains the pending end-to-end acknowledgements `(source, packet)`,
    /// keeping the outbox's capacity.
    pub fn drain_acks(&mut self) -> std::vec::Drain<'_, (NodeId, PacketId)> {
        self.acks_outbox.drain(..)
    }

    /// Appends the given-up-packet records produced since the last drain to
    /// `out` (the network accumulates them into its run-wide log).
    pub fn drain_unreachable_into(&mut self, out: &mut Vec<UnreachablePacket>) {
        out.append(&mut self.unreachable_outbox);
    }

    /// True when completed packets are waiting to be taken.
    pub fn has_delivered(&self) -> bool {
        !self.delivered.is_empty()
    }

    /// Appends the packets completed since the last drain to `out`,
    /// retaining both buffers' capacities. Under recovery the caller
    /// retires their table entries (as
    /// [`Network::take_delivered_into`](crate::network::Network::take_delivered_into)
    /// does): a packet neither live in the table nor waiting here is what
    /// marks a later copy of it as a duplicate.
    pub fn drain_delivered_into(&mut self, out: &mut Vec<DeliveredPacket>) {
        out.append(&mut self.delivered);
    }

    /// Open (incomplete) reassembly buffers right now.
    pub fn open_reassemblies(&self) -> usize {
        self.open.len()
    }

    /// High-water mark of simultaneously open reassembly buffers.
    pub fn reassembly_high_water(&self) -> usize {
        self.reassembly_high_water
    }

    /// Whether end-to-end recovery is on here (a flit of a packet with no
    /// live table entry is then a late copy, discarded on arrival).
    pub(crate) fn has_recovery(&self) -> bool {
        self.recovery.is_some()
    }

    /// Calls `f` with every packet this interface holds that cannot have
    /// been delivered yet: queued or mid-injection here, partly reassembled
    /// here, or delivered here and not yet taken.
    pub(crate) fn undelivered_packets(&self, mut f: impl FnMut(PacketId)) {
        for lane in self.lanes.iter() {
            lane.queue.iter().for_each(|d| f(d.id));
            lane.progress.iter().for_each(|p| f(p.desc.id));
        }
        self.open_ids.iter().copied().for_each(&mut f);
        self.delivered.iter().for_each(|d| f(d.descriptor.id));
    }

    /// Approximate heap bytes owned by this interface. Every term scales
    /// with *traffic through this node* (queued packets, open reassembly
    /// buffers, outstanding retransmits), never with mesh size, which is
    /// what keeps 128×128 meshes affordable.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let lanes: usize = self
            .lanes
            .iter()
            .map(|l| size_of::<Lane>() + l.queue.capacity() * size_of::<PacketDescriptor>())
            .sum();
        let reassembly = self.open.capacity() * size_of::<Reassembly>()
            + self.open_ids.capacity() * size_of::<PacketId>()
            + (self.open.iter())
                .map(|e| e.got_more.capacity() * size_of::<u64>())
                .sum::<usize>();
        let recovery = (self.recovery.as_ref())
            .map_or(0, |r| r.outstanding.capacity() * size_of::<Outstanding>());
        lanes
            + self.retransmit.capacity() * size_of::<Flit>()
            + reassembly
            + self.delivered.capacity() * size_of::<DeliveredPacket>()
            + recovery
            + self.corrupt_outbox.capacity() * size_of::<Flit>()
            + self.acks_outbox.capacity() * size_of::<(NodeId, PacketId)>()
            + self.unreachable_outbox.capacity() * size_of::<UnreachablePacket>()
    }

    /// True when the send side is fully drained and no packet is partially
    /// reassembled or undelivered.
    pub fn is_idle(&self) -> bool {
        self.pending_packets() == 0
            && self.retransmit.is_empty()
            && self.open.is_empty()
            && self.delivered.is_empty()
            && self.corrupt_outbox.is_empty()
            && self.acks_outbox.is_empty()
            && self.unreachable_outbox.is_empty()
            && self.outstanding_packets() == 0
    }
}

record_codec!(RetransmitConfig {
    timeout,
    backoff_cap,
    max_attempts
});

/// The packet's descriptor, the next flit's sequence number and the first
/// flit's injection cycle; the flit is rebuilt from them.
impl Codec for InjectProgress {
    fn put(&self, w: &mut SnapshotWriter) {
        self.desc.put(w);
        (self.next.seq, self.first_injected_at).put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let (desc, seq, first_injected_at): (PacketDescriptor, u16, Cycle) = Codec::get(r)?;
        if seq >= desc.len {
            return Err(SnapshotError::Malformed {
                what: "ni in-progress seq",
            });
        }
        *self = InjectProgress {
            desc,
            next: desc.flit(seq, 0),
            first_injected_at,
        };
        Ok(())
    }
}

/// The descriptor, one arrival flag per flit, then the running totals.
impl Codec for Reassembly {
    fn put(&self, w: &mut SnapshotWriter) {
        self.desc.put(w);
        (0..self.desc.len).for_each(|seq| self.has(seq).put(w));
        let totals = (self.total_hops, self.total_deflections);
        (self.min_injected_at, totals, self.last_arrival).put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let desc = PacketDescriptor::get(r)?;
        if desc.len == 0 {
            return Err(SnapshotError::Malformed {
                what: "ni reassembly length",
            });
        }
        *self = Reassembly::open(desc, 0, 0);
        for seq in 0..desc.len {
            if r.get_bool("ni reassembly bitmap")? {
                self.mark(seq);
            }
        }
        let totals: (u32, u32);
        (self.min_injected_at, totals, self.last_arrival) = Codec::get(r)?;
        (self.total_hops, self.total_deflections) = totals;
        Ok(())
    }
}

/// The packet id (the table's sort key) leads the record.
impl Codec for Outstanding {
    fn put(&self, w: &mut SnapshotWriter) {
        (self.desc.id, self.desc).put(w);
        (self.first_injected_at, self.attempts, self.next_deadline).put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let id: PacketId;
        (id, self.desc) = Codec::get(r)?;
        (self.first_injected_at, self.attempts, self.next_deadline) = Codec::get(r)?;
        match id == self.desc.id {
            true => Ok(()),
            false => Err(SnapshotError::Malformed {
                what: "ni outstanding id",
            }),
        }
    }
}

/// `wake_at` is derived: 0 after a load, the first scan settles it.
impl Codec for Recovery {
    fn put(&self, w: &mut SnapshotWriter) {
        self.cfg.put(w);
        self.outstanding.put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.cfg.load(r)?;
        self.outstanding.load(r)?;
        self.wake_at = 0;
        match self.outstanding.is_sorted_by(|a, b| a.desc.id < b.desc.id) {
            true => Ok(()),
            false => Err(SnapshotError::Malformed {
                what: "ni outstanding order",
            }),
        }
    }
}

/// Open reassembly buffers travel in packet-id order, so the bytes do not
/// depend on their (unordered) table positions. The send side's packet
/// and flit debts are derived from the loaded queues.
impl Codec for NodeInterface {
    fn put(&self, w: &mut SnapshotWriter) {
        self.lanes.len().put(w);
        self.lanes.iter().for_each(|lane| lane.queue.put(w));
        self.lanes.iter().for_each(|lane| lane.progress.put(w));
        self.rr_next.put(w);
        self.retransmit.put(w);
        let mut open: Vec<&Reassembly> = self.open.iter().collect();
        open.sort_unstable_by_key(|e| e.desc.id);
        open.len().put(w);
        open.iter().for_each(|e| e.put(w));
        self.delivered.put(w);
        self.reassembly_high_water.put(w);
        self.recovery.put(w);
        self.corrupt_outbox.put(w);
        self.acks_outbox.put(w);
        self.unreachable_outbox.put(w);
    }

    /// Loads into an interface built with the same vnet count, as the
    /// network's are when it is rebuilt from the same config.
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let vnets = r.get_usize("ni vnet count")?;
        if vnets != self.lanes.len() {
            return Err(SnapshotError::ContextMismatch {
                what: "ni vnet count",
                snapshot: vnets.to_string(),
                current: self.lanes.len().to_string(),
            });
        }
        for lane in self.lanes.iter_mut() {
            lane.queue.load(r)?;
        }
        for lane in self.lanes.iter_mut() {
            lane.progress.load(r)?;
        }
        self.rr_next = r.get_index(vnets, "ni round-robin cursor")?;
        self.retransmit.load(r)?;
        self.open.load(r)?;
        self.open_ids.clear();
        self.open_ids.extend(self.open.iter().map(|e| e.desc.id));
        if !self.open_ids.is_sorted_by(|a, b| a < b) {
            return Err(SnapshotError::Malformed {
                what: "ni duplicate reassembly id",
            });
        }
        self.delivered.load(r)?;
        self.reassembly_high_water.load(r)?;
        self.recovery.load(r)?;
        self.corrupt_outbox.load(r)?;
        self.acks_outbox.load(r)?;
        self.unreachable_outbox.load(r)?;
        (self.pending_packets, self.pending_flits) = (0, 0);
        for lane in self.lanes.iter() {
            let owed = lane
                .progress
                .as_ref()
                .map_or(0, |p| p.next.len - p.next.seq);
            self.pending_packets += lane.queue.len() + lane.progress.is_some() as usize;
            let queued: usize = lane.queue.iter().map(|d| d.len as usize).sum();
            self.pending_flits += queued + owed as usize;
        }
        Ok(())
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

    /// A packet table holding `descs` (ids below the largest not among
    /// them hold placeholder entries: ids are dense).
    fn table(descs: &[PacketDescriptor]) -> PacketTable {
        let mut t = PacketTable::default();
        let end = descs.iter().map(|d| d.id.0 + 1).max().unwrap_or(0);
        for id in 0..end {
            let d = descs.iter().find(|d| d.id.0 == id);
            t.push(d.map(PacketDescriptor::meta).unwrap_or_default());
        }
        t
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
        let d = PacketDescriptor {
            created_at: 4,
            kind: PacketKind::Writeback,
            tag: 0x7A6,
            ..desc(9, 0, 5, 0, 3)
        };
        let packets = table(&[d]);
        let mut f0 = d.flit(0, 10);
        let mut f1 = d.flit(1, 11);
        let f2 = d.flit(2, 12);
        f0.hops = 2;
        f1.deflections = 1;
        ni.receive_flits([f2, f0], &packets, 20, &mut stats);
        assert_eq!(ni.open_reassemblies(), 1);
        assert!(!ni.has_delivered());
        ni.receive_flits([f1], &packets, 25, &mut stats);
        let mut delivered = Vec::new();
        ni.drain_delivered_into(&mut delivered);
        assert_eq!(delivered.len(), 1);
        let p = delivered[0];
        // The table supplied what the flits no longer carry.
        assert_eq!(p.descriptor, d);
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
        ni.receive_flits([f, f], &table(&[d]), 1, &mut stats);
    }

    #[test]
    #[should_panic(expected = "names no undelivered packet")]
    fn a_fresh_packet_without_a_table_entry_panics() {
        let mut ni = NodeInterface::new(NodeId::new(5), 1);
        let mut stats = NetworkStats::new();
        let d = desc(9, 0, 5, 0, 1);
        let mut packets = table(&[d]);
        packets.retire(d.id);
        ni.receive_flits([d.flit(0, 0)], &packets, 1, &mut stats);
    }

    /// A recovering NI at node 5 and two packets headed there from node
    /// 0: one of one flit, one of two.
    fn recovering_receiver() -> (NodeInterface, [PacketDescriptor; 2], PacketTable) {
        let mut ni = NodeInterface::new(NodeId::new(5), 1);
        ni.enable_recovery(RetransmitConfig {
            timeout: 100,
            backoff_cap: 0,
            max_attempts: 0,
        });
        let descs = [desc(1, 0, 5, 0, 1), desc(2, 0, 5, 0, 2)];
        let packets = table(&descs);
        (ni, descs, packets)
    }

    /// Takes what `ni` delivered, retiring it from `packets` as the
    /// network's `take_delivered_into` does; returns the ids.
    fn take(ni: &mut NodeInterface, packets: &mut PacketTable) -> Vec<u64> {
        let mut out = Vec::new();
        ni.drain_delivered_into(&mut out);
        out.iter().for_each(|p| packets.retire(p.descriptor.id));
        out.iter().map(|p| p.descriptor.id.0).collect()
    }

    #[test]
    fn a_late_copy_of_a_taken_packet_is_discarded() {
        let (mut ni, [one, two], mut packets) = recovering_receiver();
        let mut stats = NetworkStats::new();
        let flits = [one.flit(0, 0), two.flit(0, 0), two.flit(1, 0)];
        ni.receive_flits(flits, &packets, 10, &mut stats);
        assert_eq!(take(&mut ni, &mut packets), [1, 2]);
        assert_eq!(packets.live(), 1, "only the placeholder id 0 is live");
        // Retransmitted copies arrive after their packets were taken: no
        // live entry, so every one is a duplicate (and none panics for
        // want of a descriptor).
        ni.receive_flits(flits, &packets, 20, &mut stats);
        assert_eq!(stats.duplicate_flits_discarded, 3);
        assert_eq!((stats.packets_delivered, stats.flits_delivered), (2, 3));
        assert_eq!(ni.open_reassemblies(), 0);
        assert!(!ni.has_delivered());
    }

    #[test]
    fn a_copy_of_a_packet_waiting_untaken_is_discarded() {
        let (mut ni, [one, two], mut packets) = recovering_receiver();
        let mut stats = NetworkStats::new();
        ni.receive_flits([one.flit(0, 0), two.flit(1, 0)], &packets, 10, &mut stats);
        ni.receive_flits([two.flit(0, 0)], &packets, 11, &mut stats);
        // Both delivered, neither taken: their entries are still live, so
        // the untaken list is what marks the next copies as late.
        assert!(packets.get(one.id).is_some() && packets.get(two.id).is_some());
        let copies = [two.flit(0, 0), one.flit(0, 0), two.flit(1, 0)];
        ni.receive_flits(copies, &packets, 12, &mut stats);
        assert_eq!(stats.duplicate_flits_discarded, 3);
        assert_eq!(ni.open_reassemblies(), 0);
        assert_eq!(take(&mut ni, &mut packets), [1, 2]);
        assert_eq!(stats.packets_delivered, 2);
    }

    #[test]
    fn an_orphan_delivers_once_and_its_second_copy_is_discarded() {
        let (mut ni, [_, two], mut packets) = recovering_receiver();
        let mut stats = NetworkStats::new();
        // Packet 2's source gave up: its entry leaves the window but stays
        // live, so a copy still in flight delivers it.
        packets.orphan(two.id);
        assert_eq!(packets.orphans(), 1);
        ni.receive_flits([two.flit(1, 0), two.flit(0, 0)], &packets, 10, &mut stats);
        assert_eq!(take(&mut ni, &mut packets), [2]);
        assert_eq!(packets.orphans(), 0);
        ni.receive_flits([two.flit(0, 0), two.flit(1, 0)], &packets, 20, &mut stats);
        assert_eq!(stats.duplicate_flits_discarded, 2);
        assert_eq!((stats.packets_delivered, ni.open_reassemblies()), (1, 0));
    }

    #[test]
    #[should_panic(expected = "wrong node")]
    fn misdelivered_flit_detected() {
        let mut ni = NodeInterface::new(NodeId::new(4), 1);
        let mut stats = NetworkStats::new();
        let d = desc(9, 0, 5, 0, 1);
        ni.receive_flits([d.flit(0, 0)], &table(&[d]), 1, &mut stats);
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
        ni.put(&mut w);
        stats.put(&mut w);
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
            let packets = table(&[desc(10_039, 3, 0, 0, 4)]);
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
                        ni.receive_flits([f], &packets, now, st);
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
        ni.receive_flits([arriving], &table(&[inbound]), 8, &mut stats);

        let mut w = SnapshotWriter::new();
        ni.put(&mut w);
        let bytes = w.into_bytes();
        let mut restored = NodeInterface::new(NodeId::new(0), 2);
        let mut r = SnapshotReader::new(&bytes);
        restored.load(&mut r).unwrap();
        r.finish("ni").unwrap();
        // Re-serializing the restored interface must reproduce the bytes.
        let mut w2 = SnapshotWriter::new();
        restored.put(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        assert_eq!(restored.pending_flits(), ni.pending_flits());
        assert_eq!(restored.pending_retransmits(), ni.pending_retransmits());
        assert_eq!(restored.open_reassemblies(), ni.open_reassemblies());
    }

    #[test]
    fn ni_load_rejects_vnet_count_mismatch() {
        let ni = NodeInterface::new(NodeId::new(0), 2);
        let mut w = SnapshotWriter::new();
        ni.put(&mut w);
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
        let packets = table(&[d1, d2]);
        ni.receive_flits([d1.flit(0, 0), d2.flit(0, 0)], &packets, 1, &mut stats);
        assert_eq!(ni.reassembly_high_water(), 2);
        ni.receive_flits([d1.flit(1, 0), d2.flit(1, 0)], &packets, 2, &mut stats);
        assert_eq!(ni.open_reassemblies(), 0);
        assert_eq!(ni.reassembly_high_water(), 2);
    }
}
