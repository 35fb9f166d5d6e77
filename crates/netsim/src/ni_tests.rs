//! Differential wall for the NI's dense tables: the implementation they
//! replaced — `HashMap` reassembly with recycled `Vec<bool>` bitmaps, a
//! `BTreeMap` of outstanding packets, per-vnet `Vec`s of queues and
//! progress slots, a candidate flit rebuilt on every attempt — kept
//! (comments and unused accessors dropped; like the NI, it reads a
//! packet's creation cycle, kind and tag from the packet table) as
//! [`RefInterface`] and driven side by side with [`NodeInterface`] through
//! seeded traffic. Equal means equal delivered-packet streams, outboxes,
//! stats and snapshot bytes after every cycle; each side also restores
//! from the *other's* bytes, so the snapshot format is shown unchanged.
//!
//! The reference still keeps its `BTreeSet` of completed packets as an
//! independent dedup oracle: the NI instead reads a late copy off the
//! packet table (no live entry) or its own untaken delivered list, so the
//! harness retires every drained packet from its table as the network
//! does. The set is not in the snapshot; a restore leaves it as it was,
//! since both sides restore to the cycle they are at.

use crate::config::RetransmitConfig;
use crate::flit::{Cycle, Flit, PacketId};
use crate::geom::NodeId;
use crate::ni::{NodeInterface, UnreachablePacket};
use crate::packet::{DeliveredPacket, PacketDescriptor, PacketTable};
use crate::router::Router;
use crate::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::NetworkStats;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

#[derive(Debug, Clone)]
struct InjectProgress {
    desc: PacketDescriptor,
    next_seq: u16,
    first_injected_at: Cycle,
}

#[derive(Debug, Clone)]
struct Outstanding {
    desc: PacketDescriptor,
    first_injected_at: Cycle,
    attempts: u32,
    next_deadline: Cycle,
}

#[derive(Debug, Default)]
struct Recovery {
    cfg: RetransmitConfig,
    outstanding: BTreeMap<PacketId, Outstanding>,
    completed: BTreeSet<PacketId>,
    wake_at: Cycle,
}

#[derive(Debug, Clone)]
struct Reassembly {
    desc: PacketDescriptor,
    received: Vec<bool>,
    received_count: u16,
    min_injected_at: Cycle,
    total_hops: u32,
    total_deflections: u32,
    last_arrival: Cycle,
}

fn descriptor_of(flit: &Flit, packets: &PacketTable) -> PacketDescriptor {
    let meta = packets.get(flit.packet).expect("a live packet");
    PacketDescriptor {
        id: flit.packet,
        src: flit.src,
        dest: flit.dest,
        vnet: flit.vnet,
        len: flit.len,
        created_at: meta.created_at,
        kind: meta.kind,
        tag: meta.tag,
    }
}

fn spare_bitmap(spares: &mut Vec<Vec<bool>>) -> Vec<bool> {
    let mut bitmap = spares.pop().unwrap_or_default();
    bitmap.clear();
    bitmap
}

#[derive(Debug)]
struct RefInterface {
    node: NodeId,
    queues: Vec<VecDeque<PacketDescriptor>>,
    in_progress: Vec<Option<InjectProgress>>,
    rr_next: usize,
    retransmit: VecDeque<Flit>,
    reassembly: HashMap<PacketId, Reassembly>,
    spare_bitmaps: Vec<Vec<bool>>,
    delivered: Vec<DeliveredPacket>,
    reassembly_high_water: usize,
    recovery: Option<Recovery>,
    corrupt_outbox: Vec<Flit>,
    acks_outbox: Vec<(NodeId, PacketId)>,
    unreachable_outbox: Vec<UnreachablePacket>,
}

impl RefInterface {
    pub fn new(node: NodeId, vnet_count: usize) -> RefInterface {
        RefInterface {
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

    fn close_reassemblies(&mut self) {
        let open = self.reassembly.drain().map(|(_, e)| e.received);
        self.spare_bitmaps.extend(open);
    }

    pub fn enable_recovery(&mut self, cfg: RetransmitConfig) {
        self.recovery = Some(Recovery {
            cfg,
            ..Recovery::default()
        });
    }

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

    pub fn pending_packets(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum::<usize>()
            + self.in_progress.iter().flatten().count()
    }

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

    pub fn enqueue_retransmit(&mut self, mut flit: Flit) {
        assert_eq!(flit.src, self.node, "retransmit must return to the source");
        flit.repair();
        self.retransmit.push_back(flit);
    }

    pub fn pending_retransmits(&self) -> usize {
        self.retransmit.len()
    }

    pub fn try_inject(&mut self, router: &mut dyn Router, now: Cycle, stats: &mut NetworkStats) {
        if let Some(&flit) = self.retransmit.front() {
            let wormhole_open = self.in_progress[flit.vnet.index()]
                .as_ref()
                .is_some_and(|p| p.next_seq > 0);
            if !wormhole_open {
                if router.injection_ready(&flit, now) {
                    router.inject(flit, now);
                    self.retransmit.pop_front();
                    stats.flits_retransmitted += 1;
                }
                return;
            }
        }
        let vnets = self.queues.len();
        for offset in 0..vnets {
            let v = (self.rr_next + offset) % vnets;
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
            self.rr_next = (v + 1) % vnets;
            return;
        }
    }

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
                    desc: descriptor_of(&flit, packets),
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

    pub fn nack(&mut self, flit: Flit, now: Cycle, stats: &mut NetworkStats) {
        assert_eq!(flit.src, self.node, "NACK must return to the source");
        if let Some(rec) = &mut self.recovery {
            if let Some(out) = rec.outstanding.get_mut(&flit.packet) {
                out.next_deadline = out.next_deadline.min(now);
                rec.wake_at = rec.wake_at.min(now);
            }
            stats.nacks_absorbed += 1;
            return;
        }
        self.enqueue_retransmit(flit);
    }

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

    pub fn outstanding_packets(&self) -> usize {
        self.recovery
            .as_ref()
            .map_or(0, |rec| rec.outstanding.len())
    }

    pub fn take_corrupt(&mut self) -> Vec<Flit> {
        std::mem::take(&mut self.corrupt_outbox)
    }

    pub fn take_acks(&mut self) -> Vec<(NodeId, PacketId)> {
        std::mem::take(&mut self.acks_outbox)
    }

    pub fn drain_unreachable_into(&mut self, out: &mut Vec<UnreachablePacket>) {
        out.append(&mut self.unreachable_outbox);
    }

    pub fn drain_delivered_into(&mut self, out: &mut Vec<DeliveredPacket>) {
        out.append(&mut self.delivered);
    }

    pub fn open_reassemblies(&self) -> usize {
        self.reassembly.len()
    }

    pub fn reassembly_high_water(&self) -> usize {
        self.reassembly_high_water
    }

    pub fn save(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.queues.len());
        for q in &self.queues {
            w.put_usize(q.len());
            for d in q {
                d.put(w);
            }
        }
        for p in &self.in_progress {
            match p {
                Some(p) => {
                    w.put_bool(true);
                    p.desc.put(w);
                    w.put_u16(p.next_seq);
                    w.put_u64(p.first_injected_at);
                }
                None => w.put_bool(false),
            }
        }
        w.put_usize(self.rr_next);
        w.put_usize(self.retransmit.len());
        for f in &self.retransmit {
            f.put(w);
        }
        let mut ids: Vec<PacketId> = self.reassembly.keys().copied().collect();
        ids.sort_unstable();
        w.put_usize(ids.len());
        for id in ids {
            let e = &self.reassembly[&id];
            e.desc.put(w);
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
            d.put(w);
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
                    out.desc.put(w);
                    w.put_u64(out.first_injected_at);
                    w.put_u32(out.attempts);
                    w.put_u64(out.next_deadline);
                }
            }
            None => w.put_bool(false),
        }
        w.put_usize(self.corrupt_outbox.len());
        for f in &self.corrupt_outbox {
            f.put(w);
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
                q.push_back(PacketDescriptor::get(r)?);
            }
        }
        for p in &mut self.in_progress {
            *p = if r.get_bool("ni in-progress presence")? {
                let desc = PacketDescriptor::get(r)?;
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
            self.retransmit.push_back(Flit::get(r)?);
        }
        self.close_reassemblies();
        for _ in 0..r.get_usize("ni reassembly count")? {
            let desc = PacketDescriptor::get(r)?;
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
            self.delivered.push(DeliveredPacket::get(r)?);
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
                    desc: PacketDescriptor::get(r)?,
                    first_injected_at: r.get_u64("ni outstanding injected_at")?,
                    attempts: r.get_u32("ni outstanding attempts")?,
                    next_deadline: r.get_u64("ni outstanding deadline")?,
                };
                outstanding.insert(id, out);
            }
            let completed = (self.recovery.take()).map_or_else(BTreeSet::new, |r| r.completed);
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
            self.corrupt_outbox.push(Flit::get(r)?);
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

use crate::channel::{ControlSignal, Credit};
use crate::counters::ActivityCounters;
use crate::flit::{PacketKind, VirtualNetwork};
use crate::geom::PortId;
use crate::rng::SimRng;
use crate::router::{RouterMode, RouterOutputs};

/// A router that accepts or refuses by a flag and remembers injections.
#[derive(Default)]
struct Sink {
    injected: Vec<Flit>,
    accept: bool,
    counters: ActivityCounters,
}

impl Router for Sink {
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

/// Both implementations behind one set of calls.
macro_rules! both {
    ($pair:expr, |$ni:ident, $stats:ident, $router:ident| $body:expr) => {{
        let (new, old) = &mut $pair;
        let a = {
            let ($ni, $stats, $router) = (&mut new.0, &mut new.1, &mut new.2);
            $body
        };
        let b = {
            let ($ni, $stats, $router) = (&mut old.0, &mut old.1, &mut old.2);
            $body
        };
        (a, b)
    }};
}

fn bytes(save: impl FnOnce(&mut SnapshotWriter), stats: &NetworkStats) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    save(&mut w);
    stats.put(&mut w);
    w.into_bytes()
}

#[test]
fn dense_tables_equal_the_map_reference_under_seeded_traffic() {
    const VNETS: usize = 3;
    let here = NodeId::new(0);
    let mut totals = NetworkStats::new();
    let (mut restores, mut wide) = (0, 0);
    for seed in 0..12u64 {
        // Odd seeds run with recovery on (duplicates, timeouts, TTL expiry,
        // give-up); even seeds without (where a duplicate is a panic).
        let recovery = (seed % 2 == 1).then_some(RetransmitConfig {
            timeout: 15 + seed,
            backoff_cap: (seed % 3) as u32,
            max_attempts: (seed / 2 % 3) as u32,
        });
        let fresh = || {
            let (mut new, mut old) = (
                NodeInterface::new(here, VNETS),
                RefInterface::new(here, VNETS),
            );
            if let Some(cfg) = recovery {
                new.enable_recovery(cfg);
                old.enable_recovery(cfg);
            }
            (new, old)
        };
        let (new, old) = fresh();
        let mut pair = (
            (new, NetworkStats::new(), Sink::default()),
            (old, NetworkStats::new(), Sink::default()),
        );
        let mut rng = SimRng::seed_from(0xD15E ^ seed);
        // Remote packets headed here: `(descriptor, seqs not yet sent)`.
        // Some are abandoned part-way, some resend flits already sent.
        let mut inbound: Vec<(PacketDescriptor, Vec<u16>)> = Vec::new();
        let mut sent: Vec<Flit> = Vec::new();
        // Every packet's creation cycle, kind and tag, by id (ids start at 1).
        // `offered[id]` is packet `id` as offered.
        let mut packets = PacketTable::default();
        packets.push(Default::default());
        let mut offered = vec![PacketDescriptor::default()];
        let mut next_id = 0u64;
        let mut desc = |src: usize, dest: usize, vnet: u8, len: u16| {
            next_id += 1;
            PacketDescriptor {
                id: PacketId(next_id),
                src: NodeId::new(src),
                dest: NodeId::new(dest),
                vnet: VirtualNetwork(vnet),
                len,
                created_at: next_id % 7,
                kind: [
                    PacketKind::Request,
                    PacketKind::Response,
                    PacketKind::Writeback,
                    PacketKind::Synthetic,
                ][next_id as usize % 4],
                tag: next_id * 3,
            }
        };
        for now in 0..2_500u64 {
            // Send side: bursty offers over all vnets, a router that
            // refuses a quarter of the time, NACKs and acks of recent flits.
            if now / 400 % 2 == 0 && rng.gen_bool(0.2) {
                let len = [1, 1, 2, 5, 5, 9][rng.gen_index(6)];
                let d = desc(0, 1 + rng.gen_index(8), rng.gen_index(VNETS) as u8, len);
                assert_eq!(packets.push(d.meta()), d.id);
                offered.push(d);
                both!(pair, |ni, stats, _r| ni.enqueue(d, stats));
            }
            let (accept, nack, ack) = (rng.gen_bool(0.75), rng.gen_bool(0.05), rng.gen_bool(0.3));
            let pick = rng.next_u64() as usize;
            both!(pair, |ni, stats, router| {
                let n = router.injected.len();
                let recent = n.saturating_sub(1 + pick % 8);
                if n > 0 && nack {
                    ni.nack(router.injected[recent], now, stats);
                }
                if n > 0 && ack {
                    ni.acknowledge(router.injected[recent].packet, stats);
                }
            });

            // Receive side: new remote packets open (one in eight longer
            // than a bitword), then up to three flits arrive from random
            // open packets, interleaved and out of order.
            if rng.gen_bool(0.15) {
                let len = match rng.gen_index(8) {
                    0 => 65 + rng.gen_index(70) as u16,
                    k => [1, 2, 5, 5, 9, 3, 64][k - 1],
                };
                wide += (len > 64) as u32;
                let d = desc(1 + rng.gen_index(8), 0, rng.gen_index(VNETS) as u8, len);
                assert_eq!(packets.push(d.meta()), d.id);
                offered.push(d);
                let mut seqs: Vec<u16> = (0..len).collect();
                rng.shuffle(&mut seqs);
                if rng.gen_bool(0.2) {
                    seqs.truncate(len.div_ceil(2) as usize); // abandoned part-way
                }
                inbound.push((d, seqs));
            }
            let mut arriving = Vec::new();
            for _ in 0..rng.gen_index(4) {
                if recovery.is_some() && !sent.is_empty() && rng.gen_bool(0.1) {
                    // A late copy of something already delivered.
                    arriving.push(sent[rng.gen_index(sent.len())]);
                } else if !inbound.is_empty() {
                    let k = rng.gen_index(inbound.len());
                    let (d, seqs) = &mut inbound[k];
                    let mut flit = d.flit(seqs.pop().expect("non-empty"), now - now % 3);
                    (flit.hops, flit.deflections) =
                        (rng.gen_index(9) as u16, rng.gen_index(3) as u16);
                    if rng.gen_bool(0.03) {
                        flit.corrupt();
                    } else if !arriving.contains(&flit) {
                        sent.push(flit);
                    }
                    arriving.push(flit);
                    if seqs.is_empty() {
                        inbound.swap_remove(k);
                    }
                }
            }
            both!(pair, |ni, stats, _r| ni.receive_flits(
                arriving.iter().copied(),
                &packets,
                now,
                stats
            ));

            both!(pair, |ni, stats, router| {
                ni.check_timeouts(now, stats);
                router.accept = accept;
                ni.try_inject(router, now, stats);
            });

            // Everything observable agrees.
            let ((new, new_stats, new_router), (old, old_stats, old_router)) = &mut pair;
            assert_eq!(
                new_router.injected, old_router.injected,
                "seed {seed} cycle {now}"
            );
            assert!(
                bytes(|w| new.put(w), new_stats) == bytes(|w| old.save(w), old_stats),
                "snapshot or stats bytes differ: seed {seed} cycle {now}"
            );
            assert_eq!(
                (
                    new.pending_packets(),
                    new.pending_flits(),
                    new.pending_retransmits()
                ),
                (
                    old.pending_packets(),
                    old.pending_flits(),
                    old.pending_retransmits()
                )
            );
            assert_eq!(
                (
                    new.open_reassemblies(),
                    new.reassembly_high_water(),
                    new.outstanding_packets()
                ),
                (
                    old.open_reassemblies(),
                    old.reassembly_high_water(),
                    old.outstanding_packets()
                )
            );
            assert_eq!(new.is_idle(), old.is_idle());
            if rng.gen_bool(0.3) {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                new.drain_delivered_into(&mut a);
                old.drain_delivered_into(&mut b);
                assert_eq!(a, b, "seed {seed} cycle {now}");
                for p in &a {
                    assert_eq!(p.descriptor, offered[p.descriptor.id.0 as usize]);
                    packets.retire(p.descriptor.id);
                }
                assert_eq!(new.drain_corrupt().collect::<Vec<_>>(), old.take_corrupt());
                assert_eq!(new.drain_acks().collect::<Vec<_>>(), old.take_acks());
                let (mut a, mut b): (Vec<UnreachablePacket>, Vec<_>) = (Vec::new(), Vec::new());
                new.drain_unreachable_into(&mut a);
                old.drain_unreachable_into(&mut b);
                assert_eq!(a, b);
            }

            // Now and then: save, load each side from the other's bytes,
            // save again.
            if rng.gen_bool(0.01) {
                let (mut wa, mut wb) = (SnapshotWriter::new(), SnapshotWriter::new());
                new.put(&mut wa);
                old.save(&mut wb);
                let (from_new, from_old) = (wa.into_bytes(), wb.into_bytes());
                let mut r = SnapshotReader::new(&from_old);
                new.load(&mut r).unwrap();
                r.finish("ni").unwrap();
                let mut r = SnapshotReader::new(&from_new);
                old.load(&mut r).unwrap();
                r.finish("ni").unwrap();
                let (mut wa, mut wb) = (SnapshotWriter::new(), SnapshotWriter::new());
                new.put(&mut wa);
                old.save(&mut wb);
                assert!(wa.into_bytes() == from_new && wb.into_bytes() == from_new);
                restores += 1;
            }
        }
        let stats = &pair.0 .1;
        totals.packets_delivered += stats.packets_delivered;
        totals.duplicate_flits_discarded += stats.duplicate_flits_discarded;
        totals.retransmit_timeouts += stats.retransmit_timeouts;
        totals.reassemblies_expired += stats.reassemblies_expired;
        totals.packets_unreachable += stats.packets_unreachable;
        totals.flits_corrupted += stats.flits_corrupted;
    }
    // The scenario reached every path it is there for.
    assert!(totals.packets_delivered > 2_000, "{totals:?}");
    assert!(totals.duplicate_flits_discarded > 50 && totals.flits_corrupted > 20);
    assert!(totals.retransmit_timeouts > 50 && totals.reassemblies_expired > 20);
    assert!(totals.packets_unreachable > 5 && wide > 20);
    assert!(restores > 100, "{restores} restores");
}
