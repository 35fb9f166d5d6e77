//! Packet descriptors: what traffic models inject and receive, and the
//! network's table of what only a packet's destination reads.

use crate::flit::{Cycle, Flit, PacketId, VirtualNetwork};
use crate::geom::NodeId;
use crate::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::VecDeque;

pub use crate::flit::PacketKind;

/// A packet as seen by traffic models and network interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketDescriptor {
    /// Unique id (assigned by the network at enqueue time).
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Virtual network to travel on.
    pub vnet: VirtualNetwork,
    /// Length in flits (>= 1).
    pub len: u16,
    /// Cycle the packet was enqueued for injection.
    pub created_at: Cycle,
    /// Semantic class.
    pub kind: PacketKind,
    /// Opaque traffic-model correlation tag (e.g. transaction id).
    pub tag: u64,
}

impl PacketDescriptor {
    /// Materializes flit `seq` of this packet, stamped with the cycle it
    /// enters the network.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= self.len`.
    #[inline]
    pub fn flit(&self, seq: u16, injected_at: Cycle) -> Flit {
        assert!(
            seq < self.len,
            "flit seq {seq} out of range 0..{}",
            self.len
        );
        Flit {
            packet: self.id,
            seq,
            len: self.len,
            src: self.src,
            dest: self.dest,
            vnet: self.vnet,
            vc: None,
            injected_at,
            hops: 0,
            deflections: 0,
            corrupted: false,
        }
    }

    /// What the packet table keeps of this packet.
    pub(crate) fn meta(&self) -> PacketMeta {
        PacketMeta {
            created_at: self.created_at,
            tag: self.tag,
            kind: self.kind,
        }
    }

    /// The descriptor of the packet `flit` belongs to: its identity from the
    /// flit, its end-to-end data from `meta`.
    pub(crate) fn of(flit: &Flit, meta: PacketMeta) -> PacketDescriptor {
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
}

/// The end-to-end data of one packet that no router reads: its destination
/// NI reads it once, when the packet's first flit arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketMeta {
    /// Cycle the packet was enqueued for injection.
    pub created_at: Cycle,
    /// Opaque traffic-model correlation tag.
    pub tag: u64,
    /// Semantic class.
    pub kind: PacketKind,
}

/// The [`PacketMeta`] of every packet offered to a network and not yet
/// delivered, owned by the network.
///
/// Packet ids are dense, so the table is a window over the ids
/// `base..end`: `push` appends the next id, a delivered
/// packet's entry is retired in place, and the window's front advances past
/// retired entries. A packet whose source gave up may never be delivered,
/// which would pin the front forever, so `orphan` moves its
/// entry to a side list sorted by id; it is still retired if a copy still
/// in flight is delivered after all.
///
/// Only the serial part of a cycle writes the table; the cycle's phases read
/// it through their frame.
#[derive(Debug, Default)]
pub struct PacketTable {
    /// Id of the window's first entry.
    base: u64,
    /// Entries for ids `base..base + window.len()`; `None` is retired or
    /// orphaned. The front entry, if any, is live.
    window: VecDeque<Option<PacketMeta>>,
    /// Entries of packets given up on by their source, sorted by id.
    orphans: Vec<(PacketId, PacketMeta)>,
}

impl PacketTable {
    /// Appends the entry of the next packet and returns its id.
    pub(crate) fn push(&mut self, meta: PacketMeta) -> PacketId {
        let id = PacketId(self.end());
        self.window.push_back(Some(meta));
        id
    }

    /// Exclusive end of the window: the next id `push` takes.
    pub fn end(&self) -> u64 {
        self.base + self.window.len() as u64
    }

    /// First id of the window: every packet below it was retired or
    /// orphaned.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Ids in the window, live or not (`end - base`).
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Live entries: undelivered packets, orphans included.
    pub fn live(&self) -> usize {
        self.window.iter().flatten().count() + self.orphans.len()
    }

    /// Entries of packets given up on by their source, still undelivered.
    pub fn orphans(&self) -> usize {
        self.orphans.len()
    }

    /// The entry of packet `id`, if it is live.
    #[inline]
    pub fn get(&self, id: PacketId) -> Option<&PacketMeta> {
        match self.window_index(id).and_then(|k| self.window[k].as_ref()) {
            Some(meta) => Some(meta),
            None => self.orphan_at(id).ok().map(|at| &self.orphans[at].1),
        }
    }

    fn orphan_at(&self, id: PacketId) -> Result<usize, usize> {
        self.orphans.binary_search_by_key(&id, |&(id, _)| id)
    }

    /// The window index of `id`, if `id` is in the window.
    #[inline]
    fn window_index(&self, id: PacketId) -> Option<usize> {
        let k = id.0.checked_sub(self.base)?;
        (k < self.window.len() as u64).then_some(k as usize)
    }

    /// Advances the window's front past retired entries.
    fn settle(&mut self) {
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.base += 1;
        }
    }

    /// Retires the entry of delivered packet `id` (a no-op if it is not
    /// live).
    pub(crate) fn retire(&mut self, id: PacketId) {
        match self.window_index(id) {
            Some(k) if self.window[k].is_some() => {
                self.window[k] = None;
                self.settle();
            }
            _ => {
                if let Ok(at) = self.orphan_at(id) {
                    self.orphans.remove(at);
                }
            }
        }
    }

    /// Moves the entry of packet `id`, given up on by its source, out of the
    /// window so it does not pin the front (a no-op if it is not in the
    /// window).
    pub(crate) fn orphan(&mut self, id: PacketId) {
        let Some(k) = self.window_index(id) else {
            return;
        };
        if let Some(meta) = self.window[k].take() {
            let at = self.orphan_at(id).unwrap_err();
            self.orphans.insert(at, (id, meta));
            self.settle();
        }
    }

    /// Empties the table, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.base = 0;
        self.window.clear();
        self.orphans.clear();
    }

    /// Heap bytes held by the table.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.window.capacity() * size_of::<Option<PacketMeta>>()
            + self.orphans.capacity() * size_of::<(PacketId, PacketMeta)>()
    }
}

/// `base`, the window's entries (`None` for a retired one), then the
/// orphans in id order. Loading refuses a window whose front is retired,
/// and orphans out of order, repeated, at or past the window's end, or
/// shadowing a live window entry.
impl Codec for PacketTable {
    fn put(&self, w: &mut SnapshotWriter) {
        self.base.put(w);
        self.window.put(w);
        self.orphans.put(w);
    }

    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.base.load(r)?;
        self.window.load(r)?;
        self.orphans.load(r)?;
        let malformed = |what| Err(SnapshotError::Malformed { what });
        if self.base.checked_add(self.window.len() as u64).is_none() {
            return malformed("packet table window");
        }
        if let Some(None) = self.window.front() {
            return malformed("packet table front");
        }
        if !self.orphans.is_sorted_by(|a, b| a.0 < b.0) {
            return malformed("packet table orphan order");
        }
        for &(id, _) in &self.orphans {
            let shadows = self
                .window_index(id)
                .is_some_and(|k| self.window[k].is_some());
            if id.0 >= self.end() || shadows {
                return malformed("packet table orphan");
            }
        }
        Ok(())
    }
}

/// A packet request handed to the network for injection; the network assigns
/// the id and creation timestamp, producing a [`PacketDescriptor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketInput {
    /// Destination node.
    pub dest: NodeId,
    /// Virtual network.
    pub vnet: VirtualNetwork,
    /// Length in flits (>= 1).
    pub len: u16,
    /// Semantic class.
    pub kind: PacketKind,
    /// Opaque traffic-model tag.
    pub tag: u64,
}

/// A fully reassembled packet together with its delivery timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveredPacket {
    /// The packet.
    pub descriptor: PacketDescriptor,
    /// Cycle the first flit entered the network.
    pub injected_at: Cycle,
    /// Cycle the final flit was delivered.
    pub delivered_at: Cycle,
    /// Total hops summed over the packet's flits.
    pub total_hops: u32,
    /// Total deflections summed over the packet's flits.
    pub total_deflections: u32,
}

impl DeliveredPacket {
    /// Network latency: first flit injection to last flit delivery.
    pub fn network_latency(&self) -> Cycle {
        self.delivered_at.saturating_sub(self.injected_at)
    }

    /// Total latency including source queueing delay.
    pub fn total_latency(&self) -> Cycle {
        self.delivered_at.saturating_sub(self.descriptor.created_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor() -> PacketDescriptor {
        PacketDescriptor {
            id: PacketId(3),
            src: NodeId::new(0),
            dest: NodeId::new(5),
            vnet: VirtualNetwork(2),
            len: 4,
            created_at: 10,
            kind: PacketKind::Response,
            tag: 99,
        }
    }

    #[test]
    fn flit_materialization_carries_metadata() {
        let d = descriptor();
        let f = d.flit(2, 15);
        assert_eq!(f.packet, d.id);
        assert_eq!(f.seq, 2);
        assert_eq!(f.len, 4);
        assert_eq!(f.dest, d.dest);
        assert_eq!(f.injected_at, 15);
        assert!(!f.is_corrupt());
        // The flit and the packet's table entry give back the descriptor.
        assert_eq!(PacketDescriptor::of(&f, d.meta()), d);
    }

    #[test]
    fn descriptors_are_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<PacketDescriptor>(), 32);
        assert_eq!(std::mem::size_of::<Option<PacketMeta>>(), 24);
    }

    fn meta(id: u64) -> PacketMeta {
        PacketMeta {
            created_at: id * 10,
            tag: id ^ 0xF00,
            kind: PacketKind::Writeback,
        }
    }

    fn table_bytes(t: &PacketTable) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        t.put(&mut w);
        w.into_bytes()
    }

    #[test]
    fn the_table_window_advances_past_retired_and_orphaned_entries() {
        let mut t = PacketTable::default();
        for id in 0..6 {
            assert_eq!(t.push(meta(id)), PacketId(id));
        }
        assert_eq!((t.base(), t.end(), t.live()), (0, 6, 6));
        // Out-of-order delivery: the front stays until packet 0 retires.
        t.retire(PacketId(2));
        t.retire(PacketId(1));
        assert_eq!((t.base(), t.get(PacketId(2))), (0, None));
        t.retire(PacketId(0));
        assert_eq!((t.base(), t.window_len()), (3, 3));
        // A packet whose source gave up leaves the window but stays live.
        t.orphan(PacketId(3));
        assert_eq!((t.base(), t.orphans()), (4, 1));
        assert_eq!(t.get(PacketId(3)), Some(&meta(3)));
        t.orphan(PacketId(5));
        assert_eq!((t.base(), t.get(PacketId(5))), (4, Some(&meta(5))));
        // Orphaning or retiring what is not live changes nothing.
        let before = table_bytes(&t);
        t.orphan(PacketId(1));
        t.orphan(PacketId(3));
        t.retire(PacketId(0));
        t.retire(PacketId(99));
        assert_eq!(table_bytes(&t), before);
        // A late delivery of an orphan retires it.
        t.retire(PacketId(5));
        t.retire(PacketId(4));
        assert_eq!((t.base(), t.window_len(), t.orphans()), (6, 0, 1));
        t.retire(PacketId(3));
        assert_eq!((t.live(), t.get(PacketId(3))), (0, None));
        assert_eq!(t.push(meta(6)), PacketId(6));
        assert_eq!(t.get(PacketId(6)), Some(&meta(6)));
    }

    #[test]
    fn the_table_round_trips_and_refuses_malformed_windows() {
        let mut t = PacketTable::default();
        for id in 0..5 {
            assert_eq!(t.push(meta(id)), PacketId(id));
        }
        t.retire(PacketId(0));
        t.retire(PacketId(2));
        t.orphan(PacketId(3));
        let bytes = table_bytes(&t);
        let mut back = PacketTable::default();
        back.push(meta(0)); // load overwrites
        back.load(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(table_bytes(&back), bytes);
        assert_eq!((back.base(), back.end(), back.live()), (1, 5, 3));

        let write = |base: u64, window: &[Option<PacketMeta>], orphans: &[(u64, PacketMeta)]| {
            let mut w = SnapshotWriter::new();
            base.put(&mut w);
            window.to_vec().put(&mut w);
            let orphans: Vec<_> = orphans.iter().map(|&(id, m)| (PacketId(id), m)).collect();
            orphans.put(&mut w);
            w.into_bytes()
        };
        let refused = [
            write(4, &[None, Some(meta(5))], &[]),
            write(u64::MAX, &[Some(meta(0)), Some(meta(1))], &[]),
            write(0, &[Some(meta(0))], &[(0, meta(0))]),
            write(0, &[Some(meta(0))], &[(1, meta(1))]),
            write(
                0,
                &[Some(meta(0)), None, None],
                &[(2, meta(2)), (1, meta(1))],
            ),
            write(0, &[Some(meta(0)), None], &[(1, meta(1)), (1, meta(1))]),
        ];
        for bytes in refused {
            let err = PacketTable::default()
                .load(&mut SnapshotReader::new(&bytes))
                .unwrap_err();
            assert!(matches!(err, SnapshotError::Malformed { .. }), "{err:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flit_seq_bounds_checked() {
        descriptor().flit(4, 0);
    }

    #[test]
    fn delivered_latencies() {
        let d = DeliveredPacket {
            descriptor: descriptor(),
            injected_at: 12,
            delivered_at: 30,
            total_hops: 9,
            total_deflections: 1,
        };
        assert_eq!(d.network_latency(), 18);
        assert_eq!(d.total_latency(), 20);
    }
}
