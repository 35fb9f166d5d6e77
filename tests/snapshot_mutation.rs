//! Mutation walls for saved state: a snapshot or checkpoint whose bytes
//! were changed is answered with a structured error — or, where the
//! change still decodes to a possible state, restored — never with a
//! panic or an abort.
//!
//! * Every third payload byte of a 4×4 snapshot with flits in flight, for
//!   the backpressured, deflection, drop and AFC routers, is changed and
//!   the container re-sealed (so the checksum no longer guards it).
//!   Restoring into a fresh simulation returns `Ok` or a `SnapshotError`;
//!   an `Ok` simulation snapshots again.
//! * A buffered AFC flit whose destination is outside the mesh is
//!   `Malformed`, refused while decoding the node id.
//! * A packet table whose window stops short of the next packet id, or
//!   that lost the entry of a packet still in the network, is `Malformed`
//!   at restore — never a panic when that packet reaches its destination.
//! * A buffered flit naming a packet with no live entry restores only as
//!   a late copy: an id the table issued, headed for an NI that runs
//!   recovery (which discards it on arrival). At an NI without recovery,
//!   or with an id the table never issued, it is `Malformed`.
//! * A router whose idle-cycle accounting runs ahead of the restored clock
//!   is `Malformed`; an edit that stays in range restores, and the
//!   restored network steps and reads its counters without a panic.
//! * Every single-byte flip and every truncation of a run checkpoint file
//!   is `RunError::Snapshot`, naming the file.

use std::panic::{catch_unwind, AssertUnwindSafe};

use afc_netsim::packet::PacketInput;
use afc_netsim::snapshot::{fnv1a64, FORMAT_VERSION, MAGIC};
use afc_noc::prelude::*;

const SEED: u64 = 0x3D17;

/// Payload bytes between two mutated ones (every byte costs ~8 s in the
/// dev profile across the four mechanisms).
const STRIDE: usize = 3;

fn mesh4() -> NetworkConfig {
    NetworkConfig {
        width: 4,
        height: 4,
        ..NetworkConfig::paper_3x3()
    }
}

fn traffic(rate: f64) -> OpenLoopTraffic {
    OpenLoopTraffic::new(
        RateSpec::Uniform(rate),
        Pattern::UniformRandom,
        PacketMix::paper(),
        SEED,
    )
}

fn sim(factory: &dyn RouterFactory, rate: f64) -> Simulation<OpenLoopTraffic> {
    let network = Network::new(mesh4(), factory, SEED).expect("valid config");
    Simulation::new(network, traffic(rate))
}

/// The sealed container around `payload`, as `seal` would write it.
fn reseal(payload: &[u8]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// The payload of a sealed container.
fn payload(sealed: &[u8]) -> &[u8] {
    &sealed[20..sealed.len() - 8]
}

#[test]
fn every_mutated_payload_byte_restores_or_is_refused() {
    let mechanisms: [(&str, Box<dyn RouterFactory>); 4] = [
        ("backpressured", Box::new(BackpressuredFactory::new())),
        ("deflection", Box::new(DeflectionFactory::new())),
        ("drop", Box::new(DropFactory::new())),
        ("afc", Box::new(AfcFactory::paper())),
    ];
    let mut panicked = Vec::new();
    for (name, factory) in &mechanisms {
        let factory = factory.as_ref();
        let mut live = sim(factory, 0.3);
        live.run(120);
        assert!(
            live.network.flits_in_network() > 0,
            "{name}: nothing in flight"
        );
        let sealed = live.snapshot().expect("snapshot");
        assert_eq!(reseal(payload(&sealed)), sealed);
        let (mut accepted, mut refused) = (0, 0);
        for at in (0..payload(&sealed).len()).step_by(STRIDE) {
            // Alternately every bit of a byte, and its value plus one (a
            // count or cursor one past its bound).
            let mut bytes = payload(&sealed).to_vec();
            bytes[at] = match at / STRIDE % 2 {
                0 => !bytes[at],
                _ => bytes[at].wrapping_add(1),
            };
            let mutant = reseal(&bytes);
            let mut target = sim(factory, 0.3);
            let restored = catch_unwind(AssertUnwindSafe(|| {
                let ok = target.restore(&mutant, "mutant").is_ok();
                if ok {
                    target.snapshot().expect("a restored simulation snapshots");
                }
                ok
            }));
            match restored {
                Ok(true) => accepted += 1,
                Ok(false) => refused += 1,
                Err(_) => panicked.push(format!("{name} byte {at}")),
            }
        }
        eprintln!("{name}: {accepted} mutants restored, {refused} refused");
        assert!(refused > 0 && accepted > 0, "{name}: a vacuous wall");
    }
    assert!(panicked.is_empty(), "panicked: {panicked:?}");
}

/// Offsets of `needle` in `hay`.
fn find_all(hay: &[u8], needle: &[u8]) -> Vec<usize> {
    (0..=hay.len().saturating_sub(needle.len()))
        .filter(|&i| hay[i..].starts_with(needle))
        .collect()
}

/// A mid-run snapshot of a 4×4 backpressured network and where its packet
/// table sits in the payload: the offset of the window's entries, and each
/// entry's `(offset, encoded length)`.
fn table_layout() -> (Vec<u8>, Vec<(usize, usize)>, usize) {
    let mut live = sim(&BackpressuredFactory::new(), 0.3);
    live.run(150);
    let table = live.network.packet_table();
    assert!(table.window_len() > 2, "a window to mutate");
    // `next_packet_id`, then the table: `base` and the window's length.
    let mut head = table.end().to_le_bytes().to_vec();
    head.extend_from_slice(&table.base().to_le_bytes());
    head.extend_from_slice(&(table.window_len() as u64).to_le_bytes());
    let sealed = live.snapshot().expect("snapshot");
    let bytes = payload(&sealed).to_vec();
    let at = find_all(&bytes, &head);
    assert_eq!(at.len(), 1, "the table header is in the payload once");
    let len_at = at[0] + 16;
    // An entry is a presence byte, then creation cycle, tag and kind.
    let mut entries = Vec::new();
    let mut pos = len_at + 8;
    for _ in 0..table.window_len() {
        let size = if bytes[pos] == 1 { 18 } else { 1 };
        entries.push((pos, size));
        pos += size;
    }
    (bytes, entries, len_at)
}

fn restore_mutant(bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut fresh = sim(&BackpressuredFactory::new(), 0.3);
    fresh.restore(&reseal(bytes), "mutant")
}

#[test]
fn a_truncated_packet_table_window_is_malformed() {
    let (bytes, entries, len_at) = table_layout();
    assert!(restore_mutant(&bytes).is_ok());
    // Drop the window's last entry: it now ends one short of the next id.
    let (last, size) = *entries.last().unwrap();
    let mut cut = bytes[..last].to_vec();
    cut.extend_from_slice(&bytes[last + size..]);
    let len = entries.len() as u64 - 1;
    cut[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    match restore_mutant(&cut) {
        Err(SnapshotError::Malformed { what }) => assert_eq!(what, "packet table window"),
        other => panic!("expected a malformed window, got {other:?}"),
    }
}

#[test]
fn a_packet_missing_from_the_table_is_malformed() {
    // Retire the entry of a packet still queued, injecting or in flight
    // (nothing is delivered untaken and no fault loses a flit here).
    let (bytes, entries, _) = table_layout();
    let &(at, size) = entries[1..]
        .iter()
        .find(|&&(_, size)| size == 18)
        .expect("a live entry behind the front");
    let mut cut = bytes[..at].to_vec();
    cut.push(0);
    cut.extend_from_slice(&bytes[at + size..]);
    match restore_mutant(&cut) {
        Err(SnapshotError::Malformed { what }) => {
            assert_eq!(what, "packet without a table entry")
        }
        other => panic!("expected a missing table entry, got {other:?}"),
    }
}

/// A 4×4 network built by `factory` from `cfg` in which packet 0 was
/// delivered and taken, so its entry is retired, and a one-flit packet to
/// node 3 waits in a router buffer: the snapshot payload, and the offset
/// in it of that flit's record — its packet id, seq, len, source, then
/// its destination at offset 20.
fn buffered_flit(cfg: NetworkConfig, factory: &dyn RouterFactory) -> (Vec<u8>, usize) {
    let network = Network::new(cfg, factory, SEED).expect("valid config");
    let mut live = Simulation::new(network, traffic(0.0));
    let dest = NodeId::new(3);
    let input = PacketInput {
        dest,
        vnet: VirtualNetwork(0),
        len: 1,
        kind: PacketKind::Synthetic,
        tag: 0,
    };
    let first = live.network.offer_packet(NodeId::new(0), input);
    live.run(30);
    assert!(
        live.network.packet_table().get(first).is_none(),
        "delivered and taken"
    );
    // Nodes 0 and 1 both send to node 3, so they contend for router 1's
    // east port.
    let mut sent = Vec::new();
    for _ in 0..8 {
        for src in [NodeId::new(0), NodeId::new(1)] {
            sent.push((live.network.offer_packet(src, input), src));
        }
    }
    let holder = (0..40)
        .find_map(|_| {
            live.step();
            (0..16)
                .map(NodeId::new)
                .find(|&n| live.network.router(n).occupancy() > 0)
        })
        .expect("a flit waits in a buffer");
    let mut w = SnapshotWriter::new();
    live.network.router(holder).save_state(&mut w).unwrap();
    let router = w.into_bytes();
    let head = |(id, src): &(PacketId, NodeId)| {
        let mut head = id.0.to_le_bytes().to_vec();
        head.extend_from_slice(&[0, 0, 1, 0]);
        head.extend_from_slice(&(src.index() as u64).to_le_bytes());
        head.extend_from_slice(&(dest.index() as u64).to_le_bytes());
        head
    };
    let in_router = (sent.iter().map(head))
        .find_map(|head| find_all(&router, &head).first().copied())
        .expect("the buffered flit is one of those sent");
    let sealed = live.snapshot().expect("snapshot");
    let bytes = payload(&sealed).to_vec();
    let base = find_all(&bytes, &router);
    assert_eq!(base.len(), 1, "the router's state is in the payload once");
    (bytes, base[0] + in_router)
}

#[test]
fn a_buffered_flit_bound_outside_the_mesh_is_malformed() {
    // Always-backpressured AFC buffers a flit that loses arbitration in a
    // lazy VC, whose route cache is recomputed from the flit's destination
    // on restore.
    let factory = AfcFactory::always_backpressured();
    let (mut bytes, at) = buffered_flit(mesh4(), &factory);
    bytes[at + 20..at + 28].copy_from_slice(&16u64.to_le_bytes());
    let mut fresh = sim(&factory, 0.0);
    match fresh.restore(&reseal(&bytes), "mutant") {
        Err(SnapshotError::Malformed { what }) => assert_eq!(what, "node id"),
        other => panic!("expected a malformed node id, got {other:?}"),
    }
}

/// Restores the snapshot of [`buffered_flit`] on a backpressured network
/// (with `retransmit`) after renaming the buffered flit's packet to `id`.
fn restore_renamed(retransmit: Option<RetransmitConfig>, id: u64) -> Result<(), SnapshotError> {
    let cfg = NetworkConfig {
        retransmit,
        ..mesh4()
    };
    let factory = BackpressuredFactory::new();
    let (mut bytes, at) = buffered_flit(cfg.clone(), &factory);
    bytes[at..at + 8].copy_from_slice(&id.to_le_bytes());
    let network = Network::new(cfg, &factory, SEED).expect("valid config");
    Simulation::new(network, traffic(0.0)).restore(&reseal(&bytes), "mutant")
}

#[test]
fn a_flit_without_a_live_entry_restores_only_as_a_late_copy() {
    let recovery = Some(RetransmitConfig {
        timeout: 300,
        backoff_cap: 2,
        max_attempts: 0,
    });
    // `buffered_flit` issues packet 0, then eight from each of two nodes.
    let end = 17;
    // The flit renamed to retired packet 0: a late copy where the
    // destination runs recovery, an impossible state where it does not.
    assert_eq!(restore_renamed(recovery, 0), Ok(()));
    match restore_renamed(None, 0) {
        Err(SnapshotError::Malformed { what }) => {
            assert_eq!(what, "packet without a table entry")
        }
        other => panic!("expected a missing table entry, got {other:?}"),
    }
    // Renamed to an id the table never issued: refused even under recovery.
    for id in [end, end + 5, u64::MAX] {
        match restore_renamed(recovery, id) {
            Err(SnapshotError::Malformed { what }) => {
                assert_eq!(what, "packet without a table entry", "id {id}")
            }
            other => panic!("id {id}: expected a missing table entry, got {other:?}"),
        }
    }
}

#[test]
fn router_accounting_ahead_of_the_clock_is_malformed() {
    // A 4×4 backpressured network at 0.05, seed 7, after 200 cycles; the
    // last router's `accounted_upto` is the last word of its payload.
    let (factory, seed) = (BackpressuredFactory::new(), 7);
    let network = Network::new(mesh4(), &factory, seed).expect("valid config");
    let traffic = OpenLoopTraffic::new(
        RateSpec::Uniform(0.05),
        Pattern::UniformRandom,
        PacketMix::paper(),
        seed,
    );
    let mut live = Simulation::new(network, traffic);
    live.run(200);
    let now = live.network.now();
    let mut w = SnapshotWriter::new();
    live.network.save_state(&mut w).expect("save");
    let bytes = w.into_bytes();
    let at = bytes.len() - 8;
    let word = |b: &[u8]| u64::from_le_bytes(b[at..].try_into().unwrap());
    assert!(word(&bytes) <= now, "the last word is an accounting cursor");
    let restore = |upto: u64| {
        let mut edited = bytes.clone();
        edited[at..].copy_from_slice(&upto.to_le_bytes());
        let mut net = Network::new(mesh4(), &factory, seed).expect("valid config");
        net.load_state(&mut SnapshotReader::new(&edited))
            .map(|()| net)
    };
    for ahead in [now + 1, now + 1_000] {
        match restore(ahead) {
            Err(SnapshotError::Malformed { what }) => {
                assert_eq!(what, "router accounting ahead of the clock")
            }
            other => panic!("accounted up to {ahead} at {now}: {other:?}"),
        }
    }
    let last = NodeId::new(15);
    for upto in [0, now] {
        let mut net = restore(upto).expect("an in-range cursor restores");
        net.router_counters(last);
        for _ in 0..100 {
            net.step();
        }
        net.total_counters();
        net.router_counters(last);
    }
}

#[test]
fn every_flipped_or_truncated_checkpoint_byte_is_refused_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("afc-ckpt-mutation-{}", std::process::id()));
    let path = dir.join("mutation.ckpt");
    let kind = RunKind::OpenLoop {
        rate: 0.05,
        pattern: Pattern::UniformRandom,
        mix: PacketMix::single_flit(),
        warmup_cycles: 40,
        measure_cycles: 60,
    };
    let cfg = NetworkConfig::paper_3x3();
    let factory = BackpressuredFactory::new();
    let resume = |file: Option<&std::path::Path>, from: Option<&std::path::Path>| {
        let checkpoint = CheckpointPolicy {
            every: 0,
            file,
            resume_from: from,
        };
        run(&kind, &factory, &cfg, SEED, checkpoint)
    };
    let clean = resume(Some(&path), None).expect("a checkpointed run");
    let saved = std::fs::read(&path).unwrap();
    let mutants = (0..saved.len())
        .map(|at| {
            let mut flipped = saved.clone();
            flipped[at] ^= 0x20;
            (flipped, format!("byte {at} flipped"))
        })
        .chain((0..saved.len()).map(|len| (saved[..len].to_vec(), format!("cut to {len}"))));
    for (bytes, what) in mutants {
        std::fs::write(&path, &bytes).unwrap();
        match resume(None, Some(&path)) {
            Err(RunError::Snapshot(e)) => {
                let msg = e.to_string();
                assert!(msg.contains("mutation.ckpt"), "{what}: {msg}");
            }
            Err(other) => panic!("{what}: not a snapshot error: {other}"),
            Ok(_) => panic!("{what}: accepted"),
        }
    }
    std::fs::write(&path, &saved).unwrap();
    let resumed = resume(None, Some(&path)).expect("the intact checkpoint resumes");
    assert_eq!(
        resumed.stats.packets_delivered,
        clean.stats.packets_delivered
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
