//! Versioned, checksummed binary snapshots of simulation state.
//!
//! This module is the substrate of the deterministic checkpoint/restore
//! subsystem. It provides:
//!
//! * [`SnapshotWriter`]/[`SnapshotReader`] — a hand-rolled little-endian
//!   binary encoder/decoder (no external serialization dependency),
//! * [`Codec`] — the one encoding of each piece of saved state: scalars,
//!   options, tuples, sequences and every simulator record implement it
//!   once, and a composite's `put`/`load` are its fields' in order. The
//!   reader range-checks what a payload cannot be trusted with: cursors
//!   and counts ([`SnapshotReader::get_index`]) and node ids, bounded by
//!   the node count the network sets before decoding its state,
//! * a sealed **container format** ([`seal`]/[`open`]): magic, format
//!   version, payload length, payload, and an FNV-1a-64 checksum over
//!   everything preceding it,
//! * crash-safe file I/O ([`write_file_atomic`]) that stages the bytes in a
//!   temp file, fsyncs, and renames into place so readers never observe a
//!   torn snapshot,
//! * checksum-verified loading ([`read_file`]) that refuses corrupt files
//!   with an error naming the offending path.
//!
//! ## Determinism contract
//!
//! Every byte written here is a pure function of simulation state: no
//! timestamps, no pointers, no hash-map iteration order (maps are serialized
//! in sorted key order by their owners). Restoring a snapshot into a freshly
//! constructed network therefore reproduces the original run bit-for-bit;
//! the round-trip property tests in `tests/snapshot_roundtrip.rs` pin this
//! for all four router mechanisms under both engine paths.
//!
//! ## Container layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"AFCSNAP\0"
//! 8       4     format version (u32 LE)
//! 12      8     payload length P (u64 LE)
//! 20      P     payload
//! 20+P    8     FNV-1a-64 checksum over bytes [0, 20+P) (u64 LE)
//! ```

use crate::faults::{FaultEvent, FaultEventKind};
use crate::flit::{Flit, PacketId, VcId, VirtualNetwork};
use crate::geom::{Direction, NodeId, PortMap};
use crate::ni::UnreachablePacket;
use crate::packet::{DeliveredPacket, PacketDescriptor, PacketInput, PacketKind, PacketMeta};
use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Leading magic bytes of every sealed snapshot container.
pub const MAGIC: [u8; 8] = *b"AFCSNAP\0";

/// Current snapshot format version. Bump on any layout change; [`open`]
/// refuses containers with a different version rather than guessing.
// v2: fault-tolerance state — ControlSignal::LinkFault channel entries,
// per-router fault-awareness blocks, NI bounded-retransmit config +
// unreachable outbox, network unreachable-packet log, and the new
// stats/counter fields (DESIGN.md §13).
// v3: repair-plane state — epoch-versioned fault facts (LinkFault gained an
// epoch + alive flag, ControlSignal::CreditResync), per-router credit
// re-sync handshake fields, AFC overflow scratch, bounded unreachable log,
// and the links_revived / unreachable_records_dropped stats (DESIGN.md §15).
// v4: link-wheel channel section — per link, what is on the wires in arrival
// order relative to `now`; no ring heads, no staged-delivery block
// (DESIGN.md §8).
// v5: the 32-byte flit — a flit record drops `created_at`, `kind`, `tag` and
// the checksum for a `corrupted` flag, and the network writes its packet
// table (window base, entries, orphans) after `next_packet_id`
// (DESIGN.md §16.7).
// v6: dedup from the packet table — an NI's recovery record drops the set
// of completed packets (a late copy is one whose packet has no live table
// entry, or waits untaken in the NI), and a fault-free backpressured router
// drops its per-lane route-owner column (DESIGN.md §6.2, §11).
pub const FORMAT_VERSION: u32 = 6;

/// Errors raised while encoding, sealing, opening, or decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The container does not start with the snapshot magic bytes.
    BadMagic {
        /// Origin of the bytes (file path, or `"<memory>"`).
        origin: String,
    },
    /// The container was written by an incompatible format version.
    BadVersion {
        /// Origin of the bytes (file path, or `"<memory>"`).
        origin: String,
        /// Version found in the container.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The stored checksum does not match the recomputed one — the file is
    /// corrupt (torn write, bit rot, or truncation past the length field).
    ChecksumMismatch {
        /// Origin of the bytes (file path, or `"<memory>"`); named so the
        /// user knows exactly which file to delete or regenerate.
        origin: String,
    },
    /// The byte stream ended before a read completed.
    Truncated {
        /// What was being decoded when the stream ran out.
        what: &'static str,
    },
    /// The snapshot was taken from a different simulation configuration
    /// (mechanism, topology, or seed) than the one it is being restored
    /// into.
    ContextMismatch {
        /// Which fingerprint field disagreed.
        what: &'static str,
        /// Value recorded in the snapshot.
        snapshot: String,
        /// Value of the simulation being restored into.
        current: String,
    },
    /// The component does not support state capture (e.g. a test-only
    /// router or traffic model that never implemented the hooks).
    Unsupported {
        /// Which component refused.
        what: &'static str,
    },
    /// Decoded data violated an internal invariant (valid checksum but
    /// nonsensical contents — e.g. an out-of-range enum tag).
    Malformed {
        /// Description of the violated invariant.
        what: &'static str,
    },
    /// An I/O error while reading or writing a snapshot file.
    Io {
        /// Path involved.
        path: String,
        /// Rendered OS error.
        message: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic { origin } => {
                write!(f, "{origin} is not a snapshot (bad magic)")
            }
            SnapshotError::BadVersion {
                origin,
                found,
                expected,
            } => write!(
                f,
                "{origin} uses snapshot format version {found} but this build expects {expected}"
            ),
            SnapshotError::ChecksumMismatch { origin } => {
                write!(f, "checksum mismatch in {origin}: file is corrupt, refusing to load")
            }
            SnapshotError::Truncated { what } => {
                write!(f, "snapshot truncated while decoding {what}")
            }
            SnapshotError::ContextMismatch {
                what,
                snapshot,
                current,
            } => write!(
                f,
                "snapshot {what} mismatch: snapshot has {snapshot}, current simulation has {current}"
            ),
            SnapshotError::Unsupported { what } => {
                write!(f, "{what} does not support snapshot/restore")
            }
            SnapshotError::Malformed { what } => {
                write!(f, "malformed snapshot payload: {what}")
            }
            SnapshotError::Io { path, message } => {
                write!(f, "snapshot i/o error on {path}: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash of `bytes` — the container checksum.
///
/// Chosen for simplicity and zero dependencies; this guards against torn
/// writes and accidental corruption, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only little-endian binary encoder.
///
/// All multi-byte integers are little-endian; floats are written as their
/// IEEE-754 bit patterns so the round trip is exact.
#[derive(Debug, Default, Clone)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter {
            buf: Vec::with_capacity(4096),
        }
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the raw (unsealed) payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u16` (LE).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` (LE).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` (LE).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` widened to `u64` (LE) for a platform-independent
    /// layout.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed raw byte blob (e.g. a nested sealed
    /// container, which is how checkpoint files embed a full simulation
    /// snapshot).
    pub fn put_blob(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }
}

/// Position-tracked little-endian binary decoder over a payload slice.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Exclusive bound of a decoded [`NodeId`].
    nodes: usize,
    /// `(packet, destination)` of every flit decoded since
    /// [`SnapshotReader::watch_flit_packets`], if watching.
    flit_packets: Option<Vec<(PacketId, NodeId)>>,
}

impl<'a> SnapshotReader<'a> {
    /// Creates a reader over raw payload bytes (already unsealed).
    pub fn new(buf: &'a [u8]) -> SnapshotReader<'a> {
        SnapshotReader {
            buf,
            pos: 0,
            nodes: NodeId::LIMIT,
            flit_packets: None,
        }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    pub fn get_bool(&mut self, what: &'static str) -> Result<bool, SnapshotError> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed { what }),
        }
    }

    /// Reads a `u16` (LE).
    pub fn get_u16(&mut self, what: &'static str) -> Result<u16, SnapshotError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32` (LE).
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` (LE).
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` stored as `u64`, rejecting values that do not fit.
    pub fn get_usize(&mut self, what: &'static str) -> Result<usize, SnapshotError> {
        let v = self.get_u64(what)?;
        usize::try_from(v).map_err(|_| SnapshotError::Malformed { what })
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self, what: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &'static str) -> Result<String, SnapshotError> {
        let len = self.get_u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Malformed { what })
    }

    /// Reads a length-prefixed raw byte blob written by
    /// [`SnapshotWriter::put_blob`].
    pub fn get_blob(&mut self, what: &'static str) -> Result<Vec<u8>, SnapshotError> {
        let len = self.get_u64(what)? as usize;
        Ok(self.take(len, what)?.to_vec())
    }

    /// Reads an index stored as a `usize`, refusing one at or beyond
    /// `bound` as [`SnapshotError::Malformed`] — the one range check every
    /// decoded cursor, count and node id goes through.
    pub fn get_index(&mut self, bound: usize, what: &'static str) -> Result<usize, SnapshotError> {
        let i = self.get_usize(what)?;
        if i < bound {
            Ok(i)
        } else {
            Err(SnapshotError::Malformed { what })
        }
    }

    /// Bounds every [`NodeId`] decoded from here on to `0..nodes` (the
    /// network sets its node count before decoding its own state).
    pub(crate) fn set_node_count(&mut self, nodes: usize) {
        self.nodes = nodes;
    }

    /// Starts noting the packet and destination of every decoded flit.
    pub(crate) fn watch_flit_packets(&mut self) {
        self.flit_packets = Some(Vec::new());
    }

    /// Stops watching and returns what was noted since
    /// [`SnapshotReader::watch_flit_packets`].
    pub(crate) fn take_flit_packets(&mut self) -> Vec<(PacketId, NodeId)> {
        self.flit_packets.take().unwrap_or_default()
    }

    /// Asserts that the payload was consumed exactly — catches layout skew
    /// between a writer and its reader.
    pub fn finish(self, what: &'static str) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Malformed { what })
        }
    }
}

/// Seals a payload into the on-disk container format: magic, version,
/// payload length, payload, FNV-1a-64 checksum.
pub fn seal(payload: SnapshotWriter) -> Vec<u8> {
    let payload = payload.into_bytes();
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Opens a sealed container, verifying magic, version, length, and
/// checksum. `origin` names the source (a file path, or `"<memory>"`) and
/// appears verbatim in every error so corrupt files are identifiable.
///
/// Returns a [`SnapshotReader`] positioned at the start of the payload.
pub fn open<'a>(bytes: &'a [u8], origin: &str) -> Result<SnapshotReader<'a>, SnapshotError> {
    let header = 8 + 4 + 8;
    if bytes.len() < header + 8 {
        return Err(SnapshotError::ChecksumMismatch {
            origin: origin.to_string(),
        });
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic {
            origin: origin.to_string(),
        });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(SnapshotError::BadVersion {
            origin: origin.to_string(),
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let plen = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]) as usize;
    if bytes.len() != header + plen + 8 {
        return Err(SnapshotError::ChecksumMismatch {
            origin: origin.to_string(),
        });
    }
    let body = &bytes[..header + plen];
    let stored = u64::from_le_bytes([
        bytes[header + plen],
        bytes[header + plen + 1],
        bytes[header + plen + 2],
        bytes[header + plen + 3],
        bytes[header + plen + 4],
        bytes[header + plen + 5],
        bytes[header + plen + 6],
        bytes[header + plen + 7],
    ]);
    if fnv1a64(body) != stored {
        return Err(SnapshotError::ChecksumMismatch {
            origin: origin.to_string(),
        });
    }
    Ok(SnapshotReader::new(&bytes[header..header + plen]))
}

/// Atomically writes `bytes` to `path`: stages into `<path>.tmp`, fsyncs,
/// then renames over the destination. A crash at any point leaves either
/// the old file or the new file, never a torn mixture.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let io_err = |e: std::io::Error, p: &Path| SnapshotError::Io {
        path: p.display().to_string(),
        message: e.to_string(),
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| io_err(e, parent))?;
        }
    }
    let tmp = path.with_extension(match path.extension() {
        Some(ext) => format!("{}.tmp", ext.to_string_lossy()),
        None => "tmp".to_string(),
    });
    let mut f = fs::File::create(&tmp).map_err(|e| io_err(e, &tmp))?;
    f.write_all(bytes).map_err(|e| io_err(e, &tmp))?;
    f.sync_all().map_err(|e| io_err(e, &tmp))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err(e, path))?;
    Ok(())
}

/// Reads a sealed snapshot file, verifying its container checksum.
///
/// Returns the raw container bytes on success; decode them with [`open`]
/// (which re-verifies cheaply). A corrupt file is refused with an error
/// naming `path`.
pub fn read_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    let bytes = fs::read(path).map_err(|e| SnapshotError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    open(&bytes, &path.display().to_string())?;
    Ok(bytes)
}

/// One piece of saved state, encoded once.
///
/// [`Codec::put`] writes the value; [`Codec::load`] reads what `put` wrote
/// back *into* an existing value, so a restore reuses the allocations the
/// target already owns (a `Vec` is cleared and refilled, an `Option`'s
/// payload is loaded in place). A composite is its fields' codecs in
/// order — there is no separate layout to keep in step.
///
/// Sequences (`Vec`, `VecDeque`) are a `u64` length, then the
/// items. A decoded length never sizes an allocation: items are pushed one
/// by one (growing the container exactly as the simulation would), and
/// every item takes at least one byte, so a length past the payload ends
/// in [`SnapshotError::Truncated`]. Slices and arrays are their items
/// alone: their length is the receiver's schema, not data. `Option<T>` is
/// a presence byte, then the value.
pub trait Codec {
    /// Appends the encoding of `self`.
    fn put(&self, w: &mut SnapshotWriter);

    /// Overwrites `self` with the value `put` encoded.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the bytes run out,
    /// [`SnapshotError::Malformed`] when they decode to an impossible value.
    /// `self` is then partially overwritten and must be discarded.
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;

    /// Decodes a fresh value.
    ///
    /// # Errors
    ///
    /// As [`Codec::load`].
    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>
    where
        Self: Default,
    {
        let mut value = Self::default();
        value.load(r)?;
        Ok(value)
    }
}

macro_rules! scalar_codec {
    ($($ty:ty => $put:ident, $get:ident;)*) => {$(
        impl Codec for $ty {
            fn put(&self, w: &mut SnapshotWriter) {
                w.$put(*self);
            }
            fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
                *self = r.$get(stringify!($ty))?;
                Ok(())
            }
        }
    )*};
}

scalar_codec! {
    u8 => put_u8, get_u8;
    bool => put_bool, get_bool;
    u16 => put_u16, get_u16;
    u32 => put_u32, get_u32;
    u64 => put_u64, get_u64;
    usize => put_usize, get_usize;
    f64 => put_f64, get_f64;
}

impl Codec for String {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put_str(self);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self = r.get_str("string")?;
        Ok(())
    }
}

impl<T: Codec + Default> Codec for Option<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        self.is_some().put(w);
        if let Some(value) = self {
            value.put(w);
        }
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        match r.get_bool("option presence")? {
            true => self.get_or_insert_with(T::default).load(r),
            false => {
                *self = None;
                Ok(())
            }
        }
    }
}

macro_rules! tuple_codec {
    ($($name:ident . $i:tt),+) => {
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn put(&self, w: &mut SnapshotWriter) {
                $(self.$i.put(w);)+
            }
            fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
                $(self.$i.load(r)?;)+
                Ok(())
            }
        }
    };
}

tuple_codec!(A.0, B.1);
tuple_codec!(A.0, B.1, C.2);
tuple_codec!(A.0, B.1, C.2, D.3);

impl<T: Codec> Codec for [T] {
    fn put(&self, w: &mut SnapshotWriter) {
        self.iter().for_each(|item| item.put(w));
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.iter_mut().try_for_each(|item| item.load(r))
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn put(&self, w: &mut SnapshotWriter) {
        self[..].put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self[..].load(r)
    }
}

impl<T: Codec + Default> Codec for Vec<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        self.len().put(w);
        self[..].put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_u64("sequence length")?;
        self.clear();
        for _ in 0..n {
            self.push(T::get(r)?);
        }
        Ok(())
    }
}

impl<T: Codec + Default> Codec for VecDeque<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        self.len().put(w);
        self.iter().for_each(|item| item.put(w));
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_u64("sequence length")?;
        self.clear();
        for _ in 0..n {
            self.push_back(T::get(r)?);
        }
        Ok(())
    }
}

/// Implements [`Codec`] for a struct as the listed fields, in order; a
/// trailing `valid "what": check` refuses a loaded value failing `check`.
macro_rules! record_codec {
    ($ty:ty { $($field:tt),+ $(,)? } $(valid $what:literal: $check:expr)?) => {
        impl $crate::snapshot::Codec for $ty {
            fn put(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                $($crate::snapshot::Codec::put(&self.$field, w);)+
            }
            fn load(
                &mut self,
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<(), $crate::snapshot::SnapshotError> {
                $($crate::snapshot::Codec::load(&mut self.$field, r)?;)+
                $(if !($check)(&*self) {
                    return Err($crate::snapshot::SnapshotError::Malformed { what: $what });
                })?
                Ok(())
            }
        }
    };
}
pub(crate) use record_codec;

/// A node id is its dense index, below the reader's node count.
impl Codec for NodeId {
    fn put(&self, w: &mut SnapshotWriter) {
        self.index().put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self = NodeId::new(r.get_index(r.nodes, "node id")?);
        Ok(())
    }
}

impl Codec for Direction {
    fn put(&self, w: &mut SnapshotWriter) {
        (self.index() as u8).put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let i = r.get_u8("direction")?;
        *self = Direction::from_index(i as usize)
            .ok_or(SnapshotError::Malformed { what: "direction" })?;
        Ok(())
    }
}

/// A port map is its values in [`PortId::ALL`](crate::geom::PortId::ALL) order.
impl<T: Codec> Codec for PortMap<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        self.iter().for_each(|(_, v)| v.put(w));
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.iter_mut().try_for_each(|(_, v)| v.load(r))
    }
}

record_codec!(PacketId { 0 });
record_codec!(VcId { 0 });
record_codec!(VirtualNetwork { 0 });

impl Codec for PacketKind {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put_u8(match self {
            PacketKind::Request => 0,
            PacketKind::Response => 1,
            PacketKind::Writeback => 2,
            PacketKind::Synthetic => 3,
        });
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self = match r.get_u8("packet kind tag")? {
            0 => PacketKind::Request,
            1 => PacketKind::Response,
            2 => PacketKind::Writeback,
            3 => PacketKind::Synthetic,
            _ => {
                return Err(SnapshotError::Malformed {
                    what: "packet kind tag",
                })
            }
        };
        Ok(())
    }
}

/// A flit record leads with its packet, sequence number, length, source
/// and destination. While a network restores its state, the reader notes
/// every decoded flit's packet and destination, so the network can refuse
/// a flit of a packet its table no longer holds.
impl Codec for Flit {
    fn put(&self, w: &mut SnapshotWriter) {
        (self.packet, self.seq, self.len, self.src).put(w);
        (self.dest, self.vnet, self.vc).put(w);
        (
            self.injected_at,
            self.hops,
            self.deflections,
            self.corrupted,
        )
            .put(w);
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        (self.packet, self.seq, self.len, self.src) = Codec::get(r)?;
        (self.dest, self.vnet, self.vc) = Codec::get(r)?;
        (
            self.injected_at,
            self.hops,
            self.deflections,
            self.corrupted,
        ) = Codec::get(r)?;
        if let Some(refs) = &mut r.flit_packets {
            refs.push((self.packet, self.dest));
        }
        Ok(())
    }
}
record_codec!(PacketMeta {
    created_at,
    tag,
    kind
});
record_codec!(PacketDescriptor {
    id,
    src,
    dest,
    vnet,
    len,
    created_at,
    kind,
    tag,
});
record_codec!(PacketInput {
    dest,
    vnet,
    len,
    kind,
    tag
});
record_codec!(DeliveredPacket {
    descriptor,
    injected_at,
    delivered_at,
    total_hops,
    total_deflections,
});
record_codec!(UnreachablePacket {
    id,
    src,
    dest,
    attempts,
    gave_up_at,
});
record_codec!(FaultEvent {
    cycle,
    from,
    dir,
    kind
});

impl Codec for FaultEventKind {
    fn put(&self, w: &mut SnapshotWriter) {
        match *self {
            FaultEventKind::FlitDropped { packet, seq } => (0u8, packet, seq).put(w),
            FaultEventKind::FlitCorrupted { packet, seq } => (1u8, packet, seq).put(w),
            FaultEventKind::CreditLost => 2u8.put(w),
        }
    }
    fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self = match r.get_u8("fault event kind")? {
            tag @ (0 | 1) => {
                let (packet, seq) = Codec::get(r)?;
                match tag {
                    0 => FaultEventKind::FlitDropped { packet, seq },
                    _ => FaultEventKind::FlitCorrupted { packet, seq },
                }
            }
            2 => FaultEventKind::CreditLost,
            _ => {
                return Err(SnapshotError::Malformed {
                    what: "fault event kind",
                })
            }
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_usize(12345);
        w.put_f64(-0.125);
        w.put_str("afc");
        Some(42u64).put(&mut w);
        None::<u64>.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.get_u8("t").unwrap(), 7);
        assert!(r.get_bool("t").unwrap());
        assert_eq!(r.get_u16("t").unwrap(), 0xBEEF);
        assert_eq!(r.get_u32("t").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("t").unwrap(), u64::MAX - 3);
        assert_eq!(r.get_usize("t").unwrap(), 12345);
        assert_eq!(r.get_f64("t").unwrap(), -0.125);
        assert_eq!(r.get_str("t").unwrap(), "afc");
        assert_eq!(Option::<u64>::get(&mut r).unwrap(), Some(42));
        assert_eq!(Option::<u64>::get(&mut r).unwrap(), None);
        r.finish("t").unwrap();
    }

    #[test]
    fn truncated_reads_error() {
        let mut w = SnapshotWriter::new();
        w.put_u16(9);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            r.get_u64("field"),
            Err(SnapshotError::Truncated { what: "field" })
        ));
    }

    #[test]
    fn finish_rejects_leftover_bytes() {
        let mut w = SnapshotWriter::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let r = SnapshotReader::new(&bytes);
        assert!(matches!(
            r.finish("payload"),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn seal_open_round_trip() {
        let mut w = SnapshotWriter::new();
        w.put_str("payload");
        w.put_u64(99);
        let sealed = seal(w);
        let mut r = open(&sealed, "<memory>").unwrap();
        assert_eq!(r.get_str("s").unwrap(), "payload");
        assert_eq!(r.get_u64("v").unwrap(), 99);
        r.finish("container").unwrap();
    }

    #[test]
    fn open_rejects_flipped_bit_naming_origin() {
        let mut w = SnapshotWriter::new();
        w.put_u64(0x1234_5678);
        let mut sealed = seal(w);
        let mid = sealed.len() / 2;
        sealed[mid] ^= 0x01;
        let err = open(&sealed, "results/run.snap").unwrap_err();
        match &err {
            SnapshotError::ChecksumMismatch { origin } => {
                assert_eq!(origin, "results/run.snap");
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("results/run.snap"));
    }

    #[test]
    fn open_rejects_wrong_magic_and_version() {
        let sealed = seal(SnapshotWriter::new());
        let mut bad_magic = sealed.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            open(&bad_magic, "f"),
            Err(SnapshotError::BadMagic { .. })
        ));
        let mut bad_version = sealed.clone();
        bad_version[8] = 0xFF;
        // Checksum covers the version field, so recompute it to isolate the
        // version check.
        let body_len = bad_version.len() - 8;
        let sum = fnv1a64(&bad_version[..body_len]);
        bad_version[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            open(&bad_version, "f"),
            Err(SnapshotError::BadVersion { .. })
        ));
    }

    #[test]
    fn open_refuses_previous_format_version() {
        // A v5 container must be refused outright, not half-decoded: its NI
        // recovery records carry a completed-packet set that v6 derives
        // from the packet table, and its fault-free backpressured routers
        // a route-owner column v6 does not keep.
        assert_eq!(FORMAT_VERSION, 6);
        let mut old = seal(SnapshotWriter::new());
        old[8..12].copy_from_slice(&5u32.to_le_bytes());
        let body_len = old.len() - 8;
        let sum = fnv1a64(&old[..body_len]);
        old[body_len..].copy_from_slice(&sum.to_le_bytes());
        match open(&old, "old.snap") {
            Err(SnapshotError::BadVersion {
                found, expected, ..
            }) => {
                assert_eq!(found, 5);
                assert_eq!(expected, 6);
            }
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn flit_records_carry_the_corruption_flag_last() {
        let mut f = Flit::test_flit(PacketId(3), NodeId::new(1), NodeId::new(2));
        let encode = |f: &Flit| {
            let mut w = SnapshotWriter::new();
            f.put(&mut w);
            w.into_bytes()
        };
        let clean = encode(&f);
        // packet 8, seq 2, len 2, src 8, dest 8, vnet 1, vc 1 (absent),
        // injected_at 8, hops 2, deflections 2, corrupted 1.
        assert_eq!(clean.len(), 43);
        f.corrupt();
        let corrupt = encode(&f);
        assert_eq!(clean[..42], corrupt[..42]);
        assert_eq!((clean[42], corrupt[42]), (0, 1));
        let mut bad = corrupt.clone();
        bad[42] = 2;
        let err = Flit::get(&mut SnapshotReader::new(&bad)).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err:?}");
    }

    #[test]
    fn decoded_node_ids_are_bounded_to_sixteen_bits() {
        // Before a network sets its node count, a node id is still refused
        // past the 16 bits a `NodeId` holds, never truncated.
        for (index, ok) in [(NodeId::LIMIT - 1, true), (NodeId::LIMIT, false)] {
            let mut w = SnapshotWriter::new();
            w.put_usize(index);
            let bytes = w.into_bytes();
            let got = NodeId::get(&mut SnapshotReader::new(&bytes));
            match ok {
                true => assert_eq!(got.unwrap().index(), index),
                false => assert!(matches!(got, Err(SnapshotError::Malformed { .. }))),
            }
        }
    }

    #[test]
    fn open_rejects_truncated_container() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        let sealed = seal(w);
        let cut = &sealed[..sealed.len() - 3];
        assert!(matches!(
            open(cut, "f"),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        let dir = std::env::temp_dir().join("afc-snapshot-test");
        let path = dir.join("unit.snap");
        let mut w = SnapshotWriter::new();
        w.put_str("atomic");
        let sealed = seal(w);
        write_file_atomic(&path, &sealed).unwrap();
        let bytes = read_file(&path).unwrap();
        assert_eq!(bytes, sealed);
        // Corrupt the file on disk: read_file must refuse and name it.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x80;
        fs::write(&path, &corrupt).unwrap();
        let err = read_file(&path).unwrap_err();
        assert!(err.to_string().contains("unit.snap"), "{err}");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn flit_and_packet_round_trips() {
        let mut f = Flit::test_flit(PacketId(77), NodeId::new(2), NodeId::new(6));
        f.seq = 1;
        f.len = 4;
        f.vc = Some(VcId(3));
        f.hops = 9;
        f.deflections = 2;
        f.injected_at = 0xABCD;
        f.corrupt();
        let d = PacketDescriptor {
            id: PacketId(77),
            src: NodeId::new(2),
            dest: NodeId::new(6),
            vnet: VirtualNetwork(1),
            len: 4,
            created_at: 33,
            kind: PacketKind::Request,
            tag: 5,
        };
        let del = DeliveredPacket {
            descriptor: d,
            injected_at: 40,
            delivered_at: 55,
            total_hops: 12,
            total_deflections: 2,
        };
        let mut w = SnapshotWriter::new();
        (f, d, del).put(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(Flit::get(&mut r).unwrap(), f);
        assert_eq!(PacketDescriptor::get(&mut r).unwrap(), d);
        assert_eq!(DeliveredPacket::get(&mut r).unwrap(), del);
        r.finish("flits").unwrap();
    }

    #[test]
    fn sequences_load_in_place_and_refuse_impossible_lengths() {
        let mut w = SnapshotWriter::new();
        vec![3u16, 4].put(&mut w);
        let bytes = w.into_bytes();
        let mut v: Vec<u16> = Vec::with_capacity(64);
        v.push(9);
        v.load(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!((v.as_slice(), v.capacity()), (&[3u16, 4][..], 64));
        for len in [3u64, 1 << 40, u64::MAX] {
            let mut w = SnapshotWriter::new();
            w.put_u64(len);
            w.put_u64(0);
            let bytes = w.into_bytes();
            let err = Vec::<Flit>::get(&mut SnapshotReader::new(&bytes)).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "{len}: {err}"
            );
            let err = <VecDeque<Flit> as Codec>::get(&mut SnapshotReader::new(&bytes)).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "{len}: {err}"
            );
        }
    }

    #[test]
    fn error_messages_are_lowercase_and_nonempty() {
        let errs: Vec<SnapshotError> = vec![
            SnapshotError::BadMagic {
                origin: "f.snap".into(),
            },
            SnapshotError::BadVersion {
                origin: "f.snap".into(),
                found: 9,
                expected: 1,
            },
            SnapshotError::ChecksumMismatch {
                origin: "f.snap".into(),
            },
            SnapshotError::Truncated { what: "stats" },
            SnapshotError::ContextMismatch {
                what: "mechanism",
                snapshot: "afc".into(),
                current: "bless".into(),
            },
            SnapshotError::Unsupported {
                what: "test router",
            },
            SnapshotError::Malformed { what: "enum tag" },
            SnapshotError::Io {
                path: "f.snap".into(),
                message: "denied".into(),
            },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }
}
