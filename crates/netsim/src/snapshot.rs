//! Versioned, checksummed binary snapshots of simulation state.
//!
//! This module is the substrate of the deterministic checkpoint/restore
//! subsystem. It provides:
//!
//! * [`SnapshotWriter`]/[`SnapshotReader`] — a hand-rolled little-endian
//!   binary encoder/decoder (no external serialization dependency),
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

use crate::flit::{Flit, PacketId, VcId, VirtualNetwork};
use crate::geom::NodeId;
use crate::packet::{DeliveredPacket, PacketDescriptor, PacketInput, PacketKind};
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
pub const FORMAT_VERSION: u32 = 4;

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

    /// Writes an `Option<u64>` as a presence byte plus (if present) the
    /// value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
            None => self.put_bool(false),
        }
    }
}

/// Position-tracked little-endian binary decoder over a payload slice.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Creates a reader over raw payload bytes (already unsealed).
    pub fn new(buf: &'a [u8]) -> SnapshotReader<'a> {
        SnapshotReader { buf, pos: 0 }
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

    /// Reads an `Option<u64>` written by [`SnapshotWriter::put_opt_u64`].
    pub fn get_opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, SnapshotError> {
        if self.get_bool(what)? {
            Ok(Some(self.get_u64(what)?))
        } else {
            Ok(None)
        }
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

fn kind_tag(kind: PacketKind) -> u8 {
    match kind {
        PacketKind::Request => 0,
        PacketKind::Response => 1,
        PacketKind::Writeback => 2,
        PacketKind::Synthetic => 3,
    }
}

fn kind_from_tag(tag: u8) -> Result<PacketKind, SnapshotError> {
    Ok(match tag {
        0 => PacketKind::Request,
        1 => PacketKind::Response,
        2 => PacketKind::Writeback,
        3 => PacketKind::Synthetic,
        _ => {
            return Err(SnapshotError::Malformed {
                what: "packet kind tag",
            })
        }
    })
}

/// Writes a [`Flit`] field-by-field (fixed layout, version-gated by the
/// container). Shared by the router crates so every mechanism serializes
/// flits identically.
pub fn write_flit(w: &mut SnapshotWriter, f: &Flit) {
    w.put_u64(f.packet.0);
    w.put_u16(f.seq);
    w.put_u16(f.len);
    w.put_usize(f.src.index());
    w.put_usize(f.dest.index());
    w.put_u8(f.vnet.0);
    match f.vc {
        Some(vc) => {
            w.put_bool(true);
            w.put_u8(vc.0);
        }
        None => w.put_bool(false),
    }
    w.put_u64(f.created_at);
    w.put_u64(f.injected_at);
    w.put_u16(f.hops);
    w.put_u16(f.deflections);
    w.put_u8(kind_tag(f.kind));
    w.put_u64(f.tag);
    w.put_u16(f.checksum);
}

/// Reads a [`Flit`] written by [`write_flit`].
pub fn read_flit(r: &mut SnapshotReader<'_>) -> Result<Flit, SnapshotError> {
    Ok(Flit {
        packet: PacketId(r.get_u64("flit packet id")?),
        seq: r.get_u16("flit seq")?,
        len: r.get_u16("flit len")?,
        src: NodeId::new(r.get_usize("flit src")?),
        dest: NodeId::new(r.get_usize("flit dest")?),
        vnet: VirtualNetwork(r.get_u8("flit vnet")?),
        vc: if r.get_bool("flit vc presence")? {
            Some(VcId(r.get_u8("flit vc")?))
        } else {
            None
        },
        created_at: r.get_u64("flit created_at")?,
        injected_at: r.get_u64("flit injected_at")?,
        hops: r.get_u16("flit hops")?,
        deflections: r.get_u16("flit deflections")?,
        kind: kind_from_tag(r.get_u8("flit kind")?)?,
        tag: r.get_u64("flit tag")?,
        checksum: r.get_u16("flit checksum")?,
    })
}

/// Writes a [`PacketDescriptor`] field-by-field.
pub fn write_descriptor(w: &mut SnapshotWriter, d: &PacketDescriptor) {
    w.put_u64(d.id.0);
    w.put_usize(d.src.index());
    w.put_usize(d.dest.index());
    w.put_u8(d.vnet.0);
    w.put_u16(d.len);
    w.put_u64(d.created_at);
    w.put_u8(kind_tag(d.kind));
    w.put_u64(d.tag);
}

/// Reads a [`PacketDescriptor`] written by [`write_descriptor`].
pub fn read_descriptor(r: &mut SnapshotReader<'_>) -> Result<PacketDescriptor, SnapshotError> {
    Ok(PacketDescriptor {
        id: PacketId(r.get_u64("descriptor id")?),
        src: NodeId::new(r.get_usize("descriptor src")?),
        dest: NodeId::new(r.get_usize("descriptor dest")?),
        vnet: VirtualNetwork(r.get_u8("descriptor vnet")?),
        len: r.get_u16("descriptor len")?,
        created_at: r.get_u64("descriptor created_at")?,
        kind: kind_from_tag(r.get_u8("descriptor kind")?)?,
        tag: r.get_u64("descriptor tag")?,
    })
}

/// Writes a [`PacketInput`] field-by-field.
pub fn write_packet_input(w: &mut SnapshotWriter, p: &PacketInput) {
    w.put_usize(p.dest.index());
    w.put_u8(p.vnet.0);
    w.put_u16(p.len);
    w.put_u8(kind_tag(p.kind));
    w.put_u64(p.tag);
}

/// Reads a [`PacketInput`] written by [`write_packet_input`].
pub fn read_packet_input(r: &mut SnapshotReader<'_>) -> Result<PacketInput, SnapshotError> {
    Ok(PacketInput {
        dest: NodeId::new(r.get_usize("packet input dest")?),
        vnet: VirtualNetwork(r.get_u8("packet input vnet")?),
        len: r.get_u16("packet input len")?,
        kind: kind_from_tag(r.get_u8("packet input kind")?)?,
        tag: r.get_u64("packet input tag")?,
    })
}

/// Writes a [`DeliveredPacket`] field-by-field.
pub fn write_delivered(w: &mut SnapshotWriter, d: &DeliveredPacket) {
    write_descriptor(w, &d.descriptor);
    w.put_u64(d.injected_at);
    w.put_u64(d.delivered_at);
    w.put_u32(d.total_hops);
    w.put_u32(d.total_deflections);
}

/// Reads a [`DeliveredPacket`] written by [`write_delivered`].
pub fn read_delivered(r: &mut SnapshotReader<'_>) -> Result<DeliveredPacket, SnapshotError> {
    Ok(DeliveredPacket {
        descriptor: read_descriptor(r)?,
        injected_at: r.get_u64("delivered injected_at")?,
        delivered_at: r.get_u64("delivered delivered_at")?,
        total_hops: r.get_u32("delivered hops")?,
        total_deflections: r.get_u32("delivered deflections")?,
    })
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
        w.put_opt_u64(Some(42));
        w.put_opt_u64(None);
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
        assert_eq!(r.get_opt_u64("t").unwrap(), Some(42));
        assert_eq!(r.get_opt_u64("t").unwrap(), None);
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
        // A v3 (ring-channel) container must be refused outright, not
        // half-decoded: v4 writes each link as its in-flight items in
        // arrival order, where v3 had ring contents, heads and a
        // staged-delivery block.
        let mut old = seal(SnapshotWriter::new());
        old[8..12].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
        let body_len = old.len() - 8;
        let sum = fnv1a64(&old[..body_len]);
        old[body_len..].copy_from_slice(&sum.to_le_bytes());
        match open(&old, "old.snap") {
            Err(SnapshotError::BadVersion {
                found, expected, ..
            }) => {
                assert_eq!(found, FORMAT_VERSION - 1);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected BadVersion, got {other:?}"),
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
        f.kind = PacketKind::Writeback;
        f.tag = 0xABCD;
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
        write_flit(&mut w, &f);
        write_descriptor(&mut w, &d);
        write_delivered(&mut w, &del);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(read_flit(&mut r).unwrap(), f);
        assert_eq!(read_descriptor(&mut r).unwrap(), d);
        assert_eq!(read_delivered(&mut r).unwrap(), del);
        r.finish("flits").unwrap();
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
