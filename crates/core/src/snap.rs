//! Versioned, length-prefixed binary snapshots — the crash-safe
//! persistence layer under checkpoint/resume.
//!
//! The white-box model makes this subsystem almost free: *all* algorithm
//! randomness is public (seed + transcript), so a snapshot is just the
//! mutable state an adversary could already reconstruct — there is no
//! hidden key material to protect, and byte-identical replay after a
//! restore is exactly the determinism the model demands anyway.
//!
//! # Codec
//!
//! No serde, no reflection: every snapshot is a hand-rolled byte string
//! with a fixed frame,
//!
//! ```text
//! "WBSN" | version: u16 LE | payload...
//! ```
//!
//! and a payload written field by field through [`SnapWriter`]:
//!
//! * integers are fixed-width little-endian (`u8`/`u16`/`u32`/`u64`/`i64`);
//! * `f64` is stored as its IEEE-754 bit pattern (`to_bits`), so restored
//!   floats are bit-identical, NaN payloads included;
//! * sequences and strings carry a `u64` length prefix followed by their
//!   elements — nothing is delimiter-scanned;
//! * maps are written as sorted `(key, value)` pairs so the same state
//!   always produces the same bytes regardless of hash iteration order.
//!
//! [`SnapReader`] mirrors the writer: every read is bounds-checked
//! ([`SnapError::Truncated`]), lengths are validated against the remaining
//! input before allocation, and [`SnapReader::finish`] rejects trailing
//! garbage. Restores are **in-place**: callers construct the object with
//! its original parameters (and, where relevant, the original derived
//! seed) and then overwrite the mutable state, which keeps large derived
//! immutables — SIS matrices, CRHF keys — out of the snapshot entirely.
//!
//! # Versioning rules
//!
//! `SNAP_VERSION` is bumped whenever the byte layout of *any* snapshotted
//! type changes. There is deliberately no migration machinery: a snapshot
//! is a crash-recovery artifact, not an archival format, and a version
//! mismatch is reported as [`SnapError::UnsupportedVersion`] so the caller
//! can discard the checkpoint and rerun.

use std::collections::HashMap;
use std::fmt;

/// Magic bytes opening every snapshot frame.
pub const SNAP_MAGIC: [u8; 4] = *b"WBSN";

/// Current snapshot codec version (see the module docs for bump rules).
pub const SNAP_VERSION: u16 = 1;

/// Why a snapshot could not be produced or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before a field could be read in full.
    Truncated {
        /// Bytes the pending read needed.
        needed: u64,
        /// Bytes actually remaining.
        remaining: u64,
    },
    /// The frame does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The frame's codec version is not [`SNAP_VERSION`].
    UnsupportedVersion(u16),
    /// A decoded value is structurally impossible (bad discriminant,
    /// length out of range, invariant violation).
    Corrupt(String),
    /// The value cannot be snapshotted in its current state (a failed
    /// tenant or sharded pipeline, whose error chain is not serializable).
    Unsupported(String),
    /// The snapshot belongs to a different type or configuration than the
    /// instance it is being restored into.
    Mismatch {
        /// What the restoring instance is.
        expected: String,
        /// What the snapshot says it holds.
        found: String,
    },
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes(u64),
}

impl SnapError {
    /// The standard "this value cannot be snapshotted" error.
    pub fn unsupported(name: impl Into<String>) -> Self {
        SnapError::Unsupported(name.into())
    }

    /// A structural-corruption error with a formatted message.
    pub fn corrupt(msg: impl Into<String>) -> Self {
        SnapError::Corrupt(msg.into())
    }

    /// A type/configuration mismatch between snapshot and instance.
    pub fn mismatch(expected: impl Into<String>, found: impl Into<String>) -> Self {
        SnapError::Mismatch {
            expected: expected.into(),
            found: found.into(),
        }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed, remaining } => write!(
                f,
                "snapshot truncated: needed {needed} bytes, {remaining} remaining"
            ),
            SnapError::BadMagic => write!(f, "snapshot frame does not start with WBSN magic"),
            SnapError::UnsupportedVersion(v) => write!(
                f,
                "snapshot codec version {v} is not supported (expected {SNAP_VERSION})"
            ),
            SnapError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            SnapError::Unsupported(name) => {
                write!(f, "{name} does not support snapshot/restore")
            }
            SnapError::Mismatch { expected, found } => write!(
                f,
                "snapshot mismatch: restoring into {expected}, snapshot holds {found}"
            ),
            SnapError::TrailingBytes(n) => {
                write!(f, "snapshot has {n} trailing bytes after the payload")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only encoder for one snapshot frame. [`SnapWriter::new`] writes
/// the magic and version; [`SnapWriter::finish`] returns the bytes.
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Starts a frame: magic + current version.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&SNAP_MAGIC);
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        SnapWriter { buf }
    }

    /// The finished frame.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u16` little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a length-prefixed `u64` sequence.
    pub fn put_u64_seq(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Appends a length-prefixed `u32` sequence.
    pub fn put_u32_seq(&mut self, v: &[u32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u32(x);
        }
    }

    /// Appends a `HashMap<u64, i64>` as sorted `(key, value)` pairs —
    /// deterministic bytes for any iteration order.
    pub fn put_map_u64_i64(&mut self, m: &HashMap<u64, i64>) {
        let mut pairs: Vec<(u64, i64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        self.put_u64(pairs.len() as u64);
        for (k, v) in pairs {
            self.put_u64(k);
            self.put_i64(v);
        }
    }

    /// Appends a `HashMap<u64, u64>` as sorted `(key, value)` pairs.
    pub fn put_map_u64_u64(&mut self, m: &HashMap<u64, u64>) {
        let mut pairs: Vec<(u64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        self.put_u64(pairs.len() as u64);
        for (k, v) in pairs {
            self.put_u64(k);
            self.put_u64(v);
        }
    }
}

impl Default for SnapWriter {
    fn default() -> Self {
        SnapWriter::new()
    }
}

/// Bounds-checked decoder over one snapshot frame. [`SnapReader::new`]
/// validates magic and version; [`SnapReader::finish`] rejects trailing
/// bytes.
#[derive(Debug)]
pub struct SnapReader<'a> {
    rest: &'a [u8],
}

impl<'a> SnapReader<'a> {
    /// Opens a frame, validating magic and version.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapError> {
        if bytes.len() < 6 {
            return Err(SnapError::Truncated {
                needed: 6,
                remaining: bytes.len() as u64,
            });
        }
        if bytes[..4] != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != SNAP_VERSION {
            return Err(SnapError::UnsupportedVersion(version));
        }
        Ok(SnapReader { rest: &bytes[6..] })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Succeeds iff the whole payload was consumed.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes(self.rest.len() as u64))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.rest.len() < n {
            return Err(SnapError::Truncated {
                needed: n as u64,
                remaining: self.rest.len() as u64,
            });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Reads a `u8`.
    pub fn take_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool` (one byte, strictly 0 or 1).
    pub fn take_bool(&mut self) -> Result<bool, SnapError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a `u16` little-endian.
    pub fn take_u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32` little-endian.
    pub fn take_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` little-endian.
    pub fn take_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads an `i64` little-endian.
    pub fn take_i64(&mut self) -> Result<i64, SnapError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`; must fit the platform).
    pub fn take_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| SnapError::corrupt(format!("usize overflow: {v}")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a sequence length prefix, validating it against the bytes
    /// remaining (each element occupying at least `elem_size` bytes) so a
    /// corrupt length cannot trigger a huge allocation.
    fn take_len(&mut self, elem_size: usize) -> Result<usize, SnapError> {
        let len = self.take_usize()?;
        let need = (len as u128) * (elem_size as u128);
        if need > self.rest.len() as u128 {
            return Err(SnapError::Truncated {
                needed: need.min(u64::MAX as u128) as u64,
                remaining: self.rest.len() as u64,
            });
        }
        Ok(len)
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let len = self.take_len(1)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, SnapError> {
        let bytes = self.take_bytes()?;
        String::from_utf8(bytes).map_err(|_| SnapError::corrupt("string is not UTF-8"))
    }

    /// Reads a length-prefixed `u64` sequence.
    pub fn take_u64_seq(&mut self) -> Result<Vec<u64>, SnapError> {
        let len = self.take_len(8)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(self.take_u64()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed `u32` sequence.
    pub fn take_u32_seq(&mut self) -> Result<Vec<u32>, SnapError> {
        let len = self.take_len(4)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(self.take_u32()?);
        }
        Ok(v)
    }

    /// Reads a sorted-pairs `HashMap<u64, i64>`.
    pub fn take_map_u64_i64(&mut self) -> Result<HashMap<u64, i64>, SnapError> {
        let len = self.take_len(16)?;
        let mut m = HashMap::with_capacity(len);
        for _ in 0..len {
            let k = self.take_u64()?;
            let v = self.take_i64()?;
            if m.insert(k, v).is_some() {
                return Err(SnapError::corrupt(format!("duplicate map key {k}")));
            }
        }
        Ok(m)
    }

    /// Reads a sorted-pairs `HashMap<u64, u64>`.
    pub fn take_map_u64_u64(&mut self) -> Result<HashMap<u64, u64>, SnapError> {
        let len = self.take_len(16)?;
        let mut m = HashMap::with_capacity(len);
        for _ in 0..len {
            let k = self.take_u64()?;
            let v = self.take_u64()?;
            if m.insert(k, v).is_some() {
                return Err(SnapError::corrupt(format!("duplicate map key {k}")));
            }
        }
        Ok(m)
    }
}

/// In-place snapshot/restore of a type's mutable state.
///
/// The contract is **restore-into-a-twin**: construct the value with the
/// same parameters (and derived seed, where construction draws randomness)
/// as the snapshotted instance, then [`Snapshot::restore`] overwrites the
/// mutable state so that every subsequent operation is bit-identical to
/// the original continuing uninterrupted. Implementations serialize all
/// state that evolves during a run, validate immutable configuration
/// (sizes, parameters) against the snapshot, and skip pure caches that are
/// rebuilt on demand.
pub trait Snapshot {
    /// Appends this value's state to `w`.
    fn snap(&self, w: &mut SnapWriter);

    /// Overwrites this value's state from `r`.
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Serializes `value` as one complete frame (magic + version + payload).
pub fn to_bytes<T: Snapshot + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    value.snap(&mut w);
    w.finish()
}

/// Restores `value` in place from a complete frame, rejecting trailing
/// bytes.
pub fn from_bytes<T: Snapshot + ?Sized>(value: &mut T, bytes: &[u8]) -> Result<(), SnapError> {
    let mut r = SnapReader::new(bytes)?;
    value.restore(&mut r)?;
    r.finish()
}

/// Writes `bytes` to `path` atomically and durably: the bytes go to
/// `<path>.tmp`, which is synced to disk and then renamed over `path`,
/// and (on Unix) the rename is synced through the parent directory. A
/// crash or power loss mid-write leaves either the previous file or the
/// new one, never a torn frame.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(std::path::Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_all_primitives() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_usize(12345);
        w.put_f64(-0.125);
        w.put_f64(f64::NAN);
        w.put_bytes(b"abc");
        w.put_str("wbsn \u{1F980}");
        w.put_u64_seq(&[1, 2, 3]);
        w.put_u32_seq(&[9, 8]);
        let bytes = w.finish();
        assert_eq!(&bytes[..4], b"WBSN");

        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.take_u8().unwrap(), 7);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_u16().unwrap(), 0xBEEF);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take_i64().unwrap(), -42);
        assert_eq!(r.take_usize().unwrap(), 12345);
        assert_eq!(r.take_f64().unwrap(), -0.125);
        assert!(r.take_f64().unwrap().is_nan());
        assert_eq!(r.take_bytes().unwrap(), b"abc");
        assert_eq!(r.take_str().unwrap(), "wbsn \u{1F980}");
        assert_eq!(r.take_u64_seq().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.take_u32_seq().unwrap(), vec![9, 8]);
        r.finish().unwrap();
    }

    #[test]
    fn maps_roundtrip_and_encode_deterministically() {
        let mut m = HashMap::new();
        for k in [9u64, 1, 5, 1 << 40] {
            m.insert(k, -(k as i64));
        }
        let mut w1 = SnapWriter::new();
        w1.put_map_u64_i64(&m);
        let b1 = w1.finish();
        // A map rebuilt in a different insertion order encodes identically.
        let mut m2 = HashMap::new();
        for k in [1 << 40, 5u64, 1, 9] {
            m2.insert(k, -(k as i64));
        }
        let mut w2 = SnapWriter::new();
        w2.put_map_u64_i64(&m2);
        assert_eq!(b1, w2.finish());
        let mut r = SnapReader::new(&b1).unwrap();
        assert_eq!(r.take_map_u64_i64().unwrap(), m);
        r.finish().unwrap();
    }

    #[test]
    fn bad_frames_are_rejected() {
        assert_eq!(
            SnapReader::new(b"WBS").err(),
            Some(SnapError::Truncated {
                needed: 6,
                remaining: 3
            })
        );
        assert_eq!(
            SnapReader::new(b"NOPE\x01\x00").err(),
            Some(SnapError::BadMagic)
        );
        assert_eq!(
            SnapReader::new(b"WBSN\x63\x00").err(),
            Some(SnapError::UnsupportedVersion(0x63))
        );

        // Truncated payload.
        let mut w = SnapWriter::new();
        w.put_u64(1);
        let mut bytes = w.finish();
        bytes.pop();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(
            r.take_u64(),
            Err(SnapError::Truncated { needed: 8, .. })
        ));

        // A corrupt sequence length cannot cause a huge allocation.
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(r.take_u64_seq(), Err(SnapError::Truncated { .. })));

        // Trailing bytes are an error.
        let mut w = SnapWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        r.take_u8().unwrap();
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes(1)));
    }

    #[test]
    fn bool_bytes_are_strict() {
        let mut w = SnapWriter::new();
        w.put_u8(2);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(r.take_bool(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn helper_roundtrip() {
        struct P(u64, f64);
        impl Snapshot for P {
            fn snap(&self, w: &mut SnapWriter) {
                w.put_u64(self.0);
                w.put_f64(self.1);
            }
            fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                self.0 = r.take_u64()?;
                self.1 = r.take_f64()?;
                Ok(())
            }
        }
        let bytes = to_bytes(&P(17, 0.5));
        let mut q = P(0, 0.0);
        from_bytes(&mut q, &bytes).unwrap();
        assert_eq!((q.0, q.1), (17, 0.5));
        // Trailing garbage after the payload fails the whole restore.
        let mut bad = bytes.clone();
        bad.push(0);
        assert_eq!(from_bytes(&mut q, &bad), Err(SnapError::TrailingBytes(1)));
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("wb_snap_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frame.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
