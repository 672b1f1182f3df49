//! Crash-safe checkpoint persistence for long stability runs.
//!
//! Conjecture-1 evidence accumulates over runs of 10⁸+ steps; a container
//! timeout must not throw the trajectory away. This module owns the
//! *file* side of checkpointing: a versioned, checksummed container
//! written atomically. The *state* side — which bytes describe a
//! [`Simulation`](crate::Simulation) — lives in the engine
//! ([`Simulation::checkpoint_payload`](crate::Simulation::checkpoint_payload)
//! / [`Simulation::restore_checkpoint_payload`](crate::Simulation::restore_checkpoint_payload))
//! and in each component's
//! `save_state`/`load_state` hooks (see e.g.
//! [`InjectionProcess`](crate::injection::InjectionProcess)).
//!
//! # Container format (version 3)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"LGGCKPT1"
//! 8       4     format version (u32 LE) = 3
//! 12      8     step count t (u64 LE)
//! 20      8     payload length (u64 LE)
//! 28      n     payload (opaque engine bytes, see DESIGN.md §11)
//! 28+n    8     FNV-1a digest (u64 LE) over bytes [0, 28+n)
//! ```
//!
//! # Crash-safety protocol
//!
//! A checkpoint is written to a temp file in the target directory,
//! `fsync`ed, then atomically renamed to `ckpt_<t>.lgg` (rename within a
//! directory is atomic on POSIX), and the directory is fsynced so the
//! rename itself is durable. A crash at any point leaves either the old
//! set of complete checkpoints, or the old set plus one new complete
//! checkpoint — never a torn file under a valid name. [`load_latest`]
//! additionally re-verifies the digest and silently skips invalid files,
//! so even a torn rename (non-POSIX filesystems) degrades to "resume from
//! the previous snapshot", never to corruption.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::error::LggError;

/// The container format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 3;

const MAGIC: &[u8; 8] = b"LGGCKPT1";
const HEADER_LEN: usize = 8 + 4 + 8 + 8;
const DIGEST_LEN: usize = 8;
const TMP_NAME: &str = "ckpt_inflight.tmp";

/// When and where the engine writes checkpoints
/// (see [`Simulation::set_checkpoint`](crate::Simulation::set_checkpoint)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Write a snapshot every this many steps (≥ 1).
    pub every: u64,
    /// Directory holding `ckpt_<t>.lgg` files (created on first write).
    pub dir: PathBuf,
    /// Completed snapshots to retain; older ones are pruned after each
    /// successful write. At least 1.
    pub keep: usize,
}

impl CheckpointConfig {
    /// A config writing every `every` steps into `dir`, keeping the last
    /// two snapshots (the previous one survives until its successor is
    /// fully durable).
    pub fn new(every: u64, dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            every: every.max(1),
            dir: dir.into(),
            keep: 2,
        }
    }
}

/// FNV-1a over `bytes` — the same digest `lgg-sim trace --digest` and the
/// sweep artifacts use, so shell scripts can cross-check with one
/// implementation.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Serializes a complete checkpoint file image for `payload` at step `t`.
pub fn encode(t: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + DIGEST_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&t.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let digest = fnv1a(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Validates a checkpoint file image and returns `(t, payload)`.
pub fn decode(bytes: &[u8]) -> Result<(u64, &[u8]), LggError> {
    if bytes.len() < HEADER_LEN + DIGEST_LEN {
        return Err(LggError::corrupt("file shorter than header"));
    }
    if &bytes[..8] != MAGIC {
        return Err(LggError::corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(LggError::CheckpointVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let t = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes")) as usize;
    let expected = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(DIGEST_LEN));
    if expected != Some(bytes.len()) {
        return Err(LggError::corrupt("length field disagrees with file size"));
    }
    let body_end = bytes.len() - DIGEST_LEN;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    let actual = fnv1a(&bytes[..body_end]);
    if stored != actual {
        return Err(LggError::corrupt(format!(
            "digest mismatch: stored {stored:016x}, computed {actual:016x}"
        )));
    }
    Ok((t, &bytes[HEADER_LEN..body_end]))
}

/// The canonical file name of the step-`t` snapshot.
pub fn file_name(t: u64) -> String {
    format!("ckpt_{t:020}.lgg")
}

/// Parses a step count back out of a [`file_name`]-shaped name.
fn parse_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt_")?
        .strip_suffix(".lgg")?
        .parse()
        .ok()
}

/// Writes the step-`t` snapshot crash-safely into `dir` (created if
/// missing): temp file → fsync → atomic rename → directory fsync. Returns
/// the final path.
pub fn write_atomic(dir: &Path, t: u64, payload: &[u8]) -> Result<PathBuf, LggError> {
    fs::create_dir_all(dir)
        .map_err(|e| LggError::io(format!("cannot create {}", dir.display()), e))?;
    let tmp = dir.join(TMP_NAME);
    let bytes = encode(t, payload);
    {
        let mut f = File::create(&tmp)
            .map_err(|e| LggError::io(format!("cannot create {}", tmp.display()), e))?;
        f.write_all(&bytes)
            .map_err(|e| LggError::io(format!("cannot write {}", tmp.display()), e))?;
        f.sync_all()
            .map_err(|e| LggError::io(format!("cannot fsync {}", tmp.display()), e))?;
    }
    let path = dir.join(file_name(t));
    fs::rename(&tmp, &path)
        .map_err(|e| LggError::io(format!("cannot rename into {}", path.display()), e))?;
    // Make the rename itself durable. Directory fsync is best-effort: it
    // can fail on filesystems that refuse to open directories, in which
    // case the data file is still synced and validly named.
    if let Ok(d) = OpenOptions::new().read(true).open(dir) {
        let _ = d.sync_all();
    }
    Ok(path)
}

/// All completed snapshots in `dir`, newest first. A missing directory is
/// an empty list, not an error.
pub fn list(dir: &Path) -> Result<Vec<(u64, PathBuf)>, LggError> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(LggError::io(format!("cannot read {}", dir.display()), e)),
    };
    let mut found = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| LggError::io(format!("cannot read {}", dir.display()), e))?;
        if let Some(t) = entry.file_name().to_str().and_then(parse_file_name) {
            found.push((t, entry.path()));
        }
    }
    found.sort_unstable_by(|a, b| b.0.cmp(&a.0));
    Ok(found)
}

/// Loads the newest snapshot in `dir` whose digest verifies, returning
/// `(t, payload)`. Torn or bit-rotted files are skipped (older snapshots
/// remain usable); `Ok(None)` means no valid snapshot exists.
pub fn load_latest(dir: &Path) -> Result<Option<(u64, Vec<u8>)>, LggError> {
    for (_, path) in list(dir)? {
        match read_snapshot(&path) {
            Ok(pair) => return Ok(Some(pair)),
            Err(LggError::Io { .. }) | Err(LggError::CheckpointCorrupt { .. }) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Reads and validates one snapshot file, returning `(t, payload)`.
pub fn read_snapshot(path: &Path) -> Result<(u64, Vec<u8>), LggError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| LggError::io(format!("cannot read {}", path.display()), e))?;
    let (t, payload) = decode(&bytes)?;
    Ok((t, payload.to_vec()))
}

/// Deletes completed snapshots beyond the `keep` newest. Failures to
/// delete are ignored — pruning is an optimization, never a correctness
/// requirement.
pub fn prune(dir: &Path, keep: usize) -> Result<(), LggError> {
    for (_, path) in list(dir)?.into_iter().skip(keep.max(1)) {
        let _ = fs::remove_file(path);
    }
    Ok(())
}

/// Serializes an already-serde-capable value to JSON bytes for embedding
/// in a state blob via [`wire::put_bytes`] — the escape hatch for state
/// with existing serde derives (metrics, latency stats, recorders).
pub fn json_to_bytes<T: serde::Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string(value)
        .expect("checkpointed state serializes infallibly")
        .into_bytes()
}

/// Inverse of [`json_to_bytes`]; malformed input surfaces as
/// [`LggError::CheckpointCorrupt`].
pub fn json_from_bytes<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, LggError> {
    let s = std::str::from_utf8(bytes)
        .map_err(|e| LggError::corrupt(format!("state blob is not UTF-8 JSON: {e}")))?;
    serde_json::from_str(s).map_err(|e| LggError::corrupt(format!("state blob JSON: {e}")))
}

/// Little-endian wire helpers shared by every component's
/// `save_state`/`load_state` pair (public so out-of-crate
/// [`RoutingProtocol`](crate::RoutingProtocol) and
/// [`SimObserver`](crate::SimObserver) implementations — `lgg-core`, the
/// CLI — speak the same encoding).
pub mod wire {
    use crate::error::LggError;

    fn truncated(what: &str) -> LggError {
        LggError::corrupt(format!("state blob truncated reading {what}"))
    }

    /// Appends a `u32`.
    pub fn put_u32(out: &mut Vec<u8>, x: u32) {
        out.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(out: &mut Vec<u8>, x: u64) {
        out.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a `u128`.
    pub fn put_u128(out: &mut Vec<u8>, x: u128) {
        out.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(out: &mut Vec<u8>, x: bool) {
        out.push(x as u8);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(out: &mut Vec<u8>, x: &[u8]) {
        put_u64(out, x.len() as u64);
        out.extend_from_slice(x);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(out: &mut Vec<u8>, x: &str) {
        put_bytes(out, x.as_bytes());
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64_slice(out: &mut Vec<u8>, xs: &[u64]) {
        put_u64(out, xs.len() as u64);
        for &x in xs {
            put_u64(out, x);
        }
    }

    /// Appends a length-prefixed `bool` slice (one byte each).
    pub fn put_bool_slice(out: &mut Vec<u8>, xs: &[bool]) {
        put_u64(out, xs.len() as u64);
        out.extend(xs.iter().map(|&b| b as u8));
    }

    /// Sequential reader over a state blob; every accessor fails with
    /// [`LggError::CheckpointCorrupt`] instead of panicking on short input.
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// A reader over `buf`, positioned at the start.
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], LggError> {
            let end = self.pos.checked_add(n).ok_or_else(|| truncated(what))?;
            if end > self.buf.len() {
                return Err(truncated(what));
            }
            let s = &self.buf[self.pos..end];
            self.pos = end;
            Ok(s)
        }

        /// Reads a `u32`.
        pub fn u32(&mut self) -> Result<u32, LggError> {
            Ok(u32::from_le_bytes(
                self.take(4, "u32")?.try_into().expect("4 bytes"),
            ))
        }

        /// Reads a `u64`.
        pub fn u64(&mut self) -> Result<u64, LggError> {
            Ok(u64::from_le_bytes(
                self.take(8, "u64")?.try_into().expect("8 bytes"),
            ))
        }

        /// Reads a `u128`.
        pub fn u128(&mut self) -> Result<u128, LggError> {
            Ok(u128::from_le_bytes(
                self.take(16, "u128")?.try_into().expect("16 bytes"),
            ))
        }

        /// Reads a `bool` byte (strictly 0 or 1).
        pub fn bool_(&mut self) -> Result<bool, LggError> {
            match self.take(1, "bool")?[0] {
                0 => Ok(false),
                1 => Ok(true),
                b => Err(LggError::corrupt(format!("invalid bool byte {b}"))),
            }
        }

        /// Reads a length-prefixed byte string.
        pub fn bytes(&mut self) -> Result<&'a [u8], LggError> {
            let n = self.u64()? as usize;
            self.take(n, "bytes")
        }

        /// Reads a length-prefixed UTF-8 string.
        pub fn str_(&mut self) -> Result<&'a str, LggError> {
            std::str::from_utf8(self.bytes()?)
                .map_err(|_| LggError::corrupt("invalid UTF-8 in state blob"))
        }

        /// Reads a length-prefixed `u64` vector.
        pub fn u64_vec(&mut self) -> Result<Vec<u64>, LggError> {
            let n = self.u64()? as usize;
            // The length itself must fit in what is left, so corrupt
            // (but digest-colliding) input cannot trigger a huge
            // allocation before the read fails.
            if n.checked_mul(8).is_none_or(|b| b > self.buf.len() - self.pos) {
                return Err(truncated("u64 vector"));
            }
            (0..n).map(|_| self.u64()).collect()
        }

        /// Reads a length-prefixed `bool` vector.
        pub fn bool_vec(&mut self) -> Result<Vec<bool>, LggError> {
            let n = self.u64()? as usize;
            let raw = self.take(n, "bool vector")?;
            raw.iter()
                .map(|&b| match b {
                    0 => Ok(false),
                    1 => Ok(true),
                    b => Err(LggError::corrupt(format!("invalid bool byte {b}"))),
                })
                .collect()
        }

        /// Bytes not yet consumed.
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        /// Asserts the blob was consumed exactly.
        pub fn done(&self) -> Result<(), LggError> {
            if self.remaining() == 0 {
                Ok(())
            } else {
                Err(LggError::corrupt(format!(
                    "{} trailing bytes in state blob",
                    self.remaining()
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let payload = b"some engine bytes".to_vec();
        let img = encode(12345, &payload);
        let (t, p) = decode(&img).unwrap();
        assert_eq!(t, 12345);
        assert_eq!(p, &payload[..]);
    }

    #[test]
    fn decode_rejects_tampering() {
        let img = encode(7, b"payload");
        // Truncation.
        assert!(matches!(
            decode(&img[..img.len() - 1]),
            Err(LggError::CheckpointCorrupt { .. })
        ));
        // Bit flip in the payload.
        let mut flipped = img.clone();
        flipped[HEADER_LEN] ^= 0x40;
        assert!(matches!(
            decode(&flipped),
            Err(LggError::CheckpointCorrupt { .. })
        ));
        // Wrong magic.
        let mut bad_magic = img.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode(&bad_magic),
            Err(LggError::CheckpointCorrupt { .. })
        ));
        // Future version.
        let mut v4 = img.clone();
        v4[8] = 4;
        assert!(matches!(
            decode(&v4),
            Err(LggError::CheckpointVersion {
                found: 4,
                expected: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn file_names_sort_by_step() {
        assert!(file_name(999) < file_name(1000), "zero-padded names sort");
        assert_eq!(parse_file_name(&file_name(42)), Some(42));
        assert_eq!(parse_file_name("ckpt_inflight.tmp"), None);
        assert_eq!(parse_file_name("other.lgg"), None);
    }

    #[test]
    fn atomic_write_list_load_prune() {
        let dir = std::env::temp_dir().join(format!("lgg_ckpt_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        assert_eq!(load_latest(&dir).unwrap(), None, "missing dir is empty");

        write_atomic(&dir, 100, b"at 100").unwrap();
        write_atomic(&dir, 200, b"at 200").unwrap();
        write_atomic(&dir, 300, b"at 300").unwrap();
        assert_eq!(list(&dir).unwrap().len(), 3);
        assert_eq!(
            load_latest(&dir).unwrap(),
            Some((300, b"at 300".to_vec()))
        );

        // A torn in-flight temp file must never shadow a good snapshot.
        fs::write(dir.join(TMP_NAME), b"torn").unwrap();
        assert_eq!(
            load_latest(&dir).unwrap(),
            Some((300, b"at 300".to_vec()))
        );

        // Corrupt the newest snapshot: resume falls back to the previous.
        let newest = dir.join(file_name(300));
        let mut bytes = fs::read(&newest).unwrap();
        bytes[HEADER_LEN] ^= 0xff;
        fs::write(&newest, bytes).unwrap();
        assert_eq!(
            load_latest(&dir).unwrap(),
            Some((200, b"at 200".to_vec()))
        );

        prune(&dir, 1).unwrap();
        assert_eq!(list(&dir).unwrap().len(), 1, "prune keeps the newest");

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_round_trip_and_truncation() {
        let mut out = Vec::new();
        wire::put_u32(&mut out, 7);
        wire::put_u64(&mut out, u64::MAX);
        wire::put_u128(&mut out, 1 << 100);
        wire::put_bool(&mut out, true);
        wire::put_str(&mut out, "lgg");
        wire::put_u64_slice(&mut out, &[1, 2, 3]);
        wire::put_bool_slice(&mut out, &[true, false]);

        let mut r = wire::Reader::new(&out);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), 1 << 100);
        assert!(r.bool_().unwrap());
        assert_eq!(r.str_().unwrap(), "lgg");
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.bool_vec().unwrap(), vec![true, false]);
        r.done().unwrap();

        // Truncated input errors instead of panicking.
        let mut r = wire::Reader::new(&out[..5]);
        assert!(r.u64().is_ok() || r.u64().is_err()); // first u32 read ok
        let mut r = wire::Reader::new(&[1, 0, 0, 0, 0, 0, 0, 0]);
        // Claims 1 element but has no body.
        assert!(r.u64_vec().is_err());
        // Oversized length cannot cause a huge allocation.
        let mut huge = Vec::new();
        wire::put_u64(&mut huge, u64::MAX / 2);
        let mut r = wire::Reader::new(&huge);
        assert!(r.u64_vec().is_err());
        // Invalid bool byte.
        let mut r = wire::Reader::new(&[9]);
        assert!(r.bool_().is_err());
    }
}
