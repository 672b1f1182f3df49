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
//! # Container format (version 6)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"LGGCKPT1"
//! 8       4     format version (u32 LE) = 6
//! 12      8     step count t (u64 LE)
//! 20      8     payload length (u64 LE)
//! 28      n     payload (opaque engine bytes, see DESIGN.md §11)
//! 28+n    8     FNV-1a digest (u64 LE) over bytes [0, 28+n)
//! ```
//!
//! The payload is a sequence of [`wire`] records: unsigned integers as
//! LEB128 varints, `f64` values and RNG state words as fixed eight-byte
//! bit patterns. No part of it is JSON.
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
pub const FORMAT_VERSION: u32 = 6;

const MAGIC: &[u8; 8] = b"LGGCKPT1";
const HEADER_LEN: usize = 8 + 4 + 8 + 8;
const DIGEST_LEN: usize = 8;
const TMP_NAME: &str = "ckpt_inflight.tmp";

/// Completed snapshots [`Simulation::write_checkpoint_to`](crate::Simulation::write_checkpoint_to)
/// keeps: the previous one survives until its successor is fully durable.
pub const KEEP: usize = 2;

/// When and where the engine writes periodic checkpoints
/// (see [`Simulation::set_checkpoint`](crate::Simulation::set_checkpoint)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Write a snapshot every this many steps (≥ 1).
    pub every: u64,
    /// Directory holding `ckpt_<t>.lgg` files (created on first write).
    pub dir: PathBuf,
}

impl CheckpointConfig {
    /// A config writing every `every` steps into `dir`.
    pub fn new(every: u64, dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            every: every.max(1),
            dir: dir.into(),
        }
    }

    /// Whether a periodic snapshot is due once the clock reads `t`: the
    /// one snapshot rule every stepping loop follows.
    pub fn due(&self, t: u64) -> bool {
        t.is_multiple_of(self.every)
    }
}

/// FNV-1a over `bytes` — the same digest `lgg-sim trace --digest` and the
/// sweep artifacts use, so shell scripts can cross-check with one
/// implementation.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a digest `h` over `bytes`: `fnv1a_extend(fnv1a(a), b)`
/// is `fnv1a` of `a` followed by `b`, so a file can be sealed piece by
/// piece without concatenating it first.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The container header of a step-`t` snapshot with a `len`-byte payload.
fn header(t: u64, len: usize) -> [u8; HEADER_LEN] {
    let mut h = [0; HEADER_LEN];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&t.to_le_bytes());
    h[20..28].copy_from_slice(&(len as u64).to_le_bytes());
    h
}

/// The digest that closes a file: FNV-1a over the header, then the payload.
fn seal(header: &[u8; HEADER_LEN], payload: &[u8]) -> [u8; DIGEST_LEN] {
    fnv1a_extend(fnv1a(header), payload).to_le_bytes()
}

/// Serializes a complete checkpoint file image for `payload` at step `t`.
pub fn encode(t: u64, payload: &[u8]) -> Vec<u8> {
    let header = header(t, payload.len());
    [&header[..], payload, &seal(&header, payload)].concat()
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
    {
        let mut f = File::create(&tmp)
            .map_err(|e| LggError::io(format!("cannot create {}", tmp.display()), e))?;
        // The three parts of the `encode` image, written as they are: the
        // payload is never copied into a file-sized buffer.
        let header = header(t, payload.len());
        [&header[..], payload, &seal(&header, payload)]
            .into_iter()
            .try_for_each(|part| f.write_all(part))
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
        let entry = entry.map_err(|e| LggError::io(format!("cannot read {}", dir.display()), e))?;
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

/// Reads and validates one snapshot file, returning `(t, payload)`. The
/// payload is the file buffer itself, with header and digest cut off.
pub fn read_snapshot(path: &Path) -> Result<(u64, Vec<u8>), LggError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| LggError::io(format!("cannot read {}", path.display()), e))?;
    let t = decode(&bytes)?.0;
    bytes.truncate(bytes.len() - DIGEST_LEN);
    bytes.drain(..HEADER_LEN);
    Ok((t, bytes))
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

/// The wire encoding shared by every component's `save_state`/`load_state`
/// pair (public so out-of-crate
/// [`RoutingProtocol`](crate::RoutingProtocol) and
/// [`SimObserver`](crate::SimObserver) implementations — `lgg-core`, the
/// CLI — speak the same encoding).
///
/// One rule: every unsigned integer — count, length, counter, queue,
/// `u128` sum — is an LEB128 varint (seven value bits per byte, low group
/// first, the high bit set on every byte but the last), so small values
/// cost one byte. Only bit patterns stay fixed-width: `f64` values and
/// RNG state words are eight little-endian bytes ([`put_word`]).
pub mod wire {
    use crate::error::LggError;

    /// Longest varint a `u64` may use: ⌈64 / 7⌉ bytes.
    const U64_MAX_BYTES: usize = 10;
    /// Longest varint a `u128` may use: ⌈128 / 7⌉ bytes.
    const U128_MAX_BYTES: usize = 19;

    fn truncated(what: &str) -> LggError {
        LggError::corrupt(format!("state blob truncated reading {what}"))
    }

    fn too_large(what: &str) -> LggError {
        LggError::corrupt(format!("varint too large for a {what}"))
    }

    /// Appends a `u32` varint.
    pub fn put_u32(out: &mut Vec<u8>, x: u32) {
        put_u64(out, x as u64);
    }

    /// Appends a `u64` varint.
    pub fn put_u64(out: &mut Vec<u8>, mut x: u64) {
        while x >= 0x80 {
            out.push(x as u8 | 0x80);
            x >>= 7;
        }
        out.push(x as u8);
    }

    /// Appends a `u128` varint.
    pub fn put_u128(out: &mut Vec<u8>, mut x: u128) {
        while x >= 0x80 {
            out.push(x as u8 | 0x80);
            x >>= 7;
        }
        out.push(x as u8);
    }

    /// Appends a 64-bit bit pattern (an RNG state word) as eight fixed
    /// little-endian bytes: such words are uniform, so a varint would
    /// only grow them.
    pub fn put_word(out: &mut Vec<u8>, x: u64) {
        out.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends an `f64` by its bit pattern (exact round trip).
    pub fn put_f64(out: &mut Vec<u8>, x: f64) {
        put_word(out, x.to_bits());
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

    /// Appends the length-prefixed record that `body` writes, in place:
    /// the body goes straight into `out`, then its varint length is moved
    /// in front of it (one memmove), so nested records need no scratch
    /// buffer. The bytes equal `put_bytes` of the body.
    pub fn put_nested(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
        let start = out.len();
        body(out);
        let body_end = out.len();
        put_u64(out, (body_end - start) as u64);
        let prefix = out.len() - body_end;
        out[start..].rotate_right(prefix);
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

        /// Reads a `u32` varint.
        pub fn u32(&mut self) -> Result<u32, LggError> {
            u32::try_from(self.u64()?).map_err(|_| too_large("u32"))
        }

        /// Reads a `u64` varint: at most ten bytes, the tenth carrying
        /// bit 63 alone.
        pub fn u64(&mut self) -> Result<u64, LggError> {
            // One-byte values, most of a payload, need no group checks.
            if let Some(&b) = self.buf.get(self.pos).filter(|&&b| b < 0x80) {
                self.pos += 1;
                return Ok(u64::from(b));
            }
            let mut x = 0u64;
            for i in 0..U64_MAX_BYTES {
                let b = *self.buf.get(self.pos).ok_or_else(|| truncated("u64"))?;
                self.pos += 1;
                let group = u64::from(b & 0x7f);
                x |= group << (7 * i);
                if b & 0x80 == 0 {
                    return if i == U64_MAX_BYTES - 1 && group > 1 {
                        Err(too_large("u64"))
                    } else {
                        Ok(x)
                    };
                }
            }
            Err(LggError::corrupt(format!(
                "u64 varint longer than {U64_MAX_BYTES} bytes"
            )))
        }

        /// Reads a `u128` varint of at most nineteen bytes.
        pub fn u128(&mut self) -> Result<u128, LggError> {
            let mut x = 0u128;
            for i in 0..U128_MAX_BYTES {
                let b = *self.buf.get(self.pos).ok_or_else(|| truncated("u128"))?;
                self.pos += 1;
                let (group, shift) = ((b & 0x7f) as u128, 7 * i as u32);
                if (group << shift) >> shift != group {
                    return Err(too_large("u128"));
                }
                x |= group << shift;
                if b & 0x80 == 0 {
                    return Ok(x);
                }
            }
            Err(LggError::corrupt(format!(
                "u128 varint longer than {U128_MAX_BYTES} bytes"
            )))
        }

        /// Reads a bit pattern written by [`put_word`].
        pub fn word(&mut self) -> Result<u64, LggError> {
            Ok(u64::from_le_bytes(
                self.take(8, "word")?.try_into().expect("8 bytes"),
            ))
        }

        /// Reads an `f64` written by [`put_f64`].
        pub fn f64(&mut self) -> Result<f64, LggError> {
            Ok(f64::from_bits(self.word()?))
        }

        /// Reads an element count and checks that that many records of at
        /// least `min_bytes` encoded bytes each fit in what is left, so a
        /// corrupt (but digest-colliding) count fails here instead of
        /// triggering a huge allocation.
        pub fn count(&mut self, min_bytes: usize) -> Result<usize, LggError> {
            let n = self.u64()?;
            let fits = usize::try_from(n).ok().filter(|&n| {
                n.checked_mul(min_bytes.max(1))
                    .is_some_and(|b| b <= self.remaining())
            });
            fits.ok_or_else(|| {
                LggError::corrupt(format!("element count {n} exceeds the state blob"))
            })
        }

        /// Reads a `bool` byte (strictly 0 or 1).
        pub fn bool_(&mut self) -> Result<bool, LggError> {
            match self.take(1, "bool")?[0] {
                0 => Ok(false),
                1 => Ok(true),
                b => Err(LggError::corrupt(format!("invalid bool byte {b}"))),
            }
        }

        /// Reads a count, then that many records with `read`; each record
        /// takes at least `min_bytes` on the wire (see [`Reader::count`]).
        pub fn seq<T>(
            &mut self,
            min_bytes: usize,
            mut read: impl FnMut(&mut Self) -> Result<T, LggError>,
        ) -> Result<Vec<T>, LggError> {
            let n = self.count(min_bytes)?;
            (0..n).map(|_| read(self)).collect()
        }

        /// Reads a length-prefixed byte string.
        pub fn bytes(&mut self) -> Result<&'a [u8], LggError> {
            let n = self.count(1)?;
            self.take(n, "bytes")
        }

        /// Reads a length-prefixed UTF-8 string.
        pub fn str_(&mut self) -> Result<&'a str, LggError> {
            std::str::from_utf8(self.bytes()?)
                .map_err(|_| LggError::corrupt("invalid UTF-8 in state blob"))
        }

        /// Reads a length-prefixed `u64` vector.
        pub fn u64_vec(&mut self) -> Result<Vec<u64>, LggError> {
            self.seq(1, Self::u64)
        }

        /// Reads a length-prefixed `bool` vector.
        pub fn bool_vec(&mut self) -> Result<Vec<bool>, LggError> {
            self.bytes()?
                .iter()
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

    #[cfg(test)]
    mod tests {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// The varint reader before its `u64` loop, kept verbatim as the
        /// reference: every width went through `u128` groups.
        fn reference_varint(
            r: &mut Reader<'_>,
            max_bytes: usize,
            what: &str,
        ) -> Result<u128, LggError> {
            if let Some(&b) = r.buf.get(r.pos).filter(|&&b| b < 0x80) {
                r.pos += 1;
                return Ok(b as u128);
            }
            let mut x = 0u128;
            for i in 0..max_bytes {
                let b = *r.buf.get(r.pos).ok_or_else(|| truncated(what))?;
                r.pos += 1;
                let (group, shift) = ((b & 0x7f) as u128, 7 * i as u32);
                if (group << shift) >> shift != group {
                    return Err(too_large(what));
                }
                x |= group << shift;
                if b & 0x80 == 0 {
                    return Ok(x);
                }
            }
            Err(LggError::corrupt(format!(
                "{what} varint longer than {max_bytes} bytes"
            )))
        }

        fn reference_u64(r: &mut Reader<'_>) -> Result<u64, LggError> {
            u64::try_from(reference_varint(r, U64_MAX_BYTES, "u64")?).map_err(|_| too_large("u64"))
        }

        fn reference_u32(r: &mut Reader<'_>) -> Result<u32, LggError> {
            u32::try_from(reference_u64(r)?).map_err(|_| too_large("u32"))
        }

        /// Reads the whole of `bytes` as a run of values with both
        /// readers, comparing each value or error message and the reader
        /// position after it; stops at the first error.
        fn same_reads<T: PartialEq + std::fmt::Debug>(
            bytes: &[u8],
            read: fn(&mut Reader<'_>) -> Result<T, LggError>,
            reference: fn(&mut Reader<'_>) -> Result<T, LggError>,
        ) -> Result<(), TestCaseError> {
            let (mut a, mut b) = (Reader::new(bytes), Reader::new(bytes));
            while a.remaining() > 0 {
                let (got, want) = (read(&mut a), reference(&mut b));
                prop_assert_eq!(a.pos, b.pos, "position on {:02x?}", bytes);
                match (got, want) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                    (Err(x), Err(y)) => {
                        prop_assert_eq!(x.to_string(), y.to_string());
                        break;
                    }
                    (x, y) => {
                        return Err(TestCaseError::fail(format!(
                            "{x:?} != {y:?} on {bytes:02x?}"
                        )))
                    }
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn u64_reader_equals_the_reference(seed in any::<u64>()) {
                // Varint-shaped runs of 1 to 12 bytes whose last byte is
                // often 0..=3 (the edge of the tenth byte), with stray
                // raw bytes, cut at a random length: long, overlong,
                // too-large and truncated varints all come up.
                let mut rng = StdRng::seed_from_u64(seed);
                let mut bytes = Vec::new();
                for _ in 0..rng.random_range(1..=4u32) {
                    let len = rng.random_range(1..=12usize);
                    bytes.extend((1..len).map(|_| 0x80 | rng.random_range(0..0x80u8)));
                    bytes.push(match rng.random_range(0..3u32) {
                        0 => rng.random_range(0..4u8),
                        1 => rng.random_range(0..0x80u8),
                        _ => rng.random::<f64>().to_bits() as u8,
                    });
                }
                bytes.truncate(rng.random_range(0..=bytes.len()));
                same_reads(&bytes, |r| r.u64(), reference_u64)?;
                same_reads(&bytes, |r| r.u32(), reference_u32)?;
            }
        }

        #[test]
        fn u64_reader_equals_the_reference_at_the_width_edges() {
            let cont = |n: usize, last: u8| {
                let mut v = vec![0xff; n];
                v.push(last);
                v
            };
            let mut cases = vec![cont(9, 0x00), cont(9, 0x01), cont(9, 0x02), cont(9, 0x7f)];
            cases.extend([cont(9, 0x81), cont(10, 0x00), cont(8, 0x01), vec![0xff; 9]]);
            cases.extend([vec![0x80, 0x00], cont(4, 0x0f), cont(4, 0x10), vec![]]);
            for bytes in cases {
                same_reads(&bytes, |r| r.u64(), reference_u64).unwrap();
                same_reads(&bytes, |r| r.u32(), reference_u32).unwrap();
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
        let mut v7 = img.clone();
        v7[8] = 7;
        assert!(matches!(
            decode(&v7),
            Err(LggError::CheckpointVersion {
                found: 7,
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
        assert_eq!(
            fs::read(dir.join(file_name(100))).unwrap(),
            encode(100, b"at 100"),
            "the file is the encoded image"
        );
        write_atomic(&dir, 200, b"at 200").unwrap();
        write_atomic(&dir, 300, b"at 300").unwrap();
        assert_eq!(list(&dir).unwrap().len(), 3);
        assert_eq!(load_latest(&dir).unwrap(), Some((300, b"at 300".to_vec())));

        // A torn in-flight temp file must never shadow a good snapshot.
        fs::write(dir.join(TMP_NAME), b"torn").unwrap();
        assert_eq!(load_latest(&dir).unwrap(), Some((300, b"at 300".to_vec())));

        // Corrupt the newest snapshot: resume falls back to the previous.
        let newest = dir.join(file_name(300));
        let mut bytes = fs::read(&newest).unwrap();
        bytes[HEADER_LEN] ^= 0xff;
        fs::write(&newest, bytes).unwrap();
        assert_eq!(load_latest(&dir).unwrap(), Some((200, b"at 200".to_vec())));

        prune(&dir, 1).unwrap();
        assert_eq!(list(&dir).unwrap().len(), 1, "prune keeps the newest");

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_round_trip_and_truncation() {
        let mut out = Vec::new();
        wire::put_u32(&mut out, 7);
        wire::put_u64(&mut out, u64::MAX);
        wire::put_u128(&mut out, u128::MAX);
        wire::put_word(&mut out, 0x0123_4567_89ab_cdef);
        wire::put_f64(&mut out, -0.5);
        wire::put_bool(&mut out, true);
        wire::put_str(&mut out, "lgg");
        wire::put_u64_slice(&mut out, &[1, 2, 3]);
        wire::put_bool_slice(&mut out, &[true, false]);

        let mut r = wire::Reader::new(&out);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), u128::MAX);
        assert_eq!(r.word().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.f64().unwrap(), -0.5);
        assert!(r.bool_().unwrap());
        assert_eq!(r.str_().unwrap(), "lgg");
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.bool_vec().unwrap(), vec![true, false]);
        r.done().unwrap();

        // Every truncation errors instead of panicking.
        for cut in 0..out.len() {
            let mut r = wire::Reader::new(&out[..cut]);
            let read = (|| -> Result<(), LggError> {
                r.u32()?;
                r.u64()?;
                r.u128()?;
                r.word()?;
                r.f64()?;
                r.bool_()?;
                r.str_()?;
                r.u64_vec()?;
                r.bool_vec()?;
                Ok(())
            })();
            assert!(matches!(read, Err(LggError::CheckpointCorrupt { .. })));
        }
        // Claims 1 element but has no body.
        assert!(wire::Reader::new(&[1]).u64_vec().is_err());
        // Oversized length cannot cause a huge allocation.
        let mut huge = Vec::new();
        wire::put_u64(&mut huge, u64::MAX / 2);
        assert!(wire::Reader::new(&huge).u64_vec().is_err());
        // Invalid bool byte.
        assert!(wire::Reader::new(&[9]).bool_().is_err());
    }

    #[test]
    fn nested_records_equal_copied_ones() {
        // Bodies whose length prefix takes one, two and three bytes,
        // written after other bytes and inside another nested record.
        for len in [0, 1, 127, 128, 20_000] {
            let body: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let (mut copied, mut nested) = (vec![7], vec![7]);
            wire::put_bytes(&mut copied, &body);
            wire::put_nested(&mut nested, |out| out.extend_from_slice(&body));
            assert_eq!(nested, copied, "{len}-byte body");
            let (mut outer, mut outer_nested) = (Vec::new(), Vec::new());
            wire::put_bytes(&mut outer, &copied);
            wire::put_nested(&mut outer_nested, |out| {
                out.push(7);
                wire::put_nested(out, |out| out.extend_from_slice(&body));
            });
            assert_eq!(outer_nested, outer, "{len}-byte body, nested twice");
        }
    }

    #[test]
    fn varints_are_short_and_bounded() {
        for (x, len) in [(0u64, 1), (127, 1), (128, 2), (1 << 20, 3), (u64::MAX, 10)] {
            let mut out = Vec::new();
            wire::put_u64(&mut out, x);
            assert_eq!(out.len(), len, "{x}");
            assert_eq!(wire::Reader::new(&out).u64().unwrap(), x);
        }
        let mut out = Vec::new();
        wire::put_u128(&mut out, u128::MAX);
        assert_eq!(out.len(), 19);

        let corrupt = |bytes: &[u8], read: fn(&mut wire::Reader<'_>) -> Result<(), LggError>| {
            let err = read(&mut wire::Reader::new(bytes)).unwrap_err();
            assert!(matches!(err, LggError::CheckpointCorrupt { .. }), "{err}");
            err.to_string()
        };
        let as_u32 = |r: &mut wire::Reader<'_>| r.u32().map(drop);
        let as_u64 = |r: &mut wire::Reader<'_>| r.u64().map(drop);
        let as_u128 = |r: &mut wire::Reader<'_>| r.u128().map(drop);
        // An 11-byte u64 and a 20-byte u128 are too long.
        let mut long = vec![0x80; 10];
        long.push(0);
        assert!(corrupt(&long, as_u64).contains("longer than 10"));
        let mut long = vec![0x80; 19];
        long.push(0);
        assert!(corrupt(&long, as_u128).contains("longer than 19"));
        // 2^64 in a u64 field, 2^128 in a u128 field, 2^32 in a u32.
        let mut two_64 = vec![0x80; 9];
        two_64.push(0x02);
        assert!(corrupt(&two_64, as_u64).contains("too large"));
        assert_eq!(
            wire::Reader::new(&two_64).u128().unwrap(),
            1u128 << 64,
            "the same bytes are a valid u128"
        );
        let mut two_128 = vec![0x80; 18];
        two_128.push(0x04);
        assert!(corrupt(&two_128, as_u128).contains("too large"));
        let mut two_32 = Vec::new();
        wire::put_u64(&mut two_32, 1 << 32);
        assert!(corrupt(&two_32, as_u32).contains("too large"));
        // A varint cut short.
        assert!(corrupt(&[0xff, 0xff], as_u64).contains("truncated"));
    }
}
