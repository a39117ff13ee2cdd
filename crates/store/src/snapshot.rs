//! Full-state snapshots: periodic checkpoints that bound WAL replay.
//!
//! A snapshot file `snap-<watermark:020>.snap` captures the complete
//! sharded assignment state after the first `watermark` batches (i.e. it
//! covers every record with `seq < watermark`). Layout:
//!
//! ```text
//! "MBSN"  — 4-byte magic
//! u32     — format version (currently 1)
//! frame   — one CRC frame (see crate::frame) whose payload encodes:
//!             u64 watermark
//!             u32 n_shards, per shard: u32 n_edges, n × u32 edge (sorted)
//!             u32 n_weights, n × f64 weight (universe edge-indexed)
//! ```
//!
//! Writes go through a temp file + `rename`, so a crash mid-snapshot
//! leaves at worst a stray `.tmp` — never a half-written `.snap` that
//! could shadow an older good one. [`load_latest`] walks snapshots newest
//! first and skips any that fail the magic/version/CRC/decode checks, so
//! even a snapshot damaged *after* a clean write only costs extra WAL
//! replay, not recovery itself.

use crate::codec::{put_f64, put_u32, put_u64, Reader};
use crate::frame::{read_frame, write_frame, FrameRead};
use crate::record::{get_shards, put_shards, shards_len, DecodeError};
use crate::wal::numbered_files;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// 4-byte file magic.
pub const MAGIC: [u8; 4] = *b"MBSN";
/// On-disk format version.
pub const VERSION: u32 = 1;

const SNAP_PREFIX: &str = "snap-";
const SNAP_SUFFIX: &str = ".snap";

/// The full dispatch state a snapshot captures.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotState {
    /// Number of batches folded into this state — the exclusive upper
    /// bound on covered sequence numbers. WAL replay resumes at
    /// `seq == watermark`.
    pub watermark: u64,
    /// Per shard, the sorted universe edge ids currently assigned.
    pub shards: Vec<Vec<u32>>,
    /// Live edge weights, indexed by universe edge id.
    pub weights: Vec<f64>,
}

fn encode(watermark: u64, shards: &[Vec<u32>], weights: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + shards_len(shards) + 8 * weights.len());
    put_u64(&mut out, watermark);
    put_shards(&mut out, shards);
    put_u32(&mut out, weights.len() as u32);
    for &w in weights {
        put_f64(&mut out, w);
    }
    out
}

fn decode(payload: &[u8]) -> Result<SnapshotState, DecodeError> {
    let mut r = Reader::new(payload);
    let watermark = r.u64()?;
    let shards = get_shards(&mut r)?;
    let n_weights = r.len_prefix(8)?;
    let mut weights = Vec::with_capacity(n_weights);
    for _ in 0..n_weights {
        weights.push(r.f64()?);
    }
    r.finish()?;
    Ok(SnapshotState {
        watermark,
        shards,
        weights,
    })
}

/// Lists snapshot files in `dir`, sorted ascending by watermark.
pub fn snapshot_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    numbered_files(dir, SNAP_PREFIX, SNAP_SUFFIX)
}

/// Writes the state `(watermark, shards, weights)` atomically into `dir`
/// (created if missing) and returns the snapshot's path. Takes the parts
/// rather than a [`SnapshotState`] so any holder of the state — the
/// service's live view, a recovered or followed
/// [`crate::store::RecoveredState`] — is written without a copy.
///
/// Durable on return: the temp file is fsynced before the rename, so the
/// rename never publishes unflushed bytes, and the directory is fsynced
/// after it, so the caller may delete what the snapshot covers (older
/// snapshots, WAL segments) without a power loss keeping the deletions
/// and losing the rename.
pub fn write(
    dir: &Path,
    watermark: u64,
    shards: &[Vec<u32>],
    weights: &[f64],
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let final_path = dir.join(format!("{SNAP_PREFIX}{watermark:020}{SNAP_SUFFIX}"));
    let tmp_path = final_path.with_extension("snap.tmp");
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    write_frame(&mut buf, &encode(watermark, shards, weights));
    let mut f = File::create(&tmp_path)?;
    f.write_all(&buf)?;
    f.sync_data()?;
    drop(f);
    fs::rename(&tmp_path, &final_path)?;
    File::open(dir)?.sync_all()?;
    Ok(final_path)
}

fn load_file(path: &Path) -> Option<SnapshotState> {
    let buf = fs::read(path).ok()?;
    if buf.len() < 8 || buf[..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if version != VERSION {
        return None;
    }
    match read_frame(&buf, 8) {
        FrameRead::Frame { payload, next } if next == buf.len() => decode(payload).ok(),
        _ => None,
    }
}

/// Loads the newest snapshot in `dir` that passes every integrity check,
/// skipping damaged ones. `Ok(None)` when no usable snapshot exists; an
/// error only for an unreadable directory.
pub fn load_latest(dir: &Path) -> io::Result<Option<SnapshotState>> {
    let snaps = snapshot_files(dir)?;
    Ok(snaps.iter().rev().find_map(|(_, path)| load_file(path)))
}

/// Removes snapshots older than `keep_watermark` (the newest one is kept
/// even if equal). Returns the number removed.
pub fn prune(dir: &Path, keep_watermark: u64) -> io::Result<usize> {
    let mut removed = 0;
    for (watermark, path) in snapshot_files(dir)? {
        if watermark < keep_watermark {
            fs::remove_file(path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mbta-store-snap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(watermark: u64) -> SnapshotState {
        SnapshotState {
            watermark,
            shards: vec![vec![0, 3, 9], vec![], vec![4]],
            weights: vec![0.5, 0.0, 1.25, f64::MIN_POSITIVE],
        }
    }

    fn write(dir: &Path, s: &SnapshotState) -> io::Result<PathBuf> {
        super::write(dir, s.watermark, &s.shards, &s.weights)
    }

    #[test]
    fn write_load_round_trip() {
        let dir = tmp("round-trip");
        let state = sample(17);
        write(&dir, &state).unwrap();
        assert_eq!(load_latest(&dir).unwrap(), Some(state));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_wins_and_corrupt_latest_falls_back() {
        let dir = tmp("fallback");
        write(&dir, &sample(5)).unwrap();
        let newest = write(&dir, &sample(9)).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap().watermark, 9);
        // Damage the newest: loading falls back to the older good one.
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, bytes).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap().watermark, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmp("prune");
        for w in [3, 7, 11] {
            write(&dir, &sample(w)).unwrap();
        }
        let removed = prune(&dir, 11).unwrap();
        assert_eq!(removed, 2);
        let left = snapshot_files(&dir).unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].0, 11);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let dir = tmp("magic");
        let path = write(&dir, &sample(2)).unwrap();
        let good = fs::read(&path).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        fs::write(&path, &bad_magic).unwrap();
        assert_eq!(load_latest(&dir).unwrap(), None);

        let mut bad_version = good;
        bad_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bad_version).unwrap();
        assert_eq!(load_latest(&dir).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }
}
