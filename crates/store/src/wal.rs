//! Segmented append-only write-ahead log.
//!
//! A WAL directory holds segment files named `wal-<first_seq:020>.seg`
//! (the zero-padded first batch sequence number in the segment, so
//! lexicographic order is numeric order). Each segment is a run of CRC
//! frames (see [`crate::frame`]) whose payloads are encoded
//! [`crate::record::WalRecord`]s — batch or online decisions, or
//! shard-plan migrations — sharing a single strictly ascending `seq`
//! space. A new segment starts when the current one crosses
//! [`WalConfig::segment_bytes`]; compaction deletes whole segments whose
//! records all fall at or below a snapshot watermark. This module is the
//! write half; every read of the log goes through [`crate::tail::WalTail`].
//!
//! Durability is governed by [`FsyncPolicy`]: `always` fsyncs after every
//! append (a crash loses at most the in-flight record), `batch` fsyncs
//! every [`WalConfig::batch_fsync_every`] appends (bounded loss, much
//! cheaper), `never` leaves flushing to the OS (benchmarks only).
//!
//! Orthogonally, [`WalConfig::group_every`] enables **group commit**:
//! encoded frames accumulate in an in-memory buffer and reach the file
//! in one `write` per window (and exactly one fsync, when the policy
//! fsyncs at all) instead of one syscall per record. The default window
//! of 1 is plain write-through; larger windows trade a wider crash-loss
//! window — bounded by the same fsync cadence that already bounds
//! `batch` — for far fewer syscalls on the per-event online path.

use crate::frame::write_frame;
use crate::tail::{TailPoll, WalTail};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// When the WAL calls `fsync` on the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record. Strongest guarantee: a crash
    /// loses at most the record being written.
    Always,
    /// fsync every [`WalConfig::batch_fsync_every`] records and on
    /// segment roll/seal. A crash can lose up to one fsync window.
    Batch,
    /// Never fsync explicitly; the OS flushes when it pleases. Only
    /// defensible for benchmarks and throwaway runs.
    Never,
}

impl FsyncPolicy {
    /// The CLI-facing name (`always` / `batch` / `never`).
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        }
    }

    /// Parses a CLI-facing name.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

/// Tuning knobs for [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Fsync policy for the active segment.
    pub fsync: FsyncPolicy,
    /// Roll to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Fsync cadence under [`FsyncPolicy::Batch`] (records per fsync).
    pub batch_fsync_every: u64,
    /// Group-commit window: buffer this many records in memory before
    /// one combined `write` to the active segment. `1` (the default)
    /// writes through on every append; an fsync (policy-driven or
    /// explicit [`Wal::sync`]) always flushes the buffer first.
    pub group_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync: FsyncPolicy::Batch,
            segment_bytes: 8 << 20,
            batch_fsync_every: 16,
            group_every: 1,
        }
    }
}

const SEG_PREFIX: &str = "wal-";
const SEG_SUFFIX: &str = ".seg";

/// Lists the files in `dir` named `<prefix><number><suffix>`, sorted by
/// number — the one lister behind [`segment_files`] and
/// [`crate::snapshot::snapshot_files`]. Anything else in the directory
/// (heartbeat, temp files, strangers) is ignored.
pub(crate) fn numbered_files(
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let number = name
            .to_str()
            .and_then(|n| n.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok());
        if let Some(number) = number {
            files.push((number, entry.path()));
        }
    }
    files.sort();
    Ok(files)
}

/// Lists segment files in `dir`, sorted by first sequence number.
pub fn segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    numbered_files(dir, SEG_PREFIX, SEG_SUFFIX)
}

/// The writer half: appends encoded records to the active segment.
pub struct Wal {
    dir: PathBuf,
    cfg: WalConfig,
    /// Active segment, opened lazily at the first append so the segment
    /// file can be named after the record that starts it.
    active: Option<ActiveSegment>,
    appends_since_fsync: u64,
    /// Encoded frames awaiting their group-commit write (always empty
    /// when `group_every == 1`).
    pending: Vec<u8>,
    pending_records: u64,
    records: u64,
    bytes: u64,
}

struct ActiveSegment {
    file: File,
    len: u64,
}

impl Wal {
    /// Opens a WAL writer in `dir`, creating the directory if needed.
    /// Appending continues in a fresh segment; existing segments are left
    /// for [`replay`] and compaction.
    pub fn open(dir: &Path, cfg: WalConfig) -> io::Result<Wal> {
        fs::create_dir_all(dir)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            cfg,
            active: None,
            appends_since_fsync: 0,
            pending: Vec::new(),
            pending_records: 0,
            records: 0,
            bytes: 0,
        })
    }

    /// Records appended through this writer.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes appended through this writer (frames, not payloads).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends one encoded record (`payload`, carrying sequence number
    /// `seq`) as a frame, honouring the fsync policy. Rolls to a new
    /// segment — named after `seq` — first if the active one is full.
    /// Every record kind shares this path and the one sequence space.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> io::Result<()> {
        let roll = match &self.active {
            Some(seg) => seg.len + self.pending.len() as u64 >= self.cfg.segment_bytes,
            None => true,
        };
        if roll {
            self.roll(seq)?;
        }
        // Frames land in the group-commit buffer first; with the default
        // window of 1 the buffer drains to the file on this very append.
        let before = self.pending.len();
        write_frame(&mut self.pending, payload);
        let frame_len = (self.pending.len() - before) as u64;
        self.pending_records += 1;
        self.records += 1;
        self.bytes += frame_len;
        mbta_telemetry::counter_add!("mbta_store_wal_records_total", 1);
        mbta_telemetry::counter_add!("mbta_store_wal_bytes_total", frame_len);

        self.appends_since_fsync += 1;
        let due = match self.cfg.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch => self.appends_since_fsync >= self.cfg.batch_fsync_every.max(1),
            FsyncPolicy::Never => false,
        };
        if due {
            self.fsync_active()?;
        } else if self.pending_records >= self.cfg.group_every.max(1) {
            self.flush_pending()?;
        }
        Ok(())
    }

    /// Writes the group-commit buffer to the active segment in one
    /// syscall. No fsync: durability stays with the fsync policy.
    fn flush_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let seg = self
            .active
            .as_mut()
            .expect("pending frames imply an active segment");
        seg.file.write_all(&self.pending)?;
        seg.len += self.pending.len() as u64;
        self.pending.clear();
        self.pending_records = 0;
        Ok(())
    }

    /// Flushes and fsyncs the active segment regardless of policy. Called
    /// on seal and before snapshots so the snapshot never gets ahead of
    /// the journal on disk.
    pub fn sync(&mut self) -> io::Result<()> {
        self.fsync_active()
    }

    fn fsync_active(&mut self) -> io::Result<()> {
        self.flush_pending()?;
        if let Some(seg) = &mut self.active {
            let t = Instant::now();
            seg.file.sync_data()?;
            mbta_telemetry::observe!("mbta_store_fsync_ms", t.elapsed().as_secs_f64() * 1e3);
        }
        self.appends_since_fsync = 0;
        Ok(())
    }

    fn roll(&mut self, first_seq: u64) -> io::Result<()> {
        // Seal the outgoing segment: drain any group-commit buffer into
        // it (its frames belong to the old segment), then make them
        // durable before anything lands in the next one.
        if self.active.is_some() {
            self.flush_pending()?;
            if self.cfg.fsync != FsyncPolicy::Never {
                self.fsync_active()?;
            }
        }
        let path = self
            .dir
            .join(format!("{SEG_PREFIX}{first_seq:020}{SEG_SUFFIX}"));
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        self.active = Some(ActiveSegment { file, len: 0 });
        mbta_telemetry::counter_add!("mbta_store_wal_segments_total", 1);
        Ok(())
    }

    /// Deletes segments fully covered by a snapshot at `watermark`
    /// (exclusive: the snapshot folds in every record with
    /// `seq < watermark`). A segment is dropped only when the *next*
    /// segment's first seq proves it holds no record `>= watermark`; the
    /// last segment is never dropped. Returns the number removed.
    pub fn compact(dir: &Path, watermark: u64) -> io::Result<usize> {
        let segs = segment_files(dir)?;
        let mut removed = 0;
        for pair in segs.windows(2) {
            let (_, ref path) = pair[0];
            let (next_first, _) = pair[1];
            // Replay needs every record with seq >= watermark. The earlier
            // segment's last record has seq == next_first - 1.
            if next_first <= watermark {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Reads the whole log in `dir`, from the first record of its first
/// segment: one poll of a [`WalTail`] started there, so it ends where
/// every reader's durable prefix ends (see [`WalTail::poll`]). Damaged
/// data never fails the scan; real I/O errors are returned.
pub fn replay(dir: &Path) -> io::Result<TailPoll> {
    let first = segment_files(dir)?.first().map_or(0, |(first, _)| *first);
    WalTail::resume_from(dir, first).poll()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, FrameRead};
    use crate::record::{BatchRecord, PlanRecord, WalRecord, WeightDelta};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mbta-store-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(seq: u64) -> BatchRecord {
        BatchRecord {
            seq,
            first_time: seq as f64,
            last_time: seq as f64 + 0.5,
            events: 2,
            deltas: vec![WeightDelta {
                edge: seq as u32,
                weight: 1.0 + seq as f64,
            }],
            decisions: vec![],
        }
    }

    fn append(wal: &mut Wal, rec: &BatchRecord) {
        wal.append(rec.seq, &rec.encode()).unwrap();
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmp("round-trip");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        for seq in 0..5 {
            append(&mut wal, &rec(seq));
        }
        wal.sync().unwrap();
        let replayed = replay(&dir).unwrap();
        assert_eq!(
            replayed.records,
            (0..5).map(|s| WalRecord::Batch(rec(s))).collect::<Vec<_>>()
        );
        assert_eq!(replayed.blocked_bytes, 0);
        assert!(replayed.torn.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_frames_interleave_with_batches() {
        let dir = tmp("plan-frames");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        append(&mut wal, &rec(0));
        let plan = PlanRecord {
            seq: 1,
            retained_weight: 0.5,
            moved_workers: 2,
            moved_tasks: 3,
            shards: vec![vec![0, 4], vec![1]],
        };
        wal.append(plan.seq, &plan.encode()).unwrap();
        append(&mut wal, &rec(2));
        wal.sync().unwrap();
        let replayed = replay(&dir).unwrap();
        assert_eq!(
            replayed.records,
            vec![
                WalRecord::Batch(rec(0)),
                WalRecord::Plan(plan),
                WalRecord::Batch(rec(2)),
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rolls_segments_and_replays_across_them() {
        let dir = tmp("roll");
        let cfg = WalConfig {
            segment_bytes: 64, // force a roll every couple of records
            ..WalConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg).unwrap();
        for seq in 0..10 {
            append(&mut wal, &rec(seq));
        }
        wal.sync().unwrap();
        let segs = segment_files(&dir).unwrap();
        assert!(segs.len() > 1, "expected multiple segments, got {segs:?}");
        // Segment names carry their first seq, ascending.
        assert_eq!(segs[0].0, 0);
        assert!(segs.windows(2).all(|w| w[0].0 < w[1].0));
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.records.len(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp("torn");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        for seq in 0..4 {
            append(&mut wal, &rec(seq));
        }
        wal.sync().unwrap();
        drop(wal);
        // Chop mid-record: replay keeps the intact prefix.
        let (_, path) = segment_files(&dir).unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.records.len(), 3);
        assert!(replayed.blocked_bytes > 0);
        let (torn_path, durable) = replayed.torn.unwrap();
        assert_eq!(torn_path, path);
        assert!(durable < bytes.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_drops_only_fully_covered_segments() {
        let dir = tmp("compact");
        let cfg = WalConfig {
            segment_bytes: 64,
            ..WalConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg).unwrap();
        for seq in 0..12 {
            append(&mut wal, &rec(seq));
        }
        wal.sync().unwrap();
        let before = segment_files(&dir).unwrap();
        assert!(before.len() >= 3);
        // A snapshot ending exactly where the second segment begins covers
        // precisely the first segment.
        let watermark = before[1].0;
        let removed = Wal::compact(&dir, watermark).unwrap();
        assert_eq!(removed, 1);
        // Replay of the remainder starts exactly where the snapshot ends.
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.records.first().unwrap().seq(), watermark);
        assert_eq!(replayed.records.last().unwrap().seq(), 11);
        // Compacting at the final watermark keeps the last segment.
        let _ = Wal::compact(&dir, 12).unwrap();
        assert!(!segment_files(&dir).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_buffers_until_window_or_sync() {
        let dir = tmp("group");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never, // isolate the group window
            group_every: 4,
            ..WalConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg).unwrap();
        for seq in 0..3 {
            append(&mut wal, &rec(seq));
        }
        // Window not reached: all three frames still sit in memory.
        assert_eq!(replay(&dir).unwrap().records.len(), 0);
        append(&mut wal, &rec(3));
        // Fourth append filled the window: one combined write landed.
        assert_eq!(replay(&dir).unwrap().records.len(), 4);
        append(&mut wal, &rec(4));
        assert_eq!(replay(&dir).unwrap().records.len(), 4);
        // Explicit sync drains a partial window.
        wal.sync().unwrap();
        assert_eq!(replay(&dir).unwrap().records.len(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_flushes_into_the_old_segment_on_roll() {
        let dir = tmp("group-roll");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Batch,
            segment_bytes: 64,
            group_every: 64, // wider than any segment: only rolls flush
            ..WalConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg).unwrap();
        for seq in 0..10 {
            append(&mut wal, &rec(seq));
        }
        wal.sync().unwrap();
        let segs = segment_files(&dir).unwrap();
        assert!(segs.len() > 1, "expected a roll, got {segs:?}");
        // Nothing lost, nothing reordered, and each segment starts at
        // the sequence number its name claims.
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.records.len(), 10);
        assert!(replayed.torn.is_none());
        for (first_seq, path) in &segs {
            let buf = fs::read(path).unwrap();
            if let FrameRead::Frame { payload, .. } = read_frame(&buf, 0) {
                assert_eq!(WalRecord::decode(payload).unwrap().seq(), *first_seq);
            } else {
                panic!("segment {path:?} does not start with a frame");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_names_round_trip() {
        for p in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Never] {
            assert_eq!(FsyncPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}
