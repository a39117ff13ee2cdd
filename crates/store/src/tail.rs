//! The read path: one cursor over the WAL, and the liveness heartbeat.
//!
//! * [`WalTail`] — a cursor over the segment files, positioned at a
//!   sequence number, that can be polled repeatedly. It is the **only**
//!   code that walks WAL frames, so the acceptance rule is written once,
//!   in [`WalTail::poll`]: the first torn, corrupt, undecodable or
//!   non-sequential frame ends the durable prefix. Everything that reads
//!   the log is this cursor started somewhere: [`crate::wal::replay`]
//!   (at the first record on disk), [`crate::store::recover`] and
//!   repair-on-open (at the latest snapshot's watermark), and a follower
//!   (wherever its warm state stands, polling as the primary appends).
//!   While the primary is alive a bad frame is *in flight*, not final —
//!   the cursor parks on it and the next poll re-reads, so a half-written
//!   append is picked up once the primary finishes it. The records a poll
//!   returns feed [`crate::store::RecoveredState::apply`], the one fold.
//! * [`heartbeat_touch`] / [`heartbeat_age`] — the liveness protocol. The
//!   primary touches `heartbeat` in the WAL directory while it runs; a
//!   follower treats a stale mtime as the first (necessary, not
//!   sufficient) signal of primary death. See DESIGN.md §12 for the full
//!   promotion gate.

use crate::frame::{read_frame, FrameRead};
use crate::record::WalRecord;
use crate::wal::segment_files;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Name of the liveness file a serving primary touches inside its WAL
/// directory. Carries no payload — only its mtime matters.
pub const HEARTBEAT_FILE: &str = "heartbeat";

/// Touches the heartbeat file in `dir`, creating it if needed. Called
/// periodically by a serving primary; the write is tiny and unsynced on
/// purpose (liveness, not durability).
pub fn heartbeat_touch(dir: &Path) -> io::Result<()> {
    fs::write(dir.join(HEARTBEAT_FILE), b"alive\n")
}

/// Age of the heartbeat in `dir` per its mtime, or `None` when the file
/// does not exist yet. A clock skew or mtime older than the epoch reads
/// as zero age (never falsely stale).
pub fn heartbeat_age(dir: &Path) -> io::Result<Option<Duration>> {
    let path = dir.join(HEARTBEAT_FILE);
    let meta = match fs::metadata(&path) {
        Ok(m) => m,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let age = meta.modified()?.elapsed().unwrap_or(Duration::from_secs(0));
    Ok(Some(age))
}

/// How a [`WalTail::poll`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// Every durable record up to the end of the log was returned; the
    /// cursor is caught up.
    Clean,
    /// The cursor is parked on a torn or corrupt frame (or an undecodable
    /// payload). While the writer lives this may be an append in flight —
    /// poll again. Once the writer is known dead it is the final torn
    /// tail, exactly what recovery truncates.
    Blocked,
    /// The record the cursor expects next is not where it has to be: the
    /// next frame carries a later sequence number, or every surviving
    /// segment starts beyond it (the primary compacted past a follower,
    /// or the directory lost data). A follower must restart from the
    /// latest snapshot.
    Gap,
}

/// One incremental read of the log.
#[derive(Debug, Clone, PartialEq)]
pub struct TailPoll {
    /// Records that became durable since the previous poll, in `seq`
    /// order, starting at the tail's next expected sequence number.
    pub records: Vec<WalRecord>,
    /// How the read ended.
    pub status: TailStatus,
    /// Every byte on disk past the last record this poll accepted: the
    /// rest of the segment the cursor stopped in plus all later segments,
    /// which nothing can reach. 0 on a clean log. This is what recovery
    /// ignores and repair-on-open removes.
    pub blocked_bytes: u64,
    /// Where those bytes start — segment path and offset — when there
    /// are any.
    pub torn: Option<(PathBuf, u64)>,
}

/// A poll-based incremental reader of a WAL directory.
///
/// The tail never writes; it is safe to run against a directory a live
/// [`crate::store::DurableStore`] is appending to. Segment files are
/// re-read from the cursor's segment on every poll, so an append that
/// completes between polls is observed exactly once.
#[derive(Debug)]
pub struct WalTail {
    dir: PathBuf,
    /// Next record sequence number the tail expects to return.
    next_seq: u64,
}

impl WalTail {
    /// A tail positioned at the very start of the log (sequence 0).
    pub fn new(dir: &Path) -> WalTail {
        WalTail::resume_from(dir, 0)
    }

    /// A tail that resumes at `watermark` — records with `seq <
    /// watermark` (covered by a snapshot the caller already loaded) are
    /// skipped, never returned.
    pub fn resume_from(dir: &Path, watermark: u64) -> WalTail {
        WalTail {
            dir: dir.to_path_buf(),
            next_seq: watermark,
        }
    }

    /// The sequence number the next returned record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Reads every record that became durable since the last poll.
    ///
    /// The walk starts in the last segment that begins at or below the
    /// cursor, skips frames below the cursor (a snapshot covers them),
    /// accepts each frame that carries exactly the expected sequence
    /// number, and follows the log into later segments for as long as one
    /// begins at or below the cursor. It ends at the first frame that is
    /// torn or corrupt, does not decode ([`TailStatus::Blocked`]), or
    /// carries a sequence number beyond the expected one
    /// ([`TailStatus::Gap`]) — or cleanly, at the end of the last segment
    /// the sequence reaches. Whatever lies on disk past that point is
    /// reported, never read.
    ///
    /// Damaged data never fails the poll; real I/O errors are returned.
    pub fn poll(&mut self) -> io::Result<TailPoll> {
        let mut out = TailPoll {
            records: Vec::new(),
            status: TailStatus::Clean,
            blocked_bytes: 0,
            torn: None,
        };
        loop {
            // (Re)resolve the cursor's segment from a fresh listing: the
            // one read last round may have been compacted away since.
            let segs = segment_files(&self.dir)?;
            let Some(home) = segs.iter().rposition(|(first, _)| *first <= self.next_seq) else {
                // Nothing written yet (or all of it compacted into a
                // snapshot at exactly our watermark): caught up. Segments
                // that all start beyond us: the records we need are gone.
                if !segs.is_empty() {
                    out.status = TailStatus::Gap;
                    out.stop_at(&segs, 0);
                }
                return Ok(out);
            };
            let path = &segs[home].1;
            let buf = match fs::read(path) {
                Ok(b) => b,
                // Compacted between the listing and the read: list again.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let mut offset = 0usize;
            // `Some(status)`: the walk stopped at `offset`, short of the
            // segment's end.
            let stopped = loop {
                match read_frame(&buf, offset) {
                    FrameRead::End => break None,
                    FrameRead::Bad { .. } => break Some(TailStatus::Blocked),
                    FrameRead::Frame { payload, next } => match WalRecord::decode(payload) {
                        // A CRC-valid frame that does not decode ends the
                        // durable prefix like any other damage.
                        Err(_) => break Some(TailStatus::Blocked),
                        Ok(rec) if rec.seq() > self.next_seq => break Some(TailStatus::Gap),
                        Ok(rec) => {
                            if rec.seq() == self.next_seq {
                                out.records.push(rec);
                                self.next_seq += 1;
                            }
                            offset = next;
                        }
                    },
                }
            };
            if let Some(status) = stopped {
                out.status = status;
                out.blocked_bytes = (buf.len() - offset) as u64;
                out.torn = Some((path.clone(), offset as u64));
                out.stop_at(&segs, home + 1);
                return Ok(out);
            }
            // The segment read cleanly to its end. If a later segment now
            // holds the cursor the writer rolled: follow it. Otherwise
            // this is the live tail, and any later segment starts beyond
            // a hole nothing can cross.
            if !segs[home + 1..]
                .iter()
                .any(|(first, _)| *first <= self.next_seq)
            {
                out.stop_at(&segs, home + 1);
                return Ok(out);
            }
        }
    }
}

impl TailPoll {
    /// Counts the unreachable segments `segs[from..]` into
    /// `blocked_bytes`, and marks the first as the torn point unless
    /// the walk already stopped mid-segment before them.
    fn stop_at(&mut self, segs: &[(u64, PathBuf)], from: usize) {
        for (_, path) in &segs[from..] {
            self.blocked_bytes += fs::metadata(path).map_or(0, |m| m.len());
            self.torn.get_or_insert_with(|| (path.clone(), 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Action, BatchRecord, Decision, PlanRecord, WeightDelta};
    use crate::snapshot::SnapshotState;
    use crate::store::{recover, DurableStore, RecoveredState, StoreConfig};
    use crate::wal;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mbta-store-tail-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Same deterministic workload the store tests use.
    fn rec(seq: u64) -> BatchRecord {
        let mut decisions = vec![Decision {
            shard: (seq % 2) as u32,
            edge: seq as u32,
            action: Action::Assign,
            worker: seq as u32,
            task: seq as u32,
            weight: 1.0 + seq as f64,
        }];
        if seq >= 3 {
            let old = seq - 3;
            decisions.push(Decision {
                shard: (old % 2) as u32,
                edge: old as u32,
                action: Action::Unassign,
                worker: old as u32,
                task: old as u32,
                weight: 1.0 + old as f64,
            });
        }
        BatchRecord {
            seq,
            first_time: seq as f64,
            last_time: seq as f64 + 0.25,
            events: 1,
            deltas: vec![WeightDelta {
                edge: seq as u32,
                weight: 1.0 + seq as f64,
            }],
            decisions,
        }
    }

    fn snap_of(dir: &Path) -> SnapshotState {
        let state = recover(dir).unwrap();
        SnapshotState {
            watermark: state.watermark,
            shards: state.shards,
            weights: state.weights,
        }
    }

    #[test]
    fn tail_follows_appends_incrementally() {
        let dir = tmp("incremental");
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        let mut tail = WalTail::new(&dir);
        let mut follower = RecoveredState::default();

        for seq in 0..3 {
            store.commit(&rec(seq)).unwrap();
        }
        let p = tail.poll().unwrap();
        assert_eq!(p.status, TailStatus::Clean);
        assert_eq!(p.records.len(), 3);
        p.records.iter().for_each(|r| follower.apply(r));

        for seq in 3..7 {
            store.commit(&rec(seq)).unwrap();
        }
        let p = tail.poll().unwrap();
        assert_eq!(p.records.len(), 4);
        p.records.iter().for_each(|r| follower.apply(r));

        // Caught up: the next poll is empty and clean.
        let p = tail.poll().unwrap();
        assert!(p.records.is_empty());
        assert_eq!(p.status, TailStatus::Clean);

        // The mirror equals a fresh recovery of the same prefix.
        drop(store);
        let recovered = recover(&dir).unwrap();
        assert_eq!(follower.watermark, recovered.watermark);
        assert_eq!(follower.shards, recovered.shards);
        assert!((follower.total_weight() - recovered.total_weight()).abs() < 1e-12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_crosses_segment_rolls() {
        let dir = tmp("roll");
        let cfg = StoreConfig {
            segment_bytes: 96, // force several segments
            snapshot_every: 0,
            ..StoreConfig::default()
        };
        let (mut store, _) = DurableStore::open(&dir, cfg).unwrap();
        let mut tail = WalTail::new(&dir);
        for seq in 0..10 {
            store.commit(&rec(seq)).unwrap();
        }
        assert!(wal::segment_files(&dir).unwrap().len() > 1);
        let p = tail.poll().unwrap();
        assert_eq!(p.status, TailStatus::Clean);
        assert_eq!(
            p.records.iter().map(|r| r.seq()).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_inflight_append_blocks_then_completes() {
        let dir = tmp("torn");
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        store.commit(&rec(0)).unwrap();
        drop(store);
        // Simulate an append caught mid-write: a full record plus a
        // truncated frame on the active segment.
        let (_, path) = wal::segment_files(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let intact = bytes.len();
        let mut frame = Vec::new();
        crate::write_frame(&mut frame, &rec(1).encode());
        bytes.extend_from_slice(&frame[..frame.len() - 4]);
        fs::write(&path, &bytes).unwrap();

        let mut tail = WalTail::new(&dir);
        let p = tail.poll().unwrap();
        assert_eq!(p.records.len(), 1);
        assert_eq!(p.status, TailStatus::Blocked);
        assert!(p.blocked_bytes > 0);

        // The writer finishes the append: the same cursor now reads it.
        let mut whole = fs::read(&path).unwrap();
        whole.truncate(intact);
        whole.extend_from_slice(&frame);
        fs::write(&path, &whole).unwrap();
        let p = tail.poll().unwrap();
        assert_eq!(p.status, TailStatus::Clean);
        assert_eq!(p.records.len(), 1);
        assert_eq!(p.records[0].seq(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_from_snapshot_skips_covered_records() {
        let dir = tmp("resume");
        let cfg = StoreConfig {
            snapshot_every: 4,
            ..StoreConfig::default()
        };
        let (mut store, _) = DurableStore::open(&dir, cfg).unwrap();
        for seq in 0..6 {
            store.commit(&rec(seq)).unwrap();
            if store.snapshot_due() {
                let snap = snap_of(&dir);
                store.snapshot(&snap).unwrap();
            }
        }
        drop(store);
        let base = recover(&dir).unwrap();
        assert_eq!(base.snapshot_watermark, Some(4));
        let mut follower = base.clone();
        let mut tail = WalTail::resume_from(&dir, base.watermark);
        let p = tail.poll().unwrap();
        assert_eq!(p.status, TailStatus::Clean);
        assert!(p.records.is_empty(), "tail replayed covered records");

        // New appends continue from the recovered watermark.
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        store.commit(&rec(6)).unwrap();
        let p = tail.poll().unwrap();
        assert_eq!(p.records.len(), 1);
        assert_eq!(p.records[0].seq(), 6);
        p.records.iter().for_each(|r| follower.apply(r));
        assert_eq!(follower.watermark, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compacted_past_follower_reports_gap() {
        let dir = tmp("gap");
        let cfg = StoreConfig {
            segment_bytes: 96,
            snapshot_every: 0,
            ..StoreConfig::default()
        };
        let (mut store, _) = DurableStore::open(&dir, cfg).unwrap();
        for seq in 0..10 {
            store.commit(&rec(seq)).unwrap();
        }
        // A follower that never polled; the primary snapshots at the tip
        // and compacts everything behind it.
        let mut tail = WalTail::new(&dir);
        let snap = snap_of(&dir);
        store.snapshot(&snap).unwrap();
        store.commit(&rec(10)).unwrap();
        drop(store);
        let p = tail.poll().unwrap();
        // Either the surviving segment still reaches back to seq 0 (no
        // roll removed) or the tail reports the gap; with forced rolls the
        // early segments are gone.
        assert_eq!(p.status, TailStatus::Gap);
        assert!(p.records.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_beyond_a_hole_are_reported_not_read() {
        let dir = tmp("hole");
        let cfg = StoreConfig {
            segment_bytes: 96,
            snapshot_every: 0,
            ..StoreConfig::default()
        };
        let (mut store, _) = DurableStore::open(&dir, cfg).unwrap();
        for seq in 0..10 {
            store.commit(&rec(seq)).unwrap();
        }
        drop(store);
        // Lose a whole middle segment. The log reads cleanly up to the
        // hole; what lies beyond can never be reached, and says so.
        let segs = wal::segment_files(&dir).unwrap();
        assert!(segs.len() >= 3, "need a middle segment, got {segs:?}");
        fs::remove_file(&segs[1].1).unwrap();
        let beyond: u64 = segs[2..]
            .iter()
            .map(|(_, p)| fs::metadata(p).unwrap().len())
            .sum();
        let p = WalTail::new(&dir).poll().unwrap();
        assert_eq!(p.status, TailStatus::Clean);
        assert_eq!(p.records.len() as u64, segs[1].0);
        assert_eq!(p.blocked_bytes, beyond);
        assert_eq!(p.torn, Some((segs[2].1.clone(), 0)));
        // A reader already past the hole is not troubled by it.
        let mut past = WalTail::resume_from(&dir, segs[2].0 + 1);
        assert_eq!(past.poll().unwrap().status, TailStatus::Clean);
        assert_eq!(past.next_seq(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn follower_replays_plan_frames() {
        let dir = tmp("plan");
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        let mut tail = WalTail::new(&dir);
        let mut follower = RecoveredState::default();
        for seq in 0..3 {
            store.commit(&rec(seq)).unwrap();
        }
        // A migration swaps shards 0 and 1 at seq 3; batches continue.
        let pre = recover(&dir).unwrap();
        let plan = PlanRecord {
            seq: 3,
            retained_weight: pre.total_weight(),
            moved_workers: 1,
            moved_tasks: 1,
            shards: vec![pre.shards[1].clone(), pre.shards[0].clone()],
        };
        store.commit_plan(&plan).unwrap();
        store.commit(&rec(4)).unwrap();
        let p = tail.poll().unwrap();
        assert_eq!(p.status, TailStatus::Clean);
        assert_eq!(p.records.len(), 5);
        p.records.iter().for_each(|r| follower.apply(r));
        assert_eq!(follower.watermark, 5);
        // The mirror equals a fresh recovery across the plan boundary.
        drop(store);
        let recovered = recover(&dir).unwrap();
        assert_eq!(follower.shards, recovered.shards);
        assert!((follower.total_weight() - recovered.total_weight()).abs() < 1e-12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_roundtrip() {
        let dir = tmp("heartbeat");
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(heartbeat_age(&dir).unwrap(), None);
        heartbeat_touch(&dir).unwrap();
        let age = heartbeat_age(&dir).unwrap().expect("heartbeat exists");
        assert!(age < Duration::from_secs(10));
        // The heartbeat file is invisible to snapshot/segment listings.
        assert!(wal::segment_files(&dir).unwrap().is_empty());
        assert!(crate::snapshot::snapshot_files(&dir).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
