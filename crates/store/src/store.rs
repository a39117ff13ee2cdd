//! [`DurableStore`]: the snapshot + WAL pair behind the dispatch service,
//! and [`recover`], the read-only path that rebuilds state from disk.
//!
//! The contract with the service is write-ahead: a batch is journaled
//! with [`DurableStore::commit`] *before* its decisions reach the
//! decision sink, so any decision the outside world has seen is
//! reconstructible. Every [`StoreConfig::snapshot_every`] batches the
//! service hands over a full [`SnapshotState`]; the store writes it
//! atomically, prunes older snapshots, and compacts WAL segments the new
//! snapshot covers.
//!
//! Recovery invariants (checked by the crash-injection and property
//! tests):
//!
//! 1. **Prefix durability** — recovered state always equals the clean
//!    run's state at some batch watermark `<=` the crash point; a torn or
//!    corrupt tail only shortens the prefix, never corrupts it.
//! 2. **No invention** — every recovered assignment was journaled; the
//!    recovered matching can therefore never violate capacities that the
//!    live run respected.
//! 3. **Totality** — recovery never panics on damaged input: any byte
//!    suffix of a valid store directory recovers to some valid prefix
//!    state.

use crate::record::{
    Action, BatchRecord, Decision, OnlineRecord, PlanRecord, WalRecord, WeightDelta,
};
use crate::snapshot::{self, SnapshotState};
use crate::tail::WalTail;
use crate::wal::{self, FsyncPolicy, Wal, WalConfig};
use std::fs::{self, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tuning knobs for [`DurableStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// WAL fsync policy.
    pub fsync: FsyncPolicy,
    /// Snapshot every N committed batches; `0` = only the final snapshot
    /// written by [`DurableStore::seal`].
    pub snapshot_every: u64,
    /// WAL segment roll threshold in bytes.
    pub segment_bytes: u64,
    /// Fsync cadence under [`FsyncPolicy::Batch`].
    pub batch_fsync_every: u64,
    /// Group-commit window (see [`WalConfig::group_every`]): records per
    /// combined WAL write. `1` = write-through.
    pub group_every: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            fsync: FsyncPolicy::Batch,
            snapshot_every: 64,
            segment_bytes: 8 << 20,
            batch_fsync_every: 16,
            group_every: 1,
        }
    }
}

/// Counters a [`DurableStore`] accumulated over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Batch records appended to the WAL.
    pub wal_records: u64,
    /// Frame bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Snapshots written (periodic + final).
    pub snapshots: u64,
    /// Batches committed (the current watermark).
    pub watermark: u64,
}

/// The dispatch state folded from a store directory — the one type that
/// turns [`WalRecord`]s into assignments. [`recover`] returns it at the
/// durable prefix of a run; a follower keeps it warm by feeding
/// [`RecoveredState::apply`] what its [`WalTail`] polls; and its
/// `(watermark, shards, weights)` are exactly what [`snapshot::write`]
/// persists. Because every path folds through the same `apply`, a state
/// at watermark `W` is the same however it got there.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Records folded in — the next expected sequence number.
    pub watermark: u64,
    /// Watermark of the snapshot recovery started from, if any.
    pub snapshot_watermark: Option<u64>,
    /// WAL records applied on top of the snapshot.
    pub records_replayed: u64,
    /// Bytes of WAL that recovery ignored: everything on disk past the
    /// durable prefix (see [`crate::tail::TailPoll::blocked_bytes`]).
    pub truncated_bytes: u64,
    /// Per shard, the sorted universe edge ids assigned.
    pub shards: Vec<Vec<u32>>,
    /// Live edge weights by universe edge id (only indices touched by a
    /// snapshot, weight delta, or decision are meaningful).
    pub weights: Vec<f64>,
}

/// Sorted and free of repeats: the invariant [`RecoveredState::apply`]'s
/// binary searches rely on, restored on every list that comes off disk.
fn normalized(mut shards: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    for shard in &mut shards {
        shard.sort_unstable();
        shard.dedup();
    }
    shards
}

impl RecoveredState {
    /// Folds one record in. Records must arrive in sequence.
    ///
    /// Batch and online records replay identically — weight deltas first,
    /// then assignment deltas; only their audit metadata differs. A plan
    /// record carries the full post-migration assignment per shard, so it
    /// replaces the shard structure wholesale and leaves the weights
    /// alone: a migration moves edges between shards, it never revalues
    /// them.
    pub fn apply(&mut self, rec: &WalRecord) {
        assert_eq!(
            rec.seq(),
            self.watermark,
            "records must be applied in sequence (got seq {}, expected {})",
            rec.seq(),
            self.watermark
        );
        let (deltas, decisions): (&[WeightDelta], &[Decision]) = match rec {
            WalRecord::Batch(rec) => (&rec.deltas, &rec.decisions),
            WalRecord::Online(rec) => (&rec.deltas, &rec.decisions),
            WalRecord::Plan(rec) => {
                self.shards = normalized(rec.shards.clone());
                (&[], &[])
            }
        };
        for d in deltas {
            self.set_weight(d.edge, d.weight);
        }
        for d in decisions {
            // The decision carries the live weight at decision time;
            // applying it fills in weights that predate any journaled
            // delta (initial graph weights).
            self.set_weight(d.edge, d.weight);
            let s = d.shard as usize;
            if self.shards.len() <= s {
                self.shards.resize_with(s + 1, Vec::new);
            }
            let shard = &mut self.shards[s];
            match shard.binary_search(&d.edge) {
                Err(at) if d.action == Action::Assign => shard.insert(at, d.edge),
                Ok(at) if d.action == Action::Unassign => {
                    shard.remove(at);
                }
                _ => {}
            }
        }
        self.watermark += 1;
        self.records_replayed += 1;
    }

    fn set_weight(&mut self, edge: u32, weight: f64) {
        let i = edge as usize;
        if self.weights.len() <= i {
            self.weights.resize(i + 1, 0.0);
        }
        self.weights[i] = weight;
    }

    /// Persists this state as a snapshot in `dir` — durable on return,
    /// see [`snapshot::write`]. A promoted follower calls this so the
    /// next recovery starts warm.
    pub fn write_snapshot(&self, dir: &Path) -> io::Result<PathBuf> {
        snapshot::write(dir, self.watermark, &self.shards, &self.weights)
    }

    /// Number of assigned edges across all shards.
    pub fn assignments(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// Total retained weight: the sum of live weights over assigned
    /// edges. Every assigned edge's weight is exact — the journal records
    /// it with the decision and again on every update.
    pub fn total_weight(&self) -> f64 {
        let mut total = 0.0;
        for shard in &self.shards {
            for &e in shard {
                total += self.weights.get(e as usize).copied().unwrap_or(0.0);
            }
        }
        total
    }
}

/// Scans `dir` once: the latest valid snapshot, then the log from the
/// snapshot's watermark on. Also reports where the durable prefix ends
/// when anything lies past it, so [`DurableStore::open`] can repair it
/// physically.
fn scan(dir: &Path) -> io::Result<(RecoveredState, Option<(PathBuf, u64)>)> {
    let mut state = RecoveredState::default();
    if let Some(snap) = snapshot::load_latest(dir)? {
        state.watermark = snap.watermark;
        state.snapshot_watermark = Some(snap.watermark);
        state.shards = normalized(snap.shards);
        state.weights = snap.weights;
    }
    let tail = WalTail::resume_from(dir, state.watermark).poll()?;
    for rec in &tail.records {
        state.apply(rec);
    }
    state.truncated_bytes = tail.blocked_bytes;
    Ok((state, tail.torn))
}

/// Rebuilds dispatch state from a store directory, read-only: latest
/// valid snapshot + the WAL from its watermark on, ignoring everything
/// past the durable prefix. Nothing on disk is modified.
pub fn recover(dir: &Path) -> io::Result<RecoveredState> {
    mbta_telemetry::counter_add("mbta_store_recoveries_total", 1);
    Ok(scan(dir)?.0)
}

/// The write half: owns the WAL and decides when to snapshot and compact.
pub struct DurableStore {
    dir: PathBuf,
    cfg: StoreConfig,
    wal: Wal,
    watermark: u64,
    last_snapshot: u64,
    snapshots: u64,
}

impl DurableStore {
    /// Opens (or creates) a store in `dir` and recovers whatever durable
    /// state it holds. Whatever recovery ignored is *repaired* — the
    /// segment where the durable prefix ends is physically truncated
    /// there, later segments removed — because a reopened writer starts a
    /// new segment, and a lingering bad frame in an old segment would
    /// otherwise mask the new records from replay.
    pub fn open(dir: &Path, cfg: StoreConfig) -> io::Result<(DurableStore, RecoveredState)> {
        fs::create_dir_all(dir)?;
        remove_orphan_tmp(dir)?;
        let (recovered, torn) = scan(dir)?;
        if let Some((path, durable_len)) = torn {
            repair(dir, &path, durable_len)?;
        }
        let wal = Wal::open(
            dir,
            WalConfig {
                fsync: cfg.fsync,
                segment_bytes: cfg.segment_bytes,
                batch_fsync_every: cfg.batch_fsync_every,
                group_every: cfg.group_every,
            },
        )?;
        let store = DurableStore {
            dir: dir.to_path_buf(),
            cfg,
            wal,
            watermark: recovered.watermark,
            last_snapshot: recovered.snapshot_watermark.unwrap_or(0),
            snapshots: 0,
        };
        Ok((store, recovered))
    }

    /// Journals one committed batch. Must be called *before* the batch's
    /// decisions are released to any sink, with strictly sequential
    /// sequence numbers.
    pub fn commit(&mut self, rec: &BatchRecord) -> io::Result<()> {
        self.append(rec.seq, &rec.encode())
    }

    /// Journals one shard-plan migration. Plan records consume a slot in
    /// the same sequence space as batches, so followers and recovery
    /// replay the migration at exactly the batch boundary it happened.
    pub fn commit_plan(&mut self, rec: &PlanRecord) -> io::Result<()> {
        self.append(rec.seq, &rec.encode())
    }

    /// Journals one online (per-event decision) record. Same write-ahead
    /// contract and sequence space as [`DurableStore::commit`].
    pub fn commit_online(&mut self, rec: &OnlineRecord) -> io::Result<()> {
        self.append(rec.seq, &rec.encode())
    }

    /// Journals a record of whichever kind — what the typed front doors
    /// above do, for a caller that already holds a [`WalRecord`].
    pub fn commit_record(&mut self, rec: &WalRecord) -> io::Result<()> {
        self.append(rec.seq(), &rec.encode())
    }

    /// The one write body: checks the sequence, appends the encoded
    /// record to the WAL, advances the watermark.
    fn append(&mut self, seq: u64, payload: &[u8]) -> io::Result<()> {
        assert_eq!(
            seq, self.watermark,
            "store commits must be sequential (got seq {seq}, expected {})",
            self.watermark
        );
        self.wal.append(seq, payload)?;
        self.watermark += 1;
        Ok(())
    }

    /// Whether the periodic-snapshot cadence says it is time for the
    /// caller to capture its state and call [`DurableStore::snapshot`].
    pub fn snapshot_due(&self) -> bool {
        self.cfg.snapshot_every > 0
            && self.watermark.saturating_sub(self.last_snapshot) >= self.cfg.snapshot_every
    }

    /// Writes a snapshot of the caller's full state and, once it is
    /// durable ([`snapshot::write`] fsyncs the directory after its
    /// rename), prunes older snapshots and compacts WAL segments the new
    /// snapshot covers. The state's watermark must match the store's.
    pub fn snapshot(&mut self, state: &SnapshotState) -> io::Result<()> {
        assert_eq!(
            state.watermark, self.watermark,
            "snapshot watermark must match committed watermark"
        );
        let t = Instant::now();
        snapshot::write(&self.dir, state.watermark, &state.shards, &state.weights)?;
        mbta_telemetry::observe("mbta_store_snapshot_ms", t.elapsed().as_secs_f64() * 1e3);
        mbta_telemetry::counter_add("mbta_store_snapshots_total", 1);
        self.last_snapshot = state.watermark;
        self.snapshots += 1;
        snapshot::prune(&self.dir, state.watermark)?;
        Wal::compact(&self.dir, state.watermark)?;
        Ok(())
    }

    /// Final flush at clean shutdown: fsyncs the WAL regardless of policy
    /// and writes a last snapshot if any batch landed since the previous
    /// one. Recovery after a clean seal replays zero records.
    pub fn seal(&mut self, state: &SnapshotState) -> io::Result<()> {
        self.wal.sync()?;
        if self.watermark > self.last_snapshot || self.snapshots == 0 {
            self.snapshot(state)?;
        }
        Ok(())
    }

    /// Lifetime counters for reports.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            wal_records: self.wal.records(),
            wal_bytes: self.wal.bytes(),
            snapshots: self.snapshots,
            watermark: self.watermark,
        }
    }
}

/// Deletes orphaned `*.tmp` files left behind by a crash mid-snapshot.
/// Snapshot writes go through `snap-….snap.tmp` + rename; a temp file that
/// survived to the next open was never renamed, so it is dead weight that
/// would otherwise accumulate forever. Returns the number removed.
fn remove_orphan_tmp(dir: &Path) -> io::Result<usize> {
    let mut removed = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Physically truncates a segment where the durable prefix ends and removes
/// any segments after it. An empty repaired segment is deleted outright
/// so a reopened writer can reuse its sequence-numbered name.
fn repair(dir: &Path, torn_path: &Path, durable_len: u64) -> io::Result<()> {
    let segs = wal::segment_files(dir)?;
    let mut past_torn = false;
    for (_, path) in &segs {
        if past_torn {
            fs::remove_file(path)?;
        } else if path == torn_path {
            past_torn = true;
        }
    }
    if durable_len == 0 {
        fs::remove_file(torn_path)?;
    } else {
        let f = OpenOptions::new().write(true).open(torn_path)?;
        f.set_len(durable_len)?;
        f.sync_data()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mbta-store-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A deterministic little workload: batch `seq` assigns edge `seq`
    /// to shard `seq % 2` with weight `1 + seq`, and unassigns edge
    /// `seq - 3` (once it exists) from its shard.
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

    /// What the service hands `snapshot`/`seal`: here, the directory's own
    /// recovered state.
    fn snap_of(dir: &Path) -> SnapshotState {
        let state = recover(dir).unwrap();
        SnapshotState {
            watermark: state.watermark,
            shards: state.shards,
            weights: state.weights,
        }
    }

    fn run(store: &mut DurableStore, seqs: std::ops::Range<u64>) {
        for seq in seqs {
            store.commit(&rec(seq)).unwrap();
        }
    }

    /// Recovered state expected after batches `0..n`.
    fn expected(n: u64) -> (Vec<Vec<u32>>, f64) {
        let mut shards = vec![BTreeSet::new(), BTreeSet::new()];
        let mut total = 0.0;
        for seq in 0..n {
            shards[(seq % 2) as usize].insert(seq as u32);
            total += 1.0 + seq as f64;
            if seq >= 3 {
                let old = seq - 3;
                shards[(old % 2) as usize].remove(&(old as u32));
                total -= 1.0 + old as f64;
            }
        }
        (
            shards
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
            total,
        )
    }

    #[test]
    fn recover_from_wal_only() {
        let dir = tmp("wal-only");
        let (mut store, init) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(init.watermark, 0);
        run(&mut store, 0..7);
        drop(store); // simulated abort: no seal, no snapshot
        let state = recover(&dir).unwrap();
        assert_eq!(state.watermark, 7);
        assert_eq!(state.snapshot_watermark, None);
        assert_eq!(state.records_replayed, 7);
        let (shards, total) = expected(7);
        assert_eq!(state.shards, shards);
        assert!((state.total_weight() - total).abs() < 1e-12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn online_records_recover_like_batches() {
        let dir = tmp("online");
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        // Batch 0 assigns edge 0; online record 1 reweights edge 0 and
        // swaps the assignment to edge 10; batch 2 assigns edge 2.
        store.commit(&rec(0)).unwrap();
        store
            .commit_online(&OnlineRecord {
                seq: 1,
                time: 1.5,
                events: 3,
                fallbacks: 1,
                deltas: vec![WeightDelta {
                    edge: 0,
                    weight: 0.25,
                }],
                decisions: vec![
                    Decision {
                        shard: 0,
                        edge: 0,
                        action: Action::Unassign,
                        worker: 0,
                        task: 0,
                        weight: 0.25,
                    },
                    Decision {
                        shard: 1,
                        edge: 10,
                        action: Action::Assign,
                        worker: 4,
                        task: 5,
                        weight: 9.0,
                    },
                ],
            })
            .unwrap();
        store.commit(&rec(2)).unwrap();
        drop(store); // no seal: recovery must replay all three kinds
        let state = recover(&dir).unwrap();
        assert_eq!(state.watermark, 3);
        assert_eq!(state.records_replayed, 3);
        assert_eq!(state.shards[0], vec![2u32]);
        assert_eq!(state.shards[1], vec![10u32]);
        assert!((state.weights[0] - 0.25).abs() < 1e-12);
        assert!((state.weights[10] - 9.0).abs() < 1e-12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_bounds_replay_and_compacts() {
        let dir = tmp("snap");
        let cfg = StoreConfig {
            snapshot_every: 4,
            segment_bytes: 96, // force several segments
            ..StoreConfig::default()
        };
        let (mut store, _) = DurableStore::open(&dir, cfg).unwrap();
        for seq in 0..10 {
            store.commit(&rec(seq)).unwrap();
            if store.snapshot_due() {
                let snap = snap_of(&dir);
                store.snapshot(&snap).unwrap();
            }
        }
        assert_eq!(store.stats().snapshots, 2); // at watermarks 4 and 8
        drop(store);
        let state = recover(&dir).unwrap();
        assert_eq!(state.watermark, 10);
        assert_eq!(state.snapshot_watermark, Some(8));
        assert_eq!(state.records_replayed, 2);
        let (shards, total) = expected(10);
        assert_eq!(state.shards, shards);
        assert!((state.total_weight() - total).abs() < 1e-12);
        // Compaction dropped every segment that ended before the last
        // snapshot; only the segment active at snapshot time (which may
        // start just below the watermark) and later ones remain.
        let segs = wal::segment_files(&dir).unwrap();
        assert!(segs.first().unwrap().0 >= 7, "stale segments: {segs:?}");
        assert!(segs.len() <= 3, "compaction left {} segments", segs.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_then_recover_replays_nothing() {
        let dir = tmp("seal");
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        run(&mut store, 0..5);
        let snap = snap_of(&dir);
        store.seal(&snap).unwrap();
        drop(store);
        let state = recover(&dir).unwrap();
        assert_eq!(state.watermark, 5);
        assert_eq!(state.snapshot_watermark, Some(5));
        assert_eq!(state.records_replayed, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_torn_tail_repairs_and_continues() {
        let dir = tmp("repair");
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        run(&mut store, 0..6);
        drop(store);
        // Tear the tail: chop the last few bytes of the newest segment.
        let (_, path) = wal::segment_files(&dir).unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        // Reopen: batch 5 is gone, the tail is repaired, and writing
        // resumes at seq 5 in a fresh segment.
        let (mut store, recovered) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovered.watermark, 5);
        assert!(recovered.truncated_bytes > 0);
        run(&mut store, 5..8);
        drop(store);
        let state = recover(&dir).unwrap();
        assert_eq!(state.watermark, 8);
        assert_eq!(state.truncated_bytes, 0, "repair removed the torn tail");
        let (shards, total) = expected(8);
        assert_eq!(state.shards, shards);
        assert!((state.total_weight() - total).abs() < 1e-12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_in_a_middle_segment_counts_every_ignored_byte() {
        let dir = tmp("middle");
        let cfg = StoreConfig {
            snapshot_every: 0,
            segment_bytes: 96, // a couple of records per segment
            ..StoreConfig::default()
        };
        let (mut store, _) = DurableStore::open(&dir, cfg).unwrap();
        run(&mut store, 0..12);
        drop(store);
        let segs = wal::segment_files(&dir).unwrap();
        assert!(segs.len() >= 4, "need a middle segment, got {segs:?}");
        // Flip a payload bit in the first frame of the second segment:
        // the durable prefix ends right there, and nothing after it —
        // the rest of that segment and every later one — is reachable.
        let (cut_seq, cut_path) = &segs[1];
        let mut bytes = fs::read(cut_path).unwrap();
        bytes[crate::frame::FRAME_HEADER] ^= 0x01;
        fs::write(cut_path, &bytes).unwrap();
        let ignored: u64 = segs[1..]
            .iter()
            .map(|(_, p)| fs::metadata(p).unwrap().len())
            .sum();

        let state = recover(&dir).unwrap();
        assert_eq!(state.watermark, *cut_seq);
        assert_eq!(state.truncated_bytes, ignored);
        assert_eq!(state.shards, expected(*cut_seq).0);
        let replayed = wal::replay(&dir).unwrap();
        assert_eq!(replayed.blocked_bytes, ignored);
        assert_eq!(replayed.torn, Some((cut_path.clone(), 0)));

        // Reopening removes exactly those bytes and resumes at the cut.
        let (mut store, recovered) = DurableStore::open(&dir, cfg).unwrap();
        assert_eq!(recovered, state);
        assert_eq!(wal::segment_files(&dir).unwrap(), segs[..1]);
        run(&mut store, *cut_seq..12);
        drop(store);
        let state = recover(&dir).unwrap();
        assert_eq!((state.watermark, state.truncated_bytes), (12, 0));
        assert_eq!(state.shards, expected(12).0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_removes_orphan_tmp_snapshots() {
        let dir = tmp("orphan-tmp");
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        run(&mut store, 0..4);
        let snap = snap_of(&dir);
        store.seal(&snap).unwrap();
        drop(store);
        // Plant a temp file as a crash mid-snapshot would leave it: the
        // write reached the temp path but never the rename.
        let orphan = dir.join("snap-00000000000000000009.snap.tmp");
        fs::write(&orphan, b"half-written snapshot bytes").unwrap();
        let (store, recovered) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        assert!(!orphan.exists(), "orphan tmp survived reopen");
        // The real snapshot and the recovered state are untouched.
        assert_eq!(recovered.watermark, 4);
        assert_eq!(recovered.snapshot_watermark, Some(4));
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_record_replays_as_migration() {
        let dir = tmp("plan-replay");
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        run(&mut store, 0..4);
        // Migrate: shard 0 and 1 swap their surviving edges, and the plan
        // consumes seq 4.
        let before = recover(&dir).unwrap();
        let plan = PlanRecord {
            seq: 4,
            retained_weight: before.total_weight(),
            moved_workers: 2,
            moved_tasks: 1,
            shards: vec![before.shards[1].clone(), before.shards[0].clone()],
        };
        store.commit_plan(&plan).unwrap();
        // Batches continue after the migration in the same seq space.
        store.commit(&rec(5)).unwrap();
        drop(store);
        let state = recover(&dir).unwrap();
        assert_eq!(state.watermark, 6);
        let (expected_shards, _) = expected(4);
        // Post-plan: swapped shards, then batch 5 assigned edge 5 to
        // shard 1 and unassigned edge 2 from shard 0 — a no-op there,
        // because the swap moved edge 2 to shard 1 (shard ids in batch
        // records address the post-plan layout).
        assert_eq!(state.shards[0], expected_shards[1]);
        let mut shard1: BTreeSet<u32> = expected_shards[0].iter().copied().collect();
        shard1.insert(5);
        assert_eq!(state.shards[1], shard1.into_iter().collect::<Vec<u32>>());
        // Weights survive the migration untouched.
        assert!((state.weights[3] - 4.0).abs() < 1e-12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn out_of_order_commit_panics() {
        let dir = tmp("order");
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        store.commit(&rec(0)).unwrap();
        let _ = store.commit(&rec(5));
    }
}
