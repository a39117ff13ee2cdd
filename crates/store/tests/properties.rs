//! Property tests for the durability formats: (1) any [`WalRecord`]
//! survives encode → decode bit-for-bit for arbitrary contents, and
//! (2) chopping a WAL — all three record kinds, several segments, a
//! snapshot and a compaction behind it — at *every* byte offset never
//! panics and always reads back a clean record prefix, on which the
//! three read paths agree: `wal::replay`, `recover`, and a `WalTail`
//! polled as the log grows. This is the "truncate-anywhere" guarantee
//! the crash-recovery and failover paths are built on.

use mbta_store::record::{
    Action, BatchRecord, Decision, OnlineRecord, PlanRecord, WalRecord, WeightDelta,
};
use mbta_store::store::{recover, DurableStore, RecoveredState, StoreConfig};
use mbta_store::wal::{replay, segment_files, FsyncPolicy};
use mbta_store::{read_frame, FrameRead, SnapshotState, TailStatus, WalTail};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::fs;

/// Ordinary magnitudes mixed with exact-bit hazards (negative zero,
/// subnormal, huge). NaN is excluded: the service never emits NaN weights,
/// and `PartialEq` on the decoded struct would read it as a mismatch.
fn arb_weight() -> impl Strategy<Value = f64> {
    (0u32..5, -1.0e3f64..1.0e3).prop_map(|(pick, v)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MIN_POSITIVE,
        3 => 1.0e300,
        _ => v,
    })
}

fn arb_delta() -> impl Strategy<Value = WeightDelta> {
    (0u32..10_000, arb_weight()).prop_map(|(edge, weight)| WeightDelta { edge, weight })
}

fn arb_decision() -> impl Strategy<Value = Decision> {
    (
        0u32..8,
        0u32..10_000,
        any::<bool>(),
        0u32..5_000,
        0u32..5_000,
        arb_weight(),
    )
        .prop_map(|(shard, edge, assign, worker, task, weight)| Decision {
            shard,
            edge,
            action: Action::from(assign),
            worker,
            task,
            weight,
        })
}

/// A record of any kind; `seq` is patched in by the caller. Plan records
/// carry unsorted lists with repeats on purpose: the fold must normalise
/// them the same way on every read path.
fn arb_record() -> impl Strategy<Value = WalRecord> {
    (
        0u8..5,
        (arb_weight(), arb_weight(), 0u32..200, 0u32..4),
        vec(arb_delta(), 0..5),
        vec(arb_decision(), 0..5),
        vec(vec(0u32..10_000, 0..5), 0..4),
    )
        .prop_map(
            |(kind, (t0, t1, events, small), deltas, decisions, shards)| match kind {
                0 => WalRecord::Plan(PlanRecord {
                    seq: 0,
                    retained_weight: t0,
                    moved_workers: events,
                    moved_tasks: small,
                    shards,
                }),
                1 | 2 => WalRecord::Online(OnlineRecord {
                    seq: 0,
                    time: t0,
                    events,
                    fallbacks: small,
                    deltas,
                    decisions,
                }),
                _ => WalRecord::Batch(BatchRecord {
                    seq: 0,
                    first_time: t0,
                    last_time: t1,
                    events,
                    deltas,
                    decisions,
                }),
            },
        )
}

fn with_seq(rec: WalRecord, seq: u64) -> WalRecord {
    match rec {
        WalRecord::Batch(r) => WalRecord::Batch(BatchRecord { seq, ..r }),
        WalRecord::Online(r) => WalRecord::Online(OnlineRecord { seq, ..r }),
        WalRecord::Plan(r) => WalRecord::Plan(PlanRecord { seq, ..r }),
    }
}

fn tmp(tag: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mbta-store-prop-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// What every read path must agree on: watermark, shard sets, weights.
type View = (u64, Vec<Vec<u32>>, Vec<f64>);

/// The reference fold, written out by hand and independent of the
/// library's: the state after replaying `recs` in order.
fn replay_by_hand(recs: &[WalRecord]) -> View {
    let mut shards: Vec<BTreeSet<u32>> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    let mut touch = |edge: u32, w: f64| {
        if weights.len() <= edge as usize {
            weights.resize(edge as usize + 1, 0.0);
        }
        weights[edge as usize] = w;
    };
    for rec in recs {
        let (deltas, decisions) = match rec {
            WalRecord::Batch(r) => (&r.deltas, &r.decisions),
            WalRecord::Online(r) => (&r.deltas, &r.decisions),
            WalRecord::Plan(r) => {
                shards = r
                    .shards
                    .iter()
                    .map(|s| s.iter().copied().collect())
                    .collect();
                continue;
            }
        };
        for d in deltas {
            touch(d.edge, d.weight);
        }
        for d in decisions {
            let s = d.shard as usize;
            if shards.len() <= s {
                shards.resize_with(s + 1, BTreeSet::new);
            }
            touch(d.edge, d.weight);
            if d.action == Action::Assign {
                shards[s].insert(d.edge);
            } else {
                shards[s].remove(&d.edge);
            }
        }
    }
    let shards = shards
        .into_iter()
        .map(|s| s.into_iter().collect())
        .collect();
    (recs.len() as u64, shards, weights)
}

fn view(state: &RecoveredState) -> View {
    (state.watermark, state.shards.clone(), state.weights.clone())
}

fn commit(store: &mut DurableStore, rec: &WalRecord) {
    match rec {
        WalRecord::Batch(r) => store.commit(r),
        WalRecord::Online(r) => store.commit_online(r),
        WalRecord::Plan(r) => store.commit_plan(r),
    }
    .unwrap()
}

/// Byte offsets at which a frame ends in `bytes` (0 included).
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = vec![0];
    while let FrameRead::Frame { next, .. } = read_frame(bytes, *ends.last().unwrap()) {
        ends.push(next);
    }
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity, including f64 bit patterns.
    #[test]
    fn record_round_trips(seq in 0u64..1_000_000, rec in arb_record()) {
        let rec = with_seq(rec, seq);
        prop_assert_eq!(rec.seq(), seq);
        let decoded = WalRecord::decode(&rec.encode()).unwrap();
        prop_assert_eq!(decoded, rec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chopping the log at any byte offset reads back some clean prefix
    /// of the committed records — never a panic, never an invented or
    /// half-applied record — and every read path agrees on which.
    #[test]
    fn truncate_anywhere_recovers_a_prefix(
        bodies in vec(arb_record(), 3..9),
        snap_frac in 0.0f64..=1.0,
        tag in 0u64..1_000_000,
    ) {
        let recs: Vec<WalRecord> = bodies
            .into_iter()
            .enumerate()
            .map(|(i, body)| with_seq(body, i as u64))
            .collect();
        // Write the whole log once: tiny segments force rolls, and one
        // snapshot part-way compacts the segments behind it.
        let src = tmp(tag);
        let cfg = StoreConfig {
            fsync: FsyncPolicy::Never, // speed; fsync is irrelevant to layout
            snapshot_every: 0,
            segment_bytes: 120,
            ..StoreConfig::default()
        };
        let snap_at = (((recs.len() as f64) * snap_frac) as usize).min(recs.len() - 1);
        let (mut store, _) = DurableStore::open(&src, cfg).unwrap();
        for (i, rec) in recs.iter().enumerate() {
            if i == snap_at {
                let state = recover(&src).unwrap();
                prop_assert_eq!(view(&state), replay_by_hand(&recs[..i]));
                store.snapshot(&SnapshotState {
                    watermark: state.watermark,
                    shards: state.shards,
                    weights: state.weights,
                }).unwrap();
            }
            commit(&mut store, rec);
        }
        drop(store);
        let snap_at = snap_at as u64;

        // The surviving log as one byte stream: (first seq, file name,
        // bytes, offsets where its frames end).
        let segs: Vec<(u64, std::ffi::OsString, Vec<u8>, Vec<usize>)> = segment_files(&src)
            .unwrap()
            .into_iter()
            .map(|(first, path)| {
                let bytes = fs::read(&path).unwrap();
                let ends = frame_ends(&bytes);
                prop_assert_eq!(*ends.last().unwrap(), bytes.len());
                Ok((first, path.file_name().unwrap().to_owned(), bytes, ends))
            })
            .collect::<Result<_, TestCaseError>>()?;
        let first_seq = segs[0].0;
        prop_assert!(first_seq <= snap_at, "compaction dropped uncovered records");
        let total: usize = segs.iter().map(|s| s.2.len()).sum();

        // The crash directory: the snapshot, then the log grown one byte
        // at a time. A follower seeded from the snapshot keeps polling
        // the same directory throughout.
        let dir = tmp(tag + 1_000_000);
        fs::create_dir_all(&dir).unwrap();
        for entry in fs::read_dir(&src).unwrap() {
            let entry = entry.unwrap();
            if entry.file_name().to_string_lossy().ends_with(".snap") {
                fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
            }
        }
        // No segment yet: every reader is clean and sits at the snapshot.
        let mut fold = recover(&dir).unwrap();
        prop_assert_eq!(view(&fold), replay_by_hand(&recs[..snap_at as usize]));
        prop_assert_eq!(replay(&dir).unwrap().records, vec![]);
        let mut tail = WalTail::resume_from(&dir, snap_at);
        let first = tail.poll().unwrap();
        prop_assert_eq!((first.status, first.records.len()), (TailStatus::Clean, 0));
        let mut polled: Vec<WalRecord> = Vec::new();

        for cut in 1..=total {
            // Segments wholly before the cut are intact, the one holding
            // it is truncated there, later ones do not exist yet.
            let mut start = 0;
            let mut whole = 0u64; // records in whole frames before the cut
            let mut torn = 0usize; // bytes past the last whole frame
            for (_, name, bytes, ends) in &segs {
                if cut <= start {
                    break;
                }
                let len = (cut - start).min(bytes.len());
                if cut <= start + bytes.len() {
                    fs::write(dir.join(name), &bytes[..len]).unwrap();
                }
                let frames = ends.iter().rposition(|&e| e <= len).unwrap();
                whole += frames as u64;
                torn = len - ends[frames];
                start += bytes.len();
            }
            let durable = first_seq + whole; // next seq the log would hold
            let status = if torn == 0 { TailStatus::Clean } else { TailStatus::Blocked };

            let replayed = replay(&dir).unwrap();
            prop_assert_eq!(
                &replayed.records[..],
                &recs[first_seq as usize..durable as usize],
                "replay at cut {}", cut
            );

            let state = recover(&dir).unwrap();
            let watermark = durable.max(snap_at);
            prop_assert_eq!(
                view(&state),
                replay_by_hand(&recs[..watermark as usize]),
                "recover at cut {}", cut
            );
            prop_assert_eq!(state.snapshot_watermark, Some(snap_at));
            prop_assert_eq!(state.truncated_bytes, torn as u64, "cut {}", cut);

            let poll = tail.poll().unwrap();
            prop_assert_eq!(poll.status, status, "poll at cut {}", cut);
            prop_assert_eq!(poll.blocked_bytes > 0, torn > 0, "cut {}", cut);
            for rec in &poll.records {
                fold.apply(rec);
            }
            polled.extend(poll.records);
            prop_assert_eq!(view(&fold), view(&state), "fold at cut {}", cut);
            prop_assert_eq!(tail.next_seq(), watermark);
            let from = (snap_at.max(first_seq) - first_seq) as usize;
            prop_assert_eq!(&polled[..], &replayed.records[from.min(replayed.records.len())..]);

            // A reader that starts below what compaction kept is told so.
            let behind = WalTail::new(&dir).poll().unwrap();
            if first_seq > 0 {
                prop_assert_eq!(behind.status, TailStatus::Gap);
                prop_assert!(behind.records.is_empty());
            } else {
                prop_assert_eq!(behind.status, status);
                prop_assert_eq!(&behind.records, &replayed.records);
            }
        }
        fs::remove_dir_all(&src).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
