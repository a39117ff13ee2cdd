//! The WAL payloads: one [`BatchRecord`] per committed dispatch batch
//! (or one [`OnlineRecord`] per online pump), plus the rarer
//! [`PlanRecord`] a re-plan writes at a batch boundary. [`WalRecord`] is
//! any of them, and [`WalRecord::decode`] the one decoder; the two
//! repeated sub-layouts — a commit's changes (deltas + decisions) and
//! per-shard edge lists — have one encoder and one decoder each.
//!
//! A batch record is everything needed to roll the sharded assignment
//! state forward by one batch, starting from any state that reflects the
//! batches before it: the weight updates the batch applied and the
//! assignment deltas it emitted. Event-range metadata (`first_time` /
//! `last_time` / `events`) ties the record back to the input trace for
//! auditing; it is not needed to replay state.
//!
//! A plan record is an *inline snapshot of the shard structure*: when the
//! service re-partitions the market it journals the complete
//! post-migration per-shard assignment lists, and replay (recovery and
//! followers alike) replaces its shard sets wholesale. Carrying the full
//! lists — rather than a move diff — keeps the fold trivially idempotent
//! against the state it lands on and immune to drift between the
//! primary's and a follower's view of the old plan. Weights are
//! untouched: migration moves assignments between shards, it never
//! revalues them.
//!
//! Batch payload layout (all little-endian, `f64` as raw bits):
//!
//! ```text
//! u8  kind (1 = batch record)
//! u64 seq                    — 0-based batch sequence number
//! f64 first_time, f64 last_time
//! u32 events                 — events in the batch (incl. invalid ones)
//! u32 n_deltas,    n × { u32 edge, f64 weight }
//! u32 n_decisions, n × { u32 shard, u32 edge, u8 assign,
//!                        u32 worker, u32 task, f64 weight }
//! ```
//!
//! Plan payload layout:
//!
//! ```text
//! u8  kind (2 = plan record)
//! u64 seq                    — consumes one slot in the same sequence
//! f64 retained_weight        — plan-time retained fraction (audit only)
//! u32 moved_workers, u32 moved_tasks
//! u32 n_lists, per list: u32 n_edges, n × u32 edge (sorted)
//! ```

use crate::codec::{put_f64, put_u32, put_u64, put_u8, Reader};
use std::fmt;

/// Payload kind tag for a batch record.
pub const KIND_BATCH: u8 = 1;

/// Payload kind tag for a plan (re-shard) record.
pub const KIND_PLAN: u8 = 2;

/// Payload kind tag for an online (per-event decision) record.
pub const KIND_ONLINE: u8 = 3;

/// A benefit-weight update applied during the batch, in universe edge ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightDelta {
    /// Universe edge id.
    pub edge: u32,
    /// The new live weight.
    pub weight: f64,
}

/// Assignment delta direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Action {
    /// The edge left the assignment.
    Unassign,
    /// The edge entered the assignment.
    Assign,
}

impl Action {
    /// Stable log keyword.
    pub fn name(self) -> &'static str {
        match self {
            Action::Assign => "assign",
            Action::Unassign => "unassign",
        }
    }
}

impl From<bool> for Action {
    /// `true` is `Assign`: the journal's `assign` byte.
    fn from(assign: bool) -> Self {
        if assign {
            Action::Assign
        } else {
            Action::Unassign
        }
    }
}

/// One assignment change, in universe (parent-graph) ids: what the
/// dispatch service emits and what the WAL journals, one type for both.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Decision {
    /// Shard that made the change.
    pub shard: u32,
    /// Universe edge id (sort key — deterministic log order).
    pub edge: u32,
    /// Direction; journaled as one `assign` byte (1 = `Assign`).
    pub action: Action,
    /// Universe worker id.
    pub worker: u32,
    /// Universe task id.
    pub task: u32,
    /// Edge weight at decision time.
    pub weight: f64,
}

/// Encoded size of one [`WeightDelta`] / one [`Decision`].
const DELTA_BYTES: usize = 12;
const DECISION_BYTES: usize = 25;

/// Encoded size of the changes a batch or online record carries.
fn changes_len(deltas: &[WeightDelta], decisions: &[Decision]) -> usize {
    8 + DELTA_BYTES * deltas.len() + DECISION_BYTES * decisions.len()
}

/// The one encoder of "what a commit changed": the weight deltas, then
/// the assignment deltas, each behind a `u32` count. Batch and online
/// records end with it.
fn put_changes(out: &mut Vec<u8>, deltas: &[WeightDelta], decisions: &[Decision]) {
    put_u32(out, deltas.len() as u32);
    for d in deltas {
        put_u32(out, d.edge);
        put_f64(out, d.weight);
    }
    put_u32(out, decisions.len() as u32);
    for d in decisions {
        put_u32(out, d.shard);
        put_u32(out, d.edge);
        put_u8(out, u8::from(d.action == Action::Assign));
        put_u32(out, d.worker);
        put_u32(out, d.task);
        put_f64(out, d.weight);
    }
}

/// Inverse of [`put_changes`]. `f64` fields round-trip bit-for-bit.
fn get_changes(r: &mut Reader<'_>) -> Result<(Vec<WeightDelta>, Vec<Decision>), DecodeError> {
    let n_deltas = r.len_prefix(DELTA_BYTES)?;
    let mut deltas = Vec::with_capacity(n_deltas);
    for _ in 0..n_deltas {
        deltas.push(WeightDelta {
            edge: r.u32()?,
            weight: r.f64()?,
        });
    }
    let n_decisions = r.len_prefix(DECISION_BYTES)?;
    let mut decisions = Vec::with_capacity(n_decisions);
    for _ in 0..n_decisions {
        decisions.push(Decision {
            shard: r.u32()?,
            edge: r.u32()?,
            action: Action::from(r.u8()? != 0),
            worker: r.u32()?,
            task: r.u32()?,
            weight: r.f64()?,
        });
    }
    Ok((deltas, decisions))
}

/// Encoded size of per-shard edge lists.
pub(crate) fn shards_len(shards: &[Vec<u32>]) -> usize {
    4 + shards.iter().map(|s| 4 + 4 * s.len()).sum::<usize>()
}

/// The one encoder of per-shard edge lists (`u32 n_lists`, then per list
/// `u32 n_edges` and the edges): the tail of a plan record and the body
/// of a snapshot.
pub(crate) fn put_shards(out: &mut Vec<u8>, shards: &[Vec<u32>]) {
    put_u32(out, shards.len() as u32);
    for shard in shards {
        put_u32(out, shard.len() as u32);
        for &e in shard {
            put_u32(out, e);
        }
    }
}

/// Inverse of [`put_shards`].
pub(crate) fn get_shards(r: &mut Reader<'_>) -> Result<Vec<Vec<u32>>, DecodeError> {
    let n_lists = r.len_prefix(4)?;
    let mut shards = Vec::with_capacity(n_lists);
    for _ in 0..n_lists {
        let n = r.len_prefix(4)?;
        let mut edges = Vec::with_capacity(n);
        for _ in 0..n {
            edges.push(r.u32()?);
        }
        shards.push(edges);
    }
    Ok(shards)
}

/// Everything journaled for one committed batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// 0-based batch sequence number; WAL records are strictly ascending.
    pub seq: u64,
    /// Arrival time of the batch's first event (0 when empty).
    pub first_time: f64,
    /// Arrival time of the batch's last event (0 when empty).
    pub last_time: f64,
    /// Events the batch contained.
    pub events: u32,
    /// Weight updates applied, in application order.
    pub deltas: Vec<WeightDelta>,
    /// Assignment deltas emitted, in canonical log order.
    pub decisions: Vec<Decision>,
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the format said it would.
    Truncated,
    /// The payload's kind tag is not one this version understands.
    BadKind(u8),
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::BadKind(k) => write!(f, "unknown payload kind {k}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl BatchRecord {
    /// Encodes the record into its WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(29 + changes_len(&self.deltas, &self.decisions));
        put_u8(&mut out, KIND_BATCH);
        put_u64(&mut out, self.seq);
        put_f64(&mut out, self.first_time);
        put_f64(&mut out, self.last_time);
        put_u32(&mut out, self.events);
        put_changes(&mut out, &self.deltas, &self.decisions);
        out
    }
}

/// Everything journaled for one shard re-plan: the complete
/// post-migration shard structure (see the module docs for why the full
/// lists travel instead of a diff).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRecord {
    /// Sequence slot this record consumes (shared with batch records).
    pub seq: u64,
    /// Retained-weight fraction of the new plan at plan time (audit
    /// metadata; replay does not use it).
    pub retained_weight: f64,
    /// Workers whose home shard changed.
    pub moved_workers: u32,
    /// Tasks whose shard changed.
    pub moved_tasks: u32,
    /// Per shard (rescue overlay last, when present), the sorted universe
    /// edge ids assigned after the migration.
    pub shards: Vec<Vec<u32>>,
}

impl PlanRecord {
    /// Encodes the record into its WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(25 + shards_len(&self.shards));
        put_u8(&mut out, KIND_PLAN);
        put_u64(&mut out, self.seq);
        put_f64(&mut out, self.retained_weight);
        put_u32(&mut out, self.moved_workers);
        put_u32(&mut out, self.moved_tasks);
        put_shards(&mut out, &self.shards);
        out
    }
}

/// Everything journaled for one online pump: the per-event decisions the
/// incremental path made since the previous record. Replays exactly like
/// a batch record (weight deltas, then assignment deltas); the extra
/// metadata (`events`, `fallbacks`) is audit-only.
///
/// Online payload layout:
///
/// ```text
/// u8  kind (3 = online record)
/// u64 seq                    — shared sequence space with batch/plan
/// f64 time                   — arrival time of the last folded event
/// u32 events                 — events folded into this record
/// u32 fallbacks              — drift-fallback re-solves performed
/// u32 n_deltas,    n × { u32 edge, f64 weight }
/// u32 n_decisions, n × { u32 shard, u32 edge, u8 assign,
///                        u32 worker, u32 task, f64 weight }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineRecord {
    /// Sequence slot (shared with batch and plan records).
    pub seq: u64,
    /// Arrival time of the last event folded in (0 when empty).
    pub time: f64,
    /// Events folded into this record.
    pub events: u32,
    /// Drift-fallback exact re-solves performed within this record.
    pub fallbacks: u32,
    /// Weight updates applied, in application order.
    pub deltas: Vec<WeightDelta>,
    /// Assignment deltas emitted, in canonical log order.
    pub decisions: Vec<Decision>,
}

impl OnlineRecord {
    /// Encodes the record into its WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(25 + changes_len(&self.deltas, &self.decisions));
        put_u8(&mut out, KIND_ONLINE);
        put_u64(&mut out, self.seq);
        put_f64(&mut out, self.time);
        put_u32(&mut out, self.events);
        put_u32(&mut out, self.fallbacks);
        put_changes(&mut out, &self.deltas, &self.decisions);
        out
    }
}

/// Any record the WAL can hold. The sequence numbering is shared: plan
/// and online records consume a slot exactly like batch records, so
/// replay and followers stay strictly sequential across all kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// One committed dispatch batch.
    Batch(BatchRecord),
    /// One shard re-plan (inline shard-structure snapshot).
    Plan(PlanRecord),
    /// One committed online pump (per-event decisions).
    Online(OnlineRecord),
}

impl WalRecord {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Batch(r) => r.seq,
            WalRecord::Plan(r) => r.seq,
            WalRecord::Online(r) => r.seq,
        }
    }

    /// Encodes the record into its WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WalRecord::Batch(r) => r.encode(),
            WalRecord::Plan(r) => r.encode(),
            WalRecord::Online(r) => r.encode(),
        }
    }

    /// Decodes a WAL payload of any kind — the one decoder every reader
    /// of the log goes through. Total: malformed bytes yield a
    /// [`DecodeError`], never a panic or an unchecked allocation.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, DecodeError> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            KIND_BATCH => {
                let (seq, first_time, last_time, events) = (r.u64()?, r.f64()?, r.f64()?, r.u32()?);
                let (deltas, decisions) = get_changes(&mut r)?;
                WalRecord::Batch(BatchRecord {
                    seq,
                    first_time,
                    last_time,
                    events,
                    deltas,
                    decisions,
                })
            }
            KIND_PLAN => WalRecord::Plan(PlanRecord {
                seq: r.u64()?,
                retained_weight: r.f64()?,
                moved_workers: r.u32()?,
                moved_tasks: r.u32()?,
                shards: get_shards(&mut r)?,
            }),
            KIND_ONLINE => {
                let (seq, time, events, fallbacks) = (r.u64()?, r.f64()?, r.u32()?, r.u32()?);
                let (deltas, decisions) = get_changes(&mut r)?;
                WalRecord::Online(OnlineRecord {
                    seq,
                    time,
                    events,
                    fallbacks,
                    deltas,
                    decisions,
                })
            }
            kind => return Err(DecodeError::BadKind(kind)),
        };
        r.finish()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample(seq: u64) -> BatchRecord {
        BatchRecord {
            seq,
            first_time: 0.25 * seq as f64,
            last_time: 0.25 * seq as f64 + 0.1,
            events: 3,
            deltas: vec![
                WeightDelta {
                    edge: 7,
                    weight: 0.5,
                },
                WeightDelta {
                    edge: 11,
                    weight: f64::MIN_POSITIVE,
                },
            ],
            decisions: vec![Decision {
                shard: 1,
                edge: 7,
                action: Action::Assign,
                worker: 3,
                task: 9,
                weight: 0.5,
            }],
        }
    }

    #[test]
    fn encode_decode_identity() {
        let rec = WalRecord::Batch(sample(42));
        assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn empty_batch_round_trips() {
        let rec = WalRecord::Batch(BatchRecord {
            seq: 0,
            first_time: 0.0,
            last_time: 0.0,
            events: 0,
            deltas: vec![],
            decisions: vec![],
        });
        assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let good = sample(1).encode();
        // Every strict prefix is Truncated (or TrailingBytes never — the
        // cut always shortens).
        for cut in 0..good.len() {
            assert!(
                WalRecord::decode(&good[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        // Trailing garbage.
        let mut extra = good.clone();
        extra.push(0);
        assert_eq!(WalRecord::decode(&extra), Err(DecodeError::TrailingBytes));
        // Wrong kind tag.
        let mut bad = good.clone();
        bad[0] = 0xEE;
        assert_eq!(WalRecord::decode(&bad), Err(DecodeError::BadKind(0xEE)));
        // A corrupt delta count must not allocate or panic.
        let mut huge = good;
        huge[29..33].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(WalRecord::decode(&huge), Err(DecodeError::Truncated));
    }

    fn sample_plan(seq: u64) -> PlanRecord {
        PlanRecord {
            seq,
            retained_weight: 0.875,
            moved_workers: 12,
            moved_tasks: 7,
            shards: vec![vec![1, 5, 9], vec![], vec![2, 3]],
        }
    }

    #[test]
    fn plan_record_round_trips() {
        let rec = WalRecord::Plan(sample_plan(17));
        assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
        // Every strict prefix fails, never panics.
        let bytes = rec.encode();
        for cut in 0..bytes.len() {
            assert!(WalRecord::decode(&bytes[..cut]).is_err());
        }
    }

    pub(crate) fn sample_online(seq: u64) -> OnlineRecord {
        OnlineRecord {
            seq,
            time: 1.5 + seq as f64,
            events: 1,
            fallbacks: u32::from(seq.is_multiple_of(4)),
            deltas: vec![WeightDelta {
                edge: 3,
                weight: 0.75,
            }],
            decisions: vec![
                Decision {
                    shard: 0,
                    edge: 3,
                    action: Action::Unassign,
                    worker: 1,
                    task: 2,
                    weight: 0.2,
                },
                Decision {
                    shard: 0,
                    edge: 5,
                    action: Action::Assign,
                    worker: 1,
                    task: 4,
                    weight: 0.75,
                },
            ],
        }
    }

    #[test]
    fn online_record_round_trips_and_rejects_malformed() {
        let rec = WalRecord::Online(sample_online(9));
        let bytes = rec.encode();
        assert_eq!(WalRecord::decode(&bytes).unwrap(), rec);
        for cut in 0..bytes.len() {
            assert!(
                WalRecord::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(WalRecord::decode(&extra), Err(DecodeError::TrailingBytes));
        // A corrupt delta count must not allocate or panic (count sits
        // after kind + seq + time + events + fallbacks = 25 bytes).
        let mut huge = bytes;
        huge[25..29].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(WalRecord::decode(&huge), Err(DecodeError::Truncated));
    }

    #[test]
    fn wal_record_dispatches_on_kind() {
        let b = WalRecord::Batch(sample(3));
        let p = WalRecord::Plan(sample_plan(4));
        let o = WalRecord::Online(sample_online(5));
        assert_eq!(WalRecord::decode(&b.encode()).unwrap(), b);
        assert_eq!(WalRecord::decode(&p.encode()).unwrap(), p);
        assert_eq!(WalRecord::decode(&o.encode()).unwrap(), o);
        assert_eq!(b.seq(), 3);
        assert_eq!(p.seq(), 4);
        assert_eq!(o.seq(), 5);
        assert_eq!(WalRecord::decode(&[9]), Err(DecodeError::BadKind(9)));
        assert_eq!(WalRecord::decode(&[]), Err(DecodeError::Truncated));
    }
}
