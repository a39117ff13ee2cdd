//! Decision output: the pluggable sink every dispatched batch flows into.
//!
//! The service separates *what it decided* ([`Decision`] — assignment
//! deltas in universe ids) from *how the batch went* ([`BatchStats`] —
//! size, queue depth, solve latency, quality tier). Sinks receive both per
//! batch. The decision log is the service's replayable contract: it
//! contains no wall-clock quantities, so a deterministic-budget replay of
//! the same trace produces a byte-identical log ([`WriteSink`] is used by
//! the CLI `replay` command and the CI smoke test to assert exactly that).

use crate::batch::FlushReason;
use mbta_core::engine::QualityTier;
use std::io::{self, Write};

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

/// One assignment change, in universe (parent-graph) ids.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Decision {
    /// Shard that made the change.
    pub shard: u32,
    /// Universe edge id (sort key — deterministic log order).
    pub edge: u32,
    /// Direction.
    pub action: Action,
    /// Universe worker id.
    pub worker: u32,
    /// Universe task id.
    pub task: u32,
    /// Edge weight at decision time.
    pub weight: f64,
}

/// Per-batch telemetry delivered alongside the decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Monotone batch sequence number (0-based).
    pub seq: u64,
    /// Which watermark closed the batch.
    pub reason: FlushReason,
    /// Events in the batch.
    pub events: usize,
    /// Ingress queue depth when the batch was dispatched.
    pub queue_depth: usize,
    /// Shards that received at least one event.
    pub shards_touched: usize,
    /// Shard solves tagged [`QualityTier::Degraded`]: the shard kept its
    /// seed (the budget cut the solve, or the shard is poisoned).
    pub degraded_shards: usize,
    /// Worst quality tier across the touched shards' solves (`None` when
    /// no shard needed a solve).
    pub worst_tier: Option<QualityTier>,
    /// Wall-clock milliseconds spent in shard solves for this batch.
    pub solve_ms: f64,
    /// Events rejected as malformed (unknown ids, non-finite weights).
    pub invalid_events: usize,
}

/// Receives every dispatched batch.
pub trait DecisionSink {
    /// Called once per batch, decisions sorted by (shard, edge, action).
    fn on_batch(&mut self, stats: &BatchStats, decisions: &[Decision]);
}

/// Collects everything in memory (tests, bench).
#[derive(Debug, Default)]
pub struct CollectSink {
    /// Per-batch stats, in dispatch order.
    pub batches: Vec<BatchStats>,
    /// All decisions, in dispatch order.
    pub decisions: Vec<Decision>,
}

impl DecisionSink for CollectSink {
    fn on_batch(&mut self, stats: &BatchStats, decisions: &[Decision]) {
        self.batches.push(stats.clone());
        self.decisions.extend_from_slice(decisions);
    }
}

/// Discards everything (pure throughput measurement).
#[derive(Debug, Default)]
pub struct NullSink;

impl DecisionSink for NullSink {
    fn on_batch(&mut self, _stats: &BatchStats, _decisions: &[Decision]) {}
}

/// Streams a textual decision log to a writer.
///
/// Line format: `b<seq> <assign|unassign> w<worker> t<task> e<edge> <weight>`
/// with the weight printed via `f64`'s shortest round-trip `Display`. The
/// log deliberately excludes latencies and tiers — everything in it is a
/// pure function of the input stream under deterministic budgets, which is
/// what makes `replay` byte-for-byte reproducible.
#[derive(Debug)]
pub struct WriteSink<W: Write> {
    out: W,
    /// First I/O error encountered, if any (the sink keeps accepting
    /// batches so a full run's stats stay intact; callers check `error`
    /// after `finish`).
    pub error: Option<io::Error>,
}

impl<W: Write> WriteSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        WriteSink { out, error: None }
    }

    /// Unwraps the inner writer (e.g. to inspect a `Vec<u8>` log).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> DecisionSink for WriteSink<W> {
    fn on_batch(&mut self, stats: &BatchStats, decisions: &[Decision]) {
        if self.error.is_some() {
            return;
        }
        for d in decisions {
            if let Err(e) = writeln!(
                self.out,
                "b{} {} w{} t{} e{} {}",
                stats.seq,
                d.action.name(),
                d.worker,
                d.task,
                d.edge,
                d.weight
            ) {
                self.error = Some(e);
                return;
            }
        }
    }
}

/// Sorts decisions into the canonical log order.
pub(crate) fn canonical_order(decisions: &mut [Decision]) {
    decisions.sort_by(|a, b| {
        (a.shard, a.edge, a.action)
            .partial_cmp(&(b.shard, b.edge, b.action))
            .expect("ids and actions are totally ordered")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(seq: u64) -> BatchStats {
        BatchStats {
            seq,
            reason: FlushReason::Count,
            events: 2,
            queue_depth: 0,
            shards_touched: 1,
            degraded_shards: 0,
            worst_tier: Some(QualityTier::Exact),
            solve_ms: 0.5,
            invalid_events: 0,
        }
    }

    fn d(shard: u32, edge: u32, action: Action) -> Decision {
        Decision {
            shard,
            edge,
            action,
            worker: edge * 10,
            task: edge * 100,
            weight: 0.25,
        }
    }

    #[test]
    fn write_sink_formats_lines_deterministically() {
        let mut sink = WriteSink::new(Vec::new());
        sink.on_batch(&stats(0), &[d(0, 3, Action::Assign)]);
        sink.on_batch(&stats(1), &[d(1, 7, Action::Unassign)]);
        assert!(sink.error.is_none());
        let log = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            log,
            "b0 assign w30 t300 e3 0.25\nb1 unassign w70 t700 e7 0.25\n"
        );
    }

    #[test]
    fn canonical_order_is_shard_edge_action() {
        let mut v = vec![
            d(1, 0, Action::Assign),
            d(0, 5, Action::Assign),
            d(0, 5, Action::Unassign),
            d(0, 2, Action::Assign),
        ];
        canonical_order(&mut v);
        assert_eq!(
            v.iter()
                .map(|x| (x.shard, x.edge, x.action))
                .collect::<Vec<_>>(),
            vec![
                (0, 2, Action::Assign),
                (0, 5, Action::Unassign),
                (0, 5, Action::Assign),
                (1, 0, Action::Assign),
            ]
        );
    }

    #[test]
    fn collect_sink_accumulates() {
        let mut sink = CollectSink::default();
        sink.on_batch(
            &stats(0),
            &[d(0, 1, Action::Assign), d(0, 2, Action::Assign)],
        );
        sink.on_batch(&stats(1), &[]);
        assert_eq!(sink.batches.len(), 2);
        assert_eq!(sink.decisions.len(), 2);
        assert_eq!(sink.batches[1].seq, 1);
    }
}
