//! End-of-run service telemetry.
//!
//! [`ServiceReport`] is what `DispatchService::finish` hands back: ingress
//! accounting (drops, deferrals and their retry successes, invalid
//! events), batch/flush breakdowns, solve-quality tier tallies, batch
//! solve-latency percentiles (derived from the shared
//! `mbta_telemetry::Histogram` bucket layout, not a private sample
//! buffer), throughput, and — the acceptance invariant — the
//! capacity-violation count from the cross-shard reconciliation, which
//! must be zero on every run.

use crate::sink::BatchStats;
use mbta_core::engine::QualityTier;
use mbta_util::table::{fnum, Table};

/// Aggregated statistics for one service run. The service accumulates
/// its run counters directly into one of these (hence `Default`) and
/// fills in the end-of-run measurements at `finish`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceReport {
    /// Shard count the service ran with.
    pub n_shards: usize,
    /// Universe edges unreachable under the shard plan.
    pub cross_edges: usize,
    /// Fraction of **live** edge weight on intra-shard edges at run end
    /// (plan quality under the weights as they drifted, not as planned).
    pub retained_weight: f64,
    /// Like `retained_weight`, but also crediting cross edges whose
    /// endpoints were ever concurrently live — weight the boundary-rescue
    /// market could reach, so the partition is charged only for what it
    /// made unreachable (equals `retained_weight` with the boundary pass
    /// off).
    pub effective_retained: f64,
    /// Live weight held by the rescue overlay at run end.
    pub rescued_weight: f64,
    /// Boundary-rescue solves executed (≤ batches).
    pub rescue_solves: u64,
    /// Assign decisions the rescue overlay emitted across the run.
    pub rescue_assigns: u64,
    /// Units the boundary pass reserved at posted prices: each is ceded by
    /// its home shard at the next batch, for the rescue to take or leave.
    pub reserved_units: u64,
    /// Drift-driven re-plans applied (detach → rebuild → resume cycles).
    pub replans: u64,
    /// Workers whose home shard changed across all re-plans.
    pub migrated_workers: u64,
    /// Tasks whose shard changed across all re-plans.
    pub migrated_tasks: u64,

    /// Events offered to the service (before admission control).
    pub events_in: u64,
    /// Events actually applied to shard states.
    pub events_processed: u64,
    /// Events discarded by the `DropNewest` policy.
    pub dropped_newest: u64,
    /// Events discarded by the `DropOldest` policy.
    pub dropped_oldest: u64,
    /// Full-queue offers bounced back under the `Defer` policy.
    pub deferrals: u64,
    /// Offers admitted on the retry immediately after a deferral — the
    /// backpressure loop's success count (previously uncounted).
    pub defer_retry_ok: u64,
    /// Events rejected as malformed (unknown ids, non-finite weights).
    pub invalid_events: u64,
    /// Benefit updates dropped because their edge crosses shards.
    pub cross_benefit_drops: u64,
    /// Events a cluster shard owner received for a shard it does not own.
    /// Never set by the service itself, which has no notion of ownership:
    /// the shard worker counts them at its process boundary, without
    /// offering them, and stamps the count into the report it returns (a
    /// correctly routing upstream sends none). 0 everywhere else.
    pub foreign_events: u64,
    /// Deepest the ingress queue ever got.
    pub queue_high_watermark: usize,

    /// The commit sequence watermark: every record the run committed,
    /// whatever wrote it — batch flushes, online deciding events and
    /// closing-drain solves, and re-plan migrations. Always equals
    /// `flush_count + flush_bytes + flush_watermark + flush_drain +
    /// flush_online + replans`, and the durable watermark when a store
    /// is attached.
    pub batches: u64,
    /// Batches closed by the count watermark.
    pub flush_count: u64,
    /// Batches closed by the byte watermark.
    pub flush_bytes: u64,
    /// Batches closed by the time watermark.
    pub flush_watermark: u64,
    /// Final partial batches flushed at end of stream.
    pub flush_drain: u64,
    /// Per-event flushes from the online decision path (one per event
    /// that produced decisions or weight deltas; always zero in batch
    /// mode).
    pub flush_online: u64,

    /// Events decided by the online path (zero in batch mode).
    pub online_events: u64,
    /// Drift-threshold crossings that triggered an exact re-solve (or,
    /// for a poisoned shard, an accumulator reset without one).
    pub online_fallbacks: u64,
    /// Depth-1 exchanges that displaced a weaker assigned edge.
    pub online_exchanges: u64,
    /// Online-mode exact solves (fallbacks and the closing drain) of the
    /// shards' carried networks, across all shards and plan epochs.
    /// Always 0 in batch mode, whose shard solves run on the same networks
    /// but are already counted in `solves` / `tier_exact` (the
    /// `mbta_core_warm_solves_total` counter has both).
    pub online_warm_solves: u64,
    /// Of those, runs that completed by repairing the carried potentials
    /// around the seeded flow (not a first solve, not interrupted). Online-only
    /// and 0 in batch mode, like `online_warm_solves`.
    pub online_warm_hits: u64,
    /// Median per-event online decision latency (wall-clock ms).
    pub p50_online_ms: f64,
    /// 99th-percentile per-event online decision latency (ms).
    pub p99_online_ms: f64,
    /// Worst per-event online decision latency (ms).
    pub max_online_ms: f64,

    /// Per-shard batch solves: one per touched shard per batch, a poisoned
    /// shard's included. Each is exact or keeps its seed.
    pub solves: u64,
    /// Solves that achieved the exact tier.
    pub tier_exact: u64,
    /// Solves that degraded to their seed, the shard's greedy-repaired
    /// assignment (cut by the budget, or not run on a poisoned shard).
    pub tier_degraded: u64,
    /// Degraded-solve count per shard (poisoned shards show up here).
    pub degraded_by_shard: Vec<u64>,
    /// Solves whose improvement was adopted via incremental reseed.
    pub reseeds: u64,
    /// Assignment deltas emitted.
    pub decisions: u64,

    /// Median per-batch solve latency (wall-clock ms).
    pub p50_solve_ms: f64,
    /// 99th-percentile per-batch solve latency (wall-clock ms).
    pub p99_solve_ms: f64,
    /// Worst per-batch solve latency (wall-clock ms).
    pub max_solve_ms: f64,
    /// Total run wall-clock milliseconds.
    pub wall_ms: f64,
    /// Processed events per wall-clock second.
    pub events_per_sec: f64,

    /// Total weight of the final reconciled assignment.
    pub final_value: f64,
    /// Edges in the final reconciled assignment.
    pub final_assignments: usize,
    /// Capacity violations found when validating the union of shard
    /// assignments against the universe graph. **Must be zero**; a nonzero
    /// value means the node-disjoint shard invariant was broken.
    pub capacity_violations: usize,

    /// Solver-pool width the run used (resolved: `--threads 0` reports the
    /// host's available parallelism, not 0).
    pub pool_threads: usize,
    /// Always 0: the solve pool has one shared queue, so nothing is stolen.
    /// Kept because the system benchmark's `service.pool_steals` reads it.
    pub steals: u64,

    /// Batch records journaled to the WAL (0 when no store is attached).
    pub wal_records: u64,
    /// Frame bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Snapshots written (periodic + the final seal).
    pub snapshots: u64,
    /// First store I/O error, if journaling failed mid-run. The durable
    /// prefix on disk is still valid; everything after the error exists
    /// only in this process's memory.
    pub store_error: Option<String>,
}

impl ServiceReport {
    /// Tallies one shard solve of a batch here and in the batch's `stats`:
    /// `Exact` when it completed, else `Degraded` — shard `s` kept its seed
    /// (a solve the budget cut, or a poisoned shard's, never run).
    pub(crate) fn tally_solve(&mut self, stats: &mut BatchStats, s: usize, completed: bool) {
        self.solves += 1;
        let tier = if completed {
            self.tier_exact += 1;
            QualityTier::Exact
        } else {
            self.tier_degraded += 1;
            self.degraded_by_shard[s] += 1;
            stats.degraded_shards += 1;
            QualityTier::Degraded
        };
        stats.worst_tier = Some(stats.worst_tier.map_or(tier, |t| t.min(tier)));
    }

    /// Renders the operator-facing summary tables.
    pub fn render(&self) -> String {
        let mut ingress = Table::new(
            "service: ingress",
            &[
                "events in",
                "processed",
                "dropped",
                "deferred",
                "retry ok",
                "invalid",
                "x-shard benefit",
                "foreign",
                "queue peak",
            ],
        );
        ingress.row(vec![
            self.events_in.to_string(),
            self.events_processed.to_string(),
            (self.dropped_newest + self.dropped_oldest).to_string(),
            self.deferrals.to_string(),
            self.defer_retry_ok.to_string(),
            self.invalid_events.to_string(),
            self.cross_benefit_drops.to_string(),
            self.foreign_events.to_string(),
            self.queue_high_watermark.to_string(),
        ]);

        let mut batches = Table::new(
            "service: batches & solves",
            &[
                "batches",
                "count/bytes/time/drain/online",
                "solves",
                "exact",
                "degraded",
                "reseeds",
                "decisions",
            ],
        );
        batches.row(vec![
            self.batches.to_string(),
            format!(
                "{}/{}/{}/{}/{}",
                self.flush_count,
                self.flush_bytes,
                self.flush_watermark,
                self.flush_drain,
                self.flush_online
            ),
            self.solves.to_string(),
            self.tier_exact.to_string(),
            self.tier_degraded.to_string(),
            self.reseeds.to_string(),
            self.decisions.to_string(),
        ]);

        let mut perf = Table::new(
            "service: throughput & latency",
            &[
                "shards",
                "threads",
                "retained wt",
                "events/sec",
                "p50 ms",
                "p99 ms",
                "max ms",
                "wall ms",
            ],
        );
        perf.row(vec![
            self.n_shards.to_string(),
            self.pool_threads.to_string(),
            fnum(self.retained_weight, 3),
            fnum(self.events_per_sec, 0),
            fnum(self.p50_solve_ms, 3),
            fnum(self.p99_solve_ms, 3),
            fnum(self.max_solve_ms, 3),
            fnum(self.wall_ms, 1),
        ]);

        let mut fin = Table::new(
            "service: final state",
            &["assignments", "total value", "capacity violations"],
        );
        fin.row(vec![
            self.final_assignments.to_string(),
            fnum(self.final_value, 4),
            self.capacity_violations.to_string(),
        ]);

        let mut out = format!(
            "{}\n{}\n{}\n{}",
            ingress.render(),
            batches.render(),
            perf.render(),
            fin.render()
        );

        if self.online_events > 0 {
            let mut online = Table::new(
                "service: online path",
                &[
                    "events",
                    "exchanges",
                    "fallbacks",
                    "warm solves",
                    "warm hits",
                    "p50 ev ms",
                    "p99 ev ms",
                    "max ev ms",
                ],
            );
            online.row(vec![
                self.online_events.to_string(),
                self.online_exchanges.to_string(),
                self.online_fallbacks.to_string(),
                self.online_warm_solves.to_string(),
                self.online_warm_hits.to_string(),
                fnum(self.p50_online_ms, 3),
                fnum(self.p99_online_ms, 3),
                fnum(self.max_online_ms, 3),
            ]);
            out.push('\n');
            out.push_str(&online.render());
        }

        if self.rescue_solves > 0 || self.replans > 0 {
            let mut quality = Table::new(
                "service: sharding quality",
                &[
                    "effective retained",
                    "rescued wt",
                    "rescue solves",
                    "rescue assigns",
                    "replans",
                    "migrated w/t",
                ],
            );
            quality.row(vec![
                fnum(self.effective_retained, 3),
                fnum(self.rescued_weight, 4),
                self.rescue_solves.to_string(),
                self.rescue_assigns.to_string(),
                self.replans.to_string(),
                format!("{}/{}", self.migrated_workers, self.migrated_tasks),
            ]);
            out.push('\n');
            out.push_str(&quality.render());
        }

        if self.wal_records > 0 || self.snapshots > 0 || self.store_error.is_some() {
            let mut dur = Table::new(
                "service: durability",
                &["wal records", "wal bytes", "snapshots", "store error"],
            );
            dur.row(vec![
                self.wal_records.to_string(),
                self.wal_bytes.to_string(),
                self.snapshots.to_string(),
                self.store_error.clone().unwrap_or_else(|| "none".into()),
            ]);
            out.push('\n');
            out.push_str(&dur.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_mentions_the_invariants() {
        let r = ServiceReport {
            n_shards: 4,
            cross_edges: 10,
            retained_weight: 0.82,
            effective_retained: 0.91,
            rescued_weight: 1.25,
            rescue_solves: 6,
            rescue_assigns: 4,
            reserved_units: 2,
            replans: 1,
            migrated_workers: 12,
            migrated_tasks: 9,
            events_in: 100,
            events_processed: 95,
            dropped_newest: 5,
            dropped_oldest: 0,
            deferrals: 2,
            defer_retry_ok: 2,
            invalid_events: 1,
            cross_benefit_drops: 3,
            foreign_events: 0,
            queue_high_watermark: 17,
            batches: 7,
            flush_count: 4,
            flush_bytes: 1,
            flush_watermark: 1,
            flush_drain: 1,
            flush_online: 0,
            online_events: 55,
            online_fallbacks: 3,
            online_exchanges: 8,
            online_warm_solves: 3,
            online_warm_hits: 2,
            p50_online_ms: 0.12,
            p99_online_ms: 0.9,
            max_online_ms: 1.4,
            solves: 12,
            tier_exact: 11,
            tier_degraded: 1,
            degraded_by_shard: vec![1, 0, 0, 0],
            reseeds: 6,
            decisions: 40,
            p50_solve_ms: 0.8,
            p99_solve_ms: 2.5,
            max_solve_ms: 3.0,
            wall_ms: 120.0,
            events_per_sec: 791.7,
            final_value: 12.5,
            final_assignments: 33,
            capacity_violations: 0,
            pool_threads: 4,
            steals: 0,
            wal_records: 7,
            wal_bytes: 1024,
            snapshots: 2,
            store_error: None,
        };
        let s = r.render();
        assert!(s.contains("capacity violations"));
        assert!(s.contains("wal records"));
        assert!(s.contains("snapshots"));
        assert!(s.contains("events/sec"));
        assert!(s.contains("threads"));
        assert!(
            s.contains("792") || s.contains("791"),
            "events/sec rendered: {s}"
        );
        assert!(s.contains("0.820"));
        assert!(s.contains("sharding quality"));
        assert!(s.contains("0.910"));
        assert!(s.contains("12/9"));
        assert!(s.contains("online path"));
        assert!(s.contains("warm hits"));
        assert!(s.contains("0.120"));
    }
}
