//! The dispatch service: the driver around one [`Dispatcher`].
//!
//! [`DispatchService`] is the long-running loop this crate exists for. It
//! decides nothing itself — every decision comes from its
//! [`Dispatcher`], which does no I/O — and owns everything else:
//!
//! * **Ingress** — the [`BoundedQueue`] and its overload accounting, and,
//!   in batch mode, the [`Batcher`] that closes micro-batches on their
//!   watermarks (in online mode every event is its own step).
//! * **Commit** — the single place a decision leaves the service: it
//!   owns the sequence number, the tallies, the write-ahead journaling
//!   (record durable *before* any decision is released, snapshots on the
//!   store's cadence, journaling stops at the first I/O error) and the
//!   sink emission. Batches, online events, the online closing solves and
//!   re-plan migrations all end in it.
//! * **Clocks** — the run's wall clock, the per-batch solve and per-event
//!   latency histograms, and the [`ServiceReport`] the dispatcher's
//!   counters accumulate into.
//!
//! ```text
//!  producers --offer--> BoundedQueue --pump--> Batcher --> Dispatcher::batch
//!                                          (online) --> Dispatcher::event
//!                 --> commit: seq + tallies --> WAL --> DecisionSink
//! ```
//!
//! A re-plan ([`DispatchService::detach`] → [`DispatchService::resume`])
//! carries the driver's state over whole and moves the dispatcher onto the
//! next plan ([`Dispatcher::detach`] → [`Dispatcher::replan`]). See the
//! [`crate::dispatch`] module docs for what the decisions are and why they
//! are deterministic at any thread count.

use crate::batch::{BatchConfig, Batcher, ClosedBatch, FlushReason};
use crate::dispatch::{BudgetMode, Commit, Detached, Dispatcher, Head};
use crate::event::Arrival;
use crate::online::OnlineConfig;
use crate::queue::{BoundedQueue, DropPolicy, OfferOutcome};
use crate::report::ServiceReport;
use crate::shard::ShardPlan;
use crate::sink::DecisionSink;
use mbta_graph::BipartiteGraph;
use mbta_store::snapshot::SnapshotState;
use mbta_store::store::{DurableStore, StoreStats};
use mbta_telemetry::Histogram;
use std::io;
use std::time::Instant;

/// Service construction parameters. Two of them switch modes — `online`
/// and `boundary_pass` — and none says which shards this process owns: a
/// service applies every event it is offered, so a cluster shard owner is
/// an ordinary service that is offered one shard's events (its worker loop
/// filters at the process boundary). Re-planning is the driver's: it reads
/// [`DispatchService::cut_degradation`] against its own threshold.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Micro-batch watermarks.
    pub batch: BatchConfig,
    /// Ingress queue capacity.
    pub queue_cap: usize,
    /// Ingress overload policy.
    pub drop_policy: DropPolicy,
    /// Solve budget mode.
    pub budget: BudgetMode,
    /// Solver threads for touched-shard solves, the dispatching thread
    /// among them; `0` = available parallelism, `1` = no helper thread.
    pub threads: usize,
    /// Run the cross-shard boundary-rescue pass after every batch's shard
    /// solves merge: cross edges whose endpoints still have residual
    /// capacity form a small second-stage matching market whose solution
    /// overlays the intra-shard assignments (see [`crate::dispatch`]). Also
    /// makes cross-shard benefit updates *processed* (they feed the
    /// rescue market) instead of dropped.
    pub boundary_pass: bool,
    /// Per-event online decision path: `Some` bypasses the batcher and
    /// decides on every event (greedy repair + depth-1 exchange, with a
    /// warm-started exact fallback once per-shard drift crosses the
    /// configured threshold). Incompatible with `boundary_pass` — the
    /// rescue overlay is a batch-boundary construct.
    pub online: Option<OnlineConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch: BatchConfig::default(),
            queue_cap: 4096,
            drop_policy: DropPolicy::Defer,
            budget: BudgetMode::Wallclock(50),
            threads: 0,
            boundary_pass: false,
            online: None,
        }
    }
}

/// The event-driven dispatch service. See the module docs.
///
/// The driving loop is `offer` → `pump` → `finish`; under the `Defer`
/// overload policy, a deferred offer means "pump batches, then retry".
/// [`DispatchService::submit`] is that protocol for one event:
///
/// ```
/// use mbta_graph::random::from_edges;
/// use mbta_service::{
///     Arrival, DispatchService, NullSink, Routing, ServiceConfig, ServiceEvent, ShardPlan,
/// };
///
/// let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.9, 0.9), (1, 1, 0.5, 0.5)]);
/// let weights = vec![0.9, 0.5];
/// let plan = ShardPlan::build(&g, &weights, 2, Routing::HashId);
/// let mut svc = DispatchService::new(&g, &plan, ServiceConfig::default());
/// let mut sink = NullSink;
///
/// for (time, event) in [
///     (0.0, ServiceEvent::WorkerJoin(0)),
///     (0.5, ServiceEvent::TaskPost(0)),
/// ] {
///     svc.submit(Arrival { time, event }, &mut sink);
/// }
/// let report = svc.finish(&mut sink);
/// assert_eq!(report.capacity_violations, 0);
/// assert_eq!(report.events_processed, 2);
/// ```
pub struct DispatchService<'p> {
    dispatcher: Dispatcher<'p>,
    driver: Driver,
}

/// Everything the service owns but the decision state — what a re-plan
/// carries over whole.
struct Driver {
    queue: BoundedQueue,
    /// `None` in online mode, where every event is its own step.
    batcher: Option<Batcher>,
    /// Optional durability: when attached, every commit is journaled to
    /// the WAL *before* its decisions reach the sink, and full-state
    /// snapshots are written on the store's cadence.
    store: Option<DurableStore>,
    /// Set by a `Deferred` offer, cleared by the next admitted one: the
    /// admitted offer is then a defer-retry success.
    defer_pending: bool,
    /// Per-batch solve latency and per-event online latency (wall-clock
    /// ms); the report's percentiles derive from their buckets.
    solve_lat: Histogram,
    event_lat: Histogram,
    started: Instant,
    /// The run counters accumulate here directly — the driver's (`batches`
    /// is the commit sequence number, `store_error` the first store I/O
    /// error, after which journaling stops) and the dispatcher's, which
    /// each step is lent. `finish` fills in the end-of-run measurements.
    report: ServiceReport,
}

/// The dispatcher's state as a snapshot payload at `watermark`.
fn snapshot(d: &Dispatcher<'_>, watermark: u64) -> SnapshotState {
    SnapshotState {
        watermark,
        shards: d.shard_sets(),
        weights: d.weights().to_vec(),
    }
}

impl Driver {
    /// Records the first store I/O error. Journaling stops for good — the
    /// durable prefix on disk stays valid — and the service keeps
    /// dispatching; the report carries the error.
    fn note_store_result(&mut self, res: io::Result<()>) {
        if let Err(e) = res {
            mbta_telemetry::counter_add("mbta_store_errors_total", 1);
            self.report.store_error = Some(e.to_string());
        }
    }

    /// The single commit path. Stamps `c` with the next sequence number,
    /// tallies the flush reason (or the re-plan) and the decisions,
    /// journals the record — write-ahead: durable before any decision
    /// escapes — and releases the decisions to the sink.
    fn commit(&mut self, mut c: Commit, d: &Dispatcher<'_>, sink: &mut impl DecisionSink) {
        let report = &mut self.report;
        c.stats.seq = report.batches;
        c.stats.queue_depth = self.queue.len();
        report.batches += 1;
        let migration = matches!(c.head, Head::Plan(_));
        match (&c.head, c.stats.reason) {
            (Head::Plan(moved), _) => {
                report.replans += 1;
                report.migrated_workers += u64::from(moved.moved_workers);
                report.migrated_tasks += u64::from(moved.moved_tasks);
                let nodes = moved.moved_workers + moved.moved_tasks;
                mbta_telemetry::counter_add("mbta_partition_replans_total", 1);
                mbta_telemetry::gauge_set("mbta_partition_migrated_nodes", f64::from(nodes));
            }
            (_, FlushReason::Count) => report.flush_count += 1,
            (_, FlushReason::Bytes) => report.flush_bytes += 1,
            (_, FlushReason::Watermark) => report.flush_watermark += 1,
            (_, FlushReason::Drain) => report.flush_drain += 1,
            (_, FlushReason::Online) => report.flush_online += 1,
        }
        let decisions = d.decisions();
        report.decisions += decisions.len() as u64;
        mbta_telemetry::counter_add("mbta_service_decisions_total", decisions.len() as u64);
        if report.store_error.is_none() {
            if let Some(store) = &mut self.store {
                let mut res = store.commit_record(&d.record(&c, c.stats.seq));
                if res.is_ok() && store.snapshot_due() {
                    res = store.snapshot(&snapshot(d, c.stats.seq + 1));
                }
                self.note_store_result(res);
            }
        }
        // A migration that unassigned nothing has nothing to tell the
        // sink; every other commit is announced, decisions or not.
        if !(migration && decisions.is_empty()) {
            sink.on_batch(&c.stats, decisions);
        }
    }

    /// One closed micro-batch through the dispatcher, then committed.
    fn batch(&mut self, d: &mut Dispatcher<'_>, batch: ClosedBatch, sink: &mut impl DecisionSink) {
        let batch_span = mbta_telemetry::span!("mbta_service_batch");
        batch_span.attr("events", batch.events.len() as u64);
        mbta_telemetry::counter_add("mbta_service_batches_total", 1);
        mbta_telemetry::observe("mbta_service_batch_events", batch.events.len() as f64);
        mbta_telemetry::gauge_set("mbta_service_queue_depth", self.queue.len() as f64);
        let c = d.batch(&batch, &mut self.report);
        self.solve_lat.observe(c.stats.solve_ms);
        mbta_telemetry::observe("mbta_service_batch_solve_ms", c.stats.solve_ms);
        self.commit(c, d, sink);
    }
}

impl<'p> DispatchService<'p> {
    /// Builds a service over a shard plan. All nodes start *inactive* —
    /// the market is empty until join/post events arrive.
    ///
    /// # Panics
    /// If `cfg` asks for `online` and `boundary_pass` together — the one
    /// combination of its fields that names no mode.
    pub fn new(universe: &'p BipartiteGraph, plan: &'p ShardPlan, cfg: ServiceConfig) -> Self {
        DispatchService {
            dispatcher: Dispatcher::new(universe, plan, &cfg),
            driver: Driver {
                queue: BoundedQueue::new(cfg.queue_cap, cfg.drop_policy),
                batcher: cfg.online.is_none().then(|| Batcher::new(cfg.batch)),
                store: None,
                defer_pending: false,
                solve_lat: Histogram::new(),
                event_lat: Histogram::new(),
                started: Instant::now(),
                report: ServiceReport {
                    degraded_by_shard: vec![0; plan.n_shards()],
                    ..ServiceReport::default()
                },
            },
        }
    }

    /// Attaches a durability store: from the next commit on, every record
    /// is journaled to the WAL before its decisions reach the sink, and
    /// snapshots are written on the store's cadence. Both the store and
    /// the service must be fresh (nothing committed): the journal must
    /// start where the run did, or it would lie about what its decisions
    /// were applied to. Use `mbta_store::recover` to inspect an existing
    /// directory instead.
    ///
    /// # Panics
    /// If this service has already committed, or the store holds records.
    pub fn attach_store(&mut self, store: DurableStore) {
        let committed = self.driver.report.batches;
        assert!(
            committed == 0,
            "cannot attach a store to a service that has already committed {committed} records"
        );
        assert_eq!(
            store.stats().watermark,
            0,
            "cannot attach a store with existing journaled state to a fresh service"
        );
        self.driver.store = Some(store);
    }

    /// Marks a shard as poisoned: it is not solved, and keeps its current
    /// assignment (tallied as a degraded solve per touching batch). Sibling
    /// shards are unaffected.
    pub fn poison_shard(&mut self, s: usize) {
        self.dispatcher.poison_shard(s);
    }

    /// Clears a shard's poison mark.
    pub fn heal_shard(&mut self, s: usize) {
        self.dispatcher.heal_shard(s);
    }

    /// Offers one arrival to the ingress queue. On [`OfferOutcome::Deferred`]
    /// the caller must [`pump`](Self::pump) and re-offer — nothing was
    /// admitted (and the offer is not counted as an ingress event).
    pub fn offer(&mut self, a: Arrival) -> OfferOutcome {
        let run = &mut self.driver;
        let outcome = run.queue.offer(a);
        match outcome {
            OfferOutcome::Deferred => {
                run.defer_pending = true;
                mbta_telemetry::counter_add("mbta_service_deferrals_total", 1);
            }
            admitted => {
                run.report.events_in += 1;
                mbta_telemetry::counter_add("mbta_service_events_total", 1);
                if run.defer_pending {
                    run.defer_pending = false;
                    run.report.defer_retry_ok += 1;
                    mbta_telemetry::counter_add("mbta_service_defer_retry_ok_total", 1);
                }
                match admitted {
                    OfferOutcome::DroppedNewest => mbta_telemetry::counter_add(
                        "mbta_service_queue_dropped_total{policy=\"newest\"}",
                        1,
                    ),
                    OfferOutcome::DroppedOldest => mbta_telemetry::counter_add(
                        "mbta_service_queue_dropped_total{policy=\"oldest\"}",
                        1,
                    ),
                    _ => {}
                }
            }
        }
        outcome
    }

    /// Drains the ingress queue into the dispatcher: through the batcher
    /// in batch mode (dispatching every batch a watermark closes), or
    /// event by event in online mode.
    pub fn pump(&mut self, sink: &mut impl DecisionSink) {
        let DispatchService { dispatcher, driver } = self;
        while let Some(a) = driver.queue.pop() {
            match driver.batcher.as_mut() {
                Some(batcher) => {
                    if let Some(closed) = batcher.offer(a) {
                        driver.batch(dispatcher, closed, sink);
                    }
                }
                None => {
                    let t0 = Instant::now();
                    let c = dispatcher.event(a, &mut driver.report);
                    let event_ms = t0.elapsed().as_secs_f64() * 1e3;
                    driver.event_lat.observe(event_ms);
                    mbta_telemetry::observe("mbta_service_online_event_ms", event_ms);
                    if let Some(mut c) = c {
                        c.stats.solve_ms = event_ms;
                        driver.commit(c, dispatcher, sink);
                    }
                }
            }
        }
    }

    /// The whole per-event protocol in one call: [`offer`](Self::offer),
    /// on [`OfferOutcome::Deferred`] [`pump`](Self::pump) and re-offer
    /// until admitted, then pump — so watermark flushes happen promptly
    /// and `Defer` backpressure makes progress instead of spinning.
    pub fn submit(&mut self, a: Arrival, sink: &mut impl DecisionSink) {
        while let OfferOutcome::Deferred = self.offer(a) {
            self.pump(sink);
        }
        self.pump(sink);
    }

    /// Records committed so far (the sequence watermark — see
    /// [`ServiceReport::batches`]); equals the durable watermark when a
    /// store is attached. Cheap; safe to read every loop iteration for
    /// status replies.
    pub fn batches_committed(&self) -> u64 {
        self.driver.report.batches
    }

    /// Live assigned-edge count, the rescue overlay's included: what a
    /// recovery of the journal at the same watermark counts.
    pub fn current_assignments(&self) -> usize {
        self.dispatcher.assignments()
    }

    /// Live total assignment value, the rescue overlay's included.
    pub fn current_value(&self) -> f64 {
        self.dispatcher.value()
    }

    /// Flushes all remaining work — the batcher's last partial batch, or
    /// the online closing solves — seals the store, and returns the run
    /// report.
    pub fn finish(mut self, sink: &mut impl DecisionSink) -> ServiceReport {
        self.pump(sink);
        let (mut dispatcher, mut driver) = (self.dispatcher, self.driver);
        match driver.batcher.as_mut() {
            Some(batcher) => {
                if let Some(closed) = batcher.drain() {
                    driver.batch(&mut dispatcher, closed, sink);
                }
            }
            None => {
                for s in 0..dispatcher.n_shards() {
                    let t0 = Instant::now();
                    if let Some(mut c) = dispatcher.close(s, &mut driver.report) {
                        c.stats.solve_ms = t0.elapsed().as_secs_f64() * 1e3;
                        driver.commit(c, &dispatcher, sink);
                    }
                }
            }
        }

        // Clean shutdown of the durability store: fsync the WAL and write
        // a final snapshot so recovery replays nothing.
        let mut store_stats = StoreStats::default();
        if let Some(mut store) = driver.store.take() {
            if driver.report.store_error.is_none() {
                let res = store.seal(&snapshot(&dispatcher, driver.report.batches));
                driver.note_store_result(res);
            }
            store_stats = store.stats();
        }

        dispatcher.finish(&mut driver.report);
        let (queue, wall_ms) = (&driver.queue, driver.started.elapsed().as_secs_f64() * 1e3);
        let report = &mut driver.report;
        report.dropped_newest = queue.dropped_newest();
        report.dropped_oldest = queue.dropped_oldest();
        report.deferrals = queue.deferrals();
        report.queue_high_watermark = queue.high_watermark();
        report.p50_solve_ms = driver.solve_lat.quantile(0.5);
        report.p99_solve_ms = driver.solve_lat.quantile(0.99);
        report.max_solve_ms = driver.solve_lat.max();
        report.p50_online_ms = driver.event_lat.quantile(0.5);
        report.p99_online_ms = driver.event_lat.quantile(0.99);
        report.max_online_ms = driver.event_lat.max();
        report.wall_ms = wall_ms;
        if wall_ms > 0.0 {
            report.events_per_sec = report.events_processed as f64 / (wall_ms / 1e3);
        }
        report.wal_records = store_stats.wal_records;
        report.wal_bytes = store_stats.wal_bytes;
        report.snapshots = store_stats.snapshots;
        driver.report
    }

    /// How far the live cut fraction has degraded above the plan's
    /// baseline. Cheap (two float reads): a driver doing drift-driven
    /// re-planning polls it at batch boundaries and, past its threshold,
    /// detaches → rebuilds the plan → resumes.
    pub fn cut_degradation(&self) -> f64 {
        self.dispatcher.cut_degradation()
    }

    /// Tears the service down to exactly the state a successor needs to
    /// continue the run under a **new** shard plan: the driver's whole
    /// state (ingress queue, a batcher's buffered events, durability
    /// store, every report counter) and the dispatcher's plan-free part
    /// ([`Dispatcher::detach`]). Pair with [`DispatchService::resume`]:
    ///
    /// ```text
    /// let carried = svc.detach();
    /// let plan2 = ShardPlan::build(&g, carried.live_weights(), k, routing);
    /// let mut svc = DispatchService::resume(&g, &plan2, carried, &mut sink);
    /// ```
    pub fn detach(self) -> CarriedState {
        let mut driver = self.driver;
        let dispatcher = self.dispatcher.detach(&mut driver.report);
        CarriedState { dispatcher, driver }
    }

    /// Rebuilds a service over a **new** plan from carried state — the
    /// migration half of drift-driven re-planning, applied at a batch
    /// boundary ([`Dispatcher::replan`]). The migration goes through the
    /// one commit path: its plan record, carrying the full post-migration
    /// shard sets, is journaled *before* its decisions reach the sink, so
    /// `mbta_store::recover` and WAL followers replay the exact same
    /// migration at the exact same sequence slot.
    pub fn resume(
        universe: &'p BipartiteGraph,
        plan: &'p ShardPlan,
        carried: CarriedState,
        sink: &mut impl DecisionSink,
    ) -> DispatchService<'p> {
        let mut driver = carried.driver;
        let (dispatcher, c) = Dispatcher::replan(universe, plan, carried.dispatcher);
        // Per-shard tallies mean nothing under a different shard count.
        if driver.report.degraded_by_shard.len() != plan.n_shards() {
            driver.report.degraded_by_shard = vec![0; plan.n_shards()];
        }
        driver.commit(c, &dispatcher, sink);
        DispatchService { dispatcher, driver }
    }
}

/// Opaque state produced by [`DispatchService::detach`] and consumed by
/// [`DispatchService::resume`]: everything a successor service needs to
/// continue a run under a new shard plan. Owns no borrow of the old plan,
/// so the driver is free to drop and rebuild the plan in between.
pub struct CarriedState {
    dispatcher: Detached,
    driver: Driver,
}

impl CarriedState {
    /// The live universe edge weights at detach time — what the driver
    /// passes to [`ShardPlan::build`] for the replacement plan.
    pub fn live_weights(&self) -> &[f64] {
        self.dispatcher.live_weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::Mode;
    use crate::event::{BenefitDrift, ServiceEvent};
    use crate::shard::{Routing, UNMAPPED};
    use crate::sink::{Action, CollectSink, WriteSink};
    use mbta_core::engine::QualityTier;
    use mbta_core::warm::WarmSolver;
    use mbta_graph::random::{random_bipartite, RandomGraphSpec};
    use mbta_graph::subgraph::Subgraph;
    use mbta_graph::EdgeId;
    use mbta_matching::Matching;
    use mbta_partition::{epoch_market, rescue_seed};
    use mbta_store::store::StoreConfig;
    use mbta_util::SolveCtl;
    use mbta_workload::trace::TraceSpec;

    fn universe() -> (BipartiteGraph, Vec<f64>) {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 80,
                n_tasks: 60,
                avg_degree: 5.0,
                capacity: 2,
                demand: 2,
            },
            21,
        );
        let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        (g, w)
    }

    fn stream(g: &BipartiteGraph, seed: u64) -> Vec<Arrival> {
        let trace = TraceSpec {
            horizon: 50.0,
            mean_session: 10.0,
            mean_task_lifetime: 15.0,
            seed,
        }
        .generate(g.n_workers(), g.n_tasks());
        let base = trace.into_iter().map(Arrival::from_trace);
        BenefitDrift::new(g, 0.2, seed).weave(base)
    }

    fn deterministic_cfg() -> ServiceConfig {
        ServiceConfig {
            batch: BatchConfig {
                max_events: 32,
                max_bytes: 1 << 20,
                flush_interval: 4.0,
            },
            queue_cap: 4096,
            drop_policy: DropPolicy::Defer,
            budget: BudgetMode::Deterministic,
            threads: 1,
            boundary_pass: false,
            online: None,
        }
    }

    fn run_to_log(
        g: &BipartiteGraph,
        plan: &ShardPlan,
        events: &[Arrival],
        poison: Option<usize>,
    ) -> (Vec<u8>, ServiceReport) {
        let mut svc = DispatchService::new(g, plan, deterministic_cfg());
        if let Some(s) = poison {
            svc.poison_shard(s);
        }
        let mut sink = WriteSink::new(Vec::new());
        for &a in events {
            while let OfferOutcome::Deferred = svc.offer(a) {
                svc.pump(&mut sink);
            }
            svc.pump(&mut sink);
        }
        let report = svc.finish(&mut sink);
        assert!(sink.error.is_none());
        (sink.into_inner(), report)
    }

    /// Every commit bumps the watermark and exactly one tally.
    fn assert_watermark_adds_up(r: &ServiceReport) {
        assert_eq!(
            r.batches,
            r.flush_count
                + r.flush_bytes
                + r.flush_watermark
                + r.flush_drain
                + r.flush_online
                + r.replans
        );
    }

    /// Net assignment deltas in `sink` (assigns minus unassigns).
    fn net_assignments(sink: &CollectSink) -> i64 {
        sink.decisions
            .iter()
            .map(|d| match d.action {
                Action::Assign => 1i64,
                Action::Unassign => -1i64,
            })
            .sum()
    }

    /// The boundary market and its solver, once the epoch's first rescue
    /// pass has built them.
    fn rescue_market<'s>(svc: &'s DispatchService<'_>) -> Option<(&'s Subgraph, &'s WarmSolver)> {
        match &svc.dispatcher.mode {
            Mode::Batch(rescue) => rescue.as_ref()?.market.as_ref(),
            Mode::Online(_) => None,
        }
        .map(|m| (&m.sub, &m.solver))
    }

    /// The driver's epoch loop: offer → pump, and once the cut has degraded
    /// past a hair-trigger threshold (so a drifting trace fires it several
    /// times — the loop must survive repeated migrations) detach → rebuild
    /// the plan from the live weights → resume.
    fn run_epochs(
        g: &BipartiteGraph,
        w: &[f64],
        cfg: &ServiceConfig,
        events: &[Arrival],
    ) -> (CollectSink, ServiceReport) {
        let mut plan = ShardPlan::build(g, w, 4, Routing::MinCut);
        let mut sink = CollectSink::default();
        let mut idx = 0usize;
        let mut carried: Option<CarriedState> = None;
        let report = loop {
            let mut svc = match carried.take() {
                None => DispatchService::new(g, &plan, cfg.clone()),
                Some(c) => DispatchService::resume(g, &plan, c, &mut sink),
            };
            // A solver is bound to one plan's shard topology (a stale one
            // could match a new shard's edge count and solve the wrong
            // network): no epoch starts with one.
            assert!(svc.dispatcher.solvers.iter().all(Option::is_none));
            assert!(rescue_market(&svc).is_none());
            while idx < events.len() {
                let a = events[idx];
                while let OfferOutcome::Deferred = svc.offer(a) {
                    svc.pump(&mut sink);
                }
                idx += 1;
                svc.pump(&mut sink);
                if svc.cut_degradation() > 1e-6 {
                    break;
                }
            }
            // So within an epoch each shard's first exact solve starts
            // from zero prices, and every later one from the carried duals.
            let rescue = rescue_market(&svc);
            let solvers = svc.dispatcher.solvers.iter().flatten();
            let stats = solvers.chain(rescue.map(|r| r.1)).map(WarmSolver::stats);
            // (The market is built by the first rescue pass, which may
            // find nothing to solve yet.)
            for stats in stats.filter(|stats| stats.solves > 0) {
                assert_eq!(stats.solves - stats.warm_hits, 1, "{stats:?}");
            }
            // The rescue's market is this epoch's: a stale one would name
            // edges the new plan made intra.
            if let Some((market, _)) = rescue {
                let cross = |e: &EdgeId| plan.edge_shard[e.index()] == UNMAPPED;
                assert!(market.edge_back.iter().all(cross));
                assert_eq!(market.edge_back.len(), plan.cross_edges);
            }
            if idx >= events.len() {
                break svc.finish(&mut sink);
            }
            let c = svc.detach();
            plan = ShardPlan::build(g, c.live_weights(), 4, plan.routing);
            carried = Some(c);
        };
        (sink, report)
    }

    #[test]
    fn replay_is_byte_identical() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 7);
        let (log_a, rep_a) = run_to_log(&g, &plan, &events, None);
        let (log_b, rep_b) = run_to_log(&g, &plan, &events, None);
        assert!(!log_a.is_empty(), "replay produced no decisions");
        assert_eq!(log_a, log_b, "decision logs diverged across replays");
        assert_eq!(rep_a.decisions, rep_b.decisions);
        assert_eq!(rep_a.batches, rep_b.batches);
        assert_eq!(rep_a.reseeds, rep_b.reseeds);
        assert_eq!(rep_a.final_assignments, rep_b.final_assignments);
    }

    /// The pool's determinism contract at the service level: a 4-thread
    /// replay produces the same decision bytes as the sequential path.
    #[test]
    fn threaded_replay_matches_sequential() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 17);
        let run_with = |threads: usize| {
            let mut cfg = deterministic_cfg();
            cfg.threads = threads;
            let mut svc = DispatchService::new(&g, &plan, cfg);
            let mut sink = WriteSink::new(Vec::new());
            for &a in &events {
                while let OfferOutcome::Deferred = svc.offer(a) {
                    svc.pump(&mut sink);
                }
                svc.pump(&mut sink);
            }
            let report = svc.finish(&mut sink);
            (sink.into_inner(), report)
        };
        let (log_1, rep_1) = run_with(1);
        let (log_4, rep_4) = run_with(4);
        assert!(!log_1.is_empty());
        assert_eq!(log_1, log_4, "threaded replay diverged from sequential");
        assert_eq!(rep_1.final_value, rep_4.final_value);
        assert_eq!(rep_1.reseeds, rep_4.reseeds);
        assert_eq!(rep_1.capacity_violations, 0);
        assert_eq!(rep_4.capacity_violations, 0);
        assert_eq!(rep_1.pool_threads, 1);
        assert_eq!(rep_4.pool_threads, 4);
    }

    /// Global service metrics advance by at least this run's report totals
    /// (`>=`: sibling tests share the process-wide registry).
    #[test]
    fn telemetry_counts_batches_events_and_latency() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 2, Routing::HashId);
        let events = stream(&g, 3);
        let batches = mbta_telemetry::global().counter("mbta_service_batches_total");
        let ev = mbta_telemetry::global().counter("mbta_service_events_total");
        let lat = mbta_telemetry::global().histogram("mbta_service_batch_solve_ms");
        let (b0, e0, l0) = (batches.get(), ev.get(), lat.count());
        let (_, report) = run_to_log(&g, &plan, &events, None);
        assert!(report.batches > 0);
        assert!(batches.get() >= b0 + report.batches);
        assert!(ev.get() >= e0 + report.events_in);
        assert!(lat.count() >= l0 + report.batches);
    }

    #[test]
    fn capacity_invariant_holds_and_decisions_reconcile() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 13);
        let mut svc = DispatchService::new(&g, &plan, deterministic_cfg());
        let mut sink = CollectSink::default();
        for &a in &events {
            while let OfferOutcome::Deferred = svc.offer(a) {
                svc.pump(&mut sink);
            }
            svc.pump(&mut sink);
        }
        for st in &svc.dispatcher.states {
            st.check_invariants();
        }
        let report = svc.finish(&mut sink);
        assert_eq!(report.capacity_violations, 0);
        assert!(report.events_processed > 0);
        assert!(report.batches > 0);
        assert!(report.reseeds > 0, "no solve improvement was ever adopted");
        assert!(report.reseeds <= report.solves);
        assert_watermark_adds_up(&report);
        assert_eq!(report.flush_online + report.replans, 0);
        // Net assignment deltas must equal the final assignment.
        assert_eq!(net_assignments(&sink), report.final_assignments as i64);
        // Ingress accounting closes.
        assert_eq!(
            report.events_in,
            report.events_processed
                + report.invalid_events
                + report.cross_benefit_drops
                + report.dropped_newest
                + report.dropped_oldest
        );
    }

    #[test]
    fn poisoned_shard_degrades_alone() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 31);
        let (_, report) = run_to_log(&g, &plan, &events, Some(0));
        assert_eq!(
            report.capacity_violations, 0,
            "poison must not break feasibility"
        );
        assert!(
            report.degraded_by_shard[0] > 0,
            "poisoned shard never solved: {:?}",
            report.degraded_by_shard
        );
        for s in 1..4 {
            assert_eq!(
                report.degraded_by_shard[s], 0,
                "sibling shard {s} degraded: {:?}",
                report.degraded_by_shard
            );
        }
        assert_eq!(
            report.tier_degraded as usize,
            report.degraded_by_shard[0] as usize
        );
        assert!(report.tier_exact > 0, "siblings should still reach exact");
    }

    /// Poisoned before its first batch, a shard gets no solve job, so its
    /// solver slot stays empty while every healthy shard the stream touched
    /// carries one.
    #[test]
    fn poisoned_shard_builds_no_solver() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let mut svc = DispatchService::new(&g, &plan, deterministic_cfg());
        svc.poison_shard(0);
        let mut sink = CollectSink::default();
        for &a in &stream(&g, 31) {
            svc.submit(a, &mut sink);
        }
        assert!(sink.batches.len() >= 3, "{} batches", sink.batches.len());
        assert!(
            svc.driver.report.degraded_by_shard[0] > 0,
            "shard 0 untouched"
        );
        assert!(
            svc.dispatcher.solvers[0].is_none(),
            "a poisoned shard built a solver"
        );
        assert!(svc.dispatcher.solvers[1..].iter().all(Option::is_some));
        assert_eq!(svc.finish(&mut sink).capacity_violations, 0);
    }

    /// The carried solver across poison → heal: a poisoned shard's batches
    /// keep their seed without reaching its solver, and the first healed
    /// batch re-solves from the duals the last healthy solve left — a warm
    /// hit, and exact.
    #[test]
    fn poisoned_batches_leave_the_carried_solver_for_the_healed_solve() {
        use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 1, Routing::HashId);
        let events = stream(&g, 31);
        let mut svc = DispatchService::new(&g, &plan, deterministic_cfg());
        let mut sink = CollectSink::default();
        let solver_stats =
            |svc: &DispatchService<'_>| svc.dispatcher.solvers[0].as_ref().unwrap().stats();
        let (healthy, rest) = events.split_at(events.len() / 3);
        let (poisoned, healed) = rest.split_at(rest.len() / 2);

        for &a in healthy {
            svc.submit(a, &mut sink);
        }
        let primed = solver_stats(&svc);
        assert!(primed.solves >= 2, "{primed:?}");
        assert_eq!(
            primed.solves - primed.warm_hits,
            1,
            "only the first starts from zero prices"
        );

        svc.poison_shard(0);
        for &a in poisoned {
            svc.submit(a, &mut sink);
        }
        assert!(svc.driver.report.degraded_by_shard[0] > 0);
        assert_eq!(
            solver_stats(&svc),
            primed,
            "a poisoned batch reached the solver"
        );

        svc.heal_shard(0);
        let committed = sink.batches.len();
        let mut healed = healed.iter();
        while sink.batches.len() == committed {
            svc.submit(*healed.next().expect("a batch closes"), &mut sink);
        }
        let after = solver_stats(&svc);
        assert_eq!(after.solves, primed.solves + 1);
        assert_eq!(
            after.warm_hits,
            primed.warm_hits + 1,
            "healed solve lost the carried duals"
        );
        assert_eq!(sink.batches[committed].worst_tier, Some(QualityTier::Exact));
        let aw = svc.dispatcher.states[0].active_weights();
        let graph = &plan.shards[0].graph;
        let (cold, _) =
            max_weight_bmatching(graph, &aw, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        let (have, opt) = (
            svc.dispatcher.states[0].total_weight(),
            cold.total_weight(&aw),
        );
        assert!(
            mbta_util::fixed::objectives_close(have, opt, graph.n_edges()),
            "healed shard holds {have}, optimum {opt}"
        );
        assert_eq!(svc.finish(&mut sink).capacity_violations, 0);
    }

    #[test]
    fn drop_newest_overload_is_counted_not_fatal() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 2, Routing::Range);
        let events = stream(&g, 5);
        let mut cfg = deterministic_cfg();
        cfg.queue_cap = 8;
        cfg.drop_policy = DropPolicy::DropNewest;
        let mut svc = DispatchService::new(&g, &plan, cfg);
        let mut sink = CollectSink::default();
        // Burst everything in without pumping: the queue must overflow.
        for &a in &events {
            svc.offer(a);
        }
        let report = svc.finish(&mut sink);
        assert!(
            report.dropped_newest > 0,
            "burst did not overflow the queue"
        );
        assert_eq!(report.queue_high_watermark, 8);
        assert_eq!(report.capacity_violations, 0);
        assert_eq!(
            report.events_in,
            report.events_processed
                + report.invalid_events
                + report.cross_benefit_drops
                + report.dropped_newest
        );
    }

    #[test]
    fn defer_backpressure_loses_nothing() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 2, Routing::HashId);
        let events = stream(&g, 5);
        let mut cfg = deterministic_cfg();
        cfg.queue_cap = 4;
        let mut svc = DispatchService::new(&g, &plan, cfg);
        let mut sink = CollectSink::default();
        // Only pump when told to: deferrals must occur, no event lost.
        for &a in &events {
            while let OfferOutcome::Deferred = svc.offer(a) {
                svc.pump(&mut sink);
            }
        }
        let report = svc.finish(&mut sink);
        assert!(report.deferrals > 0, "cap-4 queue never deferred");
        // Every deferral was pumped and re-offered, so each deferred burst
        // ends in exactly one admitted retry.
        assert!(report.defer_retry_ok > 0, "retry successes went uncounted");
        assert!(report.defer_retry_ok <= report.deferrals);
        assert_eq!(report.dropped_newest + report.dropped_oldest, 0);
        assert_eq!(report.events_in, events.len() as u64);
        assert_eq!(
            report.events_processed + report.invalid_events + report.cross_benefit_drops,
            report.events_in
        );
    }

    #[test]
    fn malformed_events_are_rejected_at_admission() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 2, Routing::HashId);
        let bad = [
            Arrival {
                time: 0.1,
                event: ServiceEvent::WorkerJoin(9_999),
            },
            Arrival {
                time: 0.2,
                event: ServiceEvent::TaskPost(9_999),
            },
            Arrival {
                time: 0.3,
                event: ServiceEvent::BenefitUpdate {
                    edge: 0,
                    weight: f64::NAN,
                },
            },
            Arrival {
                time: 0.4,
                event: ServiceEvent::BenefitUpdate {
                    edge: 0,
                    weight: -1.0,
                },
            },
            Arrival {
                time: 0.5,
                event: ServiceEvent::BenefitUpdate {
                    edge: 1 << 30,
                    weight: 0.5,
                },
            },
            Arrival {
                time: 0.6,
                event: ServiceEvent::BenefitUpdate {
                    edge: 0,
                    weight: f64::INFINITY,
                },
            },
        ];
        // Admission is the one weight check: no solver re-validates.
        for cfg in [deterministic_cfg(), online_cfg(0.1)] {
            let mut svc = DispatchService::new(&g, &plan, cfg);
            let mut sink = CollectSink::default();
            for a in bad {
                svc.offer(a);
            }
            let report = svc.finish(&mut sink);
            assert_eq!(report.invalid_events, 6);
            assert_eq!(report.events_processed, 0);
            assert_eq!(report.capacity_violations, 0);
        }
    }

    /// Satellite regression: the report's retained fraction must follow
    /// the *live* weights, not the plan-time ones. Cratering every intra
    /// edge's weight via benefit updates has to drag it down.
    #[test]
    fn report_retained_weight_tracks_live_drift() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let plan_retained = plan.retained_weight;
        let mut events = Vec::new();
        let mut time = 0.0;
        for e in g.edges() {
            if plan.edge_shard[e.index()] != UNMAPPED {
                time += 0.01;
                events.push(Arrival {
                    time,
                    event: ServiceEvent::BenefitUpdate {
                        edge: e.raw(),
                        weight: 1e-3,
                    },
                });
            }
        }
        let (_, report) = run_to_log(&g, &plan, &events, None);
        assert!(
            report.retained_weight < plan_retained - 0.1,
            "report retained {} did not move off the plan-time figure {}",
            report.retained_weight,
            plan_retained
        );
    }

    /// The boundary pass recovers cross-shard weight without breaking
    /// feasibility, accounting, or determinism across thread counts.
    #[test]
    fn boundary_pass_rescues_cross_weight_deterministically() {
        let (g, w) = universe();
        // Hash routing at 8 shards cuts heavily: plenty to rescue.
        let plan = ShardPlan::build(&g, &w, 8, Routing::HashId);
        let events = stream(&g, 19);
        let run_with = |threads: usize, boundary: bool| {
            let mut cfg = deterministic_cfg();
            cfg.threads = threads;
            cfg.boundary_pass = boundary;
            let mut svc = DispatchService::new(&g, &plan, cfg);
            let mut sink = WriteSink::new(Vec::new());
            for &a in &events {
                while let OfferOutcome::Deferred = svc.offer(a) {
                    svc.pump(&mut sink);
                }
                svc.pump(&mut sink);
            }
            let report = svc.finish(&mut sink);
            assert!(sink.error.is_none());
            (sink.into_inner(), report)
        };
        let (_, rep_off) = run_with(1, false);
        let (log_on, rep_on) = run_with(1, true);
        let (log_on4, rep_on4) = run_with(4, true);

        assert_eq!(rep_on.capacity_violations, 0, "rescue broke feasibility");
        assert!(rep_on.rescue_solves > 0, "rescue market never solved");
        assert!(rep_on.rescue_assigns > 0, "rescue never assigned anything");
        assert!(
            rep_on.final_value > rep_off.final_value,
            "rescue recovered nothing: {} vs {}",
            rep_on.final_value,
            rep_off.final_value
        );
        assert!(
            rep_on.effective_retained > rep_on.retained_weight,
            "effective retained must credit rescued cross edges"
        );
        // Cross benefit updates are processed, not dropped, and the
        // ingress accounting still closes.
        assert_eq!(rep_on.cross_benefit_drops, 0);
        assert_eq!(
            rep_on.events_in,
            rep_on.events_processed + rep_on.invalid_events
        );
        // Determinism survives the extra solve stage at any width.
        assert_eq!(log_on, log_on4, "boundary pass diverged across threads");
        assert_eq!(rep_on.final_value, rep_on4.final_value);
        assert_eq!(rep_on.rescued_weight, rep_on4.rescued_weight);
    }

    /// Unbudgeted, every rescue solve but the epoch's first repairs the
    /// carried duals around its seed: a seed that overran a residual would
    /// be repaired from the empty flow, a miss, without changing a decision.
    #[test]
    fn rescue_resolves_warm_on_the_epoch_market() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 8, Routing::MinCut);
        let mut cfg = deterministic_cfg();
        cfg.boundary_pass = true;
        let mut svc = DispatchService::new(&g, &plan, cfg);
        let mut sink = CollectSink::default();
        for &a in &stream(&g, 19) {
            svc.submit(a, &mut sink);
        }
        let stats = rescue_market(&svc).expect("rescue ran").1.stats();
        assert!(stats.solves >= 5, "{stats:?}");
        assert_eq!(stats.solves, svc.driver.report.rescue_solves);
        assert_eq!(stats.warm_hits, stats.solves - 1, "{stats:?}");
        assert_eq!(svc.finish(&mut sink).capacity_violations, 0);
    }

    /// Under a wall-clock budget the rescue's seed is its floor: whatever
    /// the quarter-slice cuts, the overlay stays feasible and non-empty.
    #[test]
    fn wallclock_rescue_stays_feasible_on_its_seed() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 8, Routing::MinCut);
        let mut cfg = deterministic_cfg();
        cfg.budget = BudgetMode::Wallclock(1);
        cfg.boundary_pass = true;
        let mut svc = DispatchService::new(&g, &plan, cfg);
        let mut sink = CollectSink::default();
        for &a in &stream(&g, 19) {
            svc.submit(a, &mut sink);
        }
        let report = svc.finish(&mut sink);
        assert_eq!(report.capacity_violations, 0);
        assert!(report.rescue_solves > 0 && report.rescued_weight > 0.0);
    }

    /// A boundary-market solve that starts out of budget hands back exactly
    /// its seed, on the market's first solve and on a later one, and keeps
    /// its prices: the next solve that fits resumes from them and is exact.
    #[test]
    fn stopped_boundary_solve_returns_its_seed() {
        use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo::Dijkstra};
        use mbta_util::CancelToken;
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 8, Routing::HashId);
        let market = epoch_market(&g, |e| plan.edge_shard[e.index()] == UNMAPPED);
        let mg = &market.graph;
        let mut weights = market.project_weights(&w);
        let mut solver = WarmSolver::new(mg);
        // One per solve: `should_stop` spends a ctl's real poll once, then
        // counts down a full interval before it looks again.
        let stopped = || {
            let token = CancelToken::new();
            token.cancel();
            SolveCtl::unlimited().with_token(token)
        };
        // At the market's own capacities every edge is open.
        let open: Vec<EdgeId> = mg.edges().collect();
        let seed_from = |weights: &[f64], prev: &[EdgeId]| {
            let (mut wl, mut tl) = (mg.capacities().to_vec(), mg.demands().to_vec());
            let edges = rescue_seed(mg, weights, &open, prev, &mut wl, &mut tl);
            Matching {
                edges: edges.expect("open edges"),
            }
        };

        let seed = seed_from(&weights, &[]);
        assert!(!seed.is_empty());
        let first = solver.solve_seeded(mg, &weights, &seed, &stopped());
        assert_eq!(first, (seed.clone(), false));
        let unlimited = SolveCtl::unlimited();
        let (primed, _) = solver.solve_seeded(mg, &weights, &seed, &unlimited);
        assert!(primed.total_weight(&weights) > seed.total_weight(&weights));

        for (i, wt) in weights.iter_mut().enumerate() {
            *wt *= if i % 3 == 0 { 0.5 } else { 1.0 };
        }
        let seed = seed_from(&weights, &primed.edges);
        let later = solver.solve_seeded(mg, &weights, &seed, &stopped());
        assert_eq!(later, (seed.clone(), false));
        let (healed, completed) = solver.solve_seeded(mg, &weights, &seed, &unlimited);
        let (opt, _) = max_weight_bmatching(mg, &weights, FlowMode::FreeCardinality, Dijkstra);
        assert!(completed);
        assert!((healed.total_weight(&weights) - opt.total_weight(&weights)).abs() < 1e-6);
    }

    /// Drift-driven re-planning: the epoch loop (detach → rebuild →
    /// resume) fires on a drifting trace, migrates nodes, and keeps every
    /// safety invariant — with the boundary pass (cut assignments move to
    /// the overlay) and without (the migration unassigns them).
    #[test]
    fn replan_epoch_loop_migrates_and_stays_feasible() {
        let (g, w) = universe();
        // Stronger drift than the shared helper: the cut must visibly
        // degrade mid-stream for the threshold to fire.
        let events: Vec<Arrival> = {
            let trace = TraceSpec {
                horizon: 50.0,
                mean_session: 10.0,
                mean_task_lifetime: 15.0,
                seed: 13,
            }
            .generate(g.n_workers(), g.n_tasks());
            BenefitDrift::new(&g, 0.3, 13).weave(trace.into_iter().map(Arrival::from_trace))
        };
        for boundary_pass in [true, false] {
            let mut cfg = deterministic_cfg();
            cfg.boundary_pass = boundary_pass;
            let decisions = mbta_telemetry::global().counter("mbta_service_decisions_total");
            let d0 = decisions.get();
            let (sink, report) = run_epochs(&g, &w, &cfg, &events);
            assert!(report.replans > 0, "threshold 1e-6 never fired");
            assert_eq!(report.capacity_violations, 0);
            assert_eq!(report.rescue_solves > 0, boundary_pass);
            // Every shard solve, before and after each migration, reached
            // the exact tier — through the carried solvers, which batch
            // mode does not report as online warm solves.
            assert!(report.solves > 0);
            assert_eq!(report.tier_exact, report.solves);
            assert_eq!(report.online_warm_solves, 0);
            assert_eq!(report.events_in, events.len() as u64);
            assert_eq!(
                report.events_in,
                report.events_processed + report.invalid_events + report.cross_benefit_drops
            );
            assert_watermark_adds_up(&report);
            // Net assignment deltas reconcile across the plan changes.
            assert_eq!(net_assignments(&sink), report.final_assignments as i64);
            assert_eq!(report.decisions, sink.decisions.len() as u64);
            // Migration commits announce no events and touch no shard.
            let migrations = sink
                .batches
                .iter()
                .filter(|b| b.events == 0 && b.shards_touched == 0);
            assert_eq!(
                migrations.count() > 0,
                !boundary_pass,
                "a migration unassigns cut edges exactly when no overlay can take them"
            );
            // Registry and report agree (`>=`: sibling tests share the
            // process-wide registry) — migration unassigns included.
            assert!(decisions.get() >= d0 + report.decisions);
        }
    }

    /// A re-plan can land while a shard of the new plan carries no
    /// assignment. Re-activating that shard's nodes greedily fills it;
    /// `resume` must replace those fills with the (empty) carried set, or
    /// edges end up assigned that no sink or WAL record ever heard of.
    /// The universe and hair trigger below re-plan from the third batch
    /// on, while most shards are still empty.
    #[test]
    fn replan_onto_empty_shards_announces_every_assignment() {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 70,
                n_tasks: 50,
                avg_degree: 5.0,
                capacity: 2,
                demand: 2,
            },
            91,
        );
        let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        let trace = TraceSpec {
            horizon: 45.0,
            mean_session: 9.0,
            mean_task_lifetime: 14.0,
            seed: 23,
        }
        .generate(g.n_workers(), g.n_tasks());
        let events =
            BenefitDrift::new(&g, 0.3, 23).weave(trace.into_iter().map(Arrival::from_trace));
        for online in [None, Some(OnlineConfig::default())] {
            let mut cfg = deterministic_cfg();
            cfg.batch.max_events = 24;
            cfg.online = online;
            let (sink, report) = run_epochs(&g, &w, &cfg, &events);
            assert!(report.replans > 0);
            let mut live = std::collections::BTreeSet::new();
            for d in &sink.decisions {
                match d.action {
                    Action::Assign => {
                        assert!(live.insert(d.edge), "edge {} assigned twice", d.edge)
                    }
                    Action::Unassign => {
                        assert!(live.remove(&d.edge), "edge {} was never announced", d.edge)
                    }
                }
            }
            assert_eq!(live.len(), report.final_assignments);
        }
    }

    #[test]
    fn wallclock_budget_mode_completes_with_bounded_batches() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 17);
        let mut cfg = deterministic_cfg();
        cfg.budget = BudgetMode::Wallclock(20);
        let mut svc = DispatchService::new(&g, &plan, cfg);
        let mut sink = CollectSink::default();
        for &a in &events {
            while let OfferOutcome::Deferred = svc.offer(a) {
                svc.pump(&mut sink);
            }
            svc.pump(&mut sink);
        }
        let report = svc.finish(&mut sink);
        assert_eq!(report.capacity_violations, 0);
        assert!(report.solves > 0);
        // Every batch respected the count watermark.
        assert!(sink.batches.iter().all(|b| b.events <= 32));
    }

    /// Under a wall-clock budget that covers them, batch solves repair the
    /// carried duals exactly like unbudgeted ones: every solve but the
    /// shard's first is a warm hit, and all of them are exact.
    #[test]
    fn wallclock_batches_repair_on_carried_prices() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 1, Routing::HashId);
        let mut cfg = deterministic_cfg();
        cfg.budget = BudgetMode::Wallclock(3_600_000);
        let mut svc = DispatchService::new(&g, &plan, cfg);
        let mut sink = CollectSink::default();
        for &a in &stream(&g, 31) {
            svc.submit(a, &mut sink);
        }
        let stats = svc.dispatcher.solvers[0].as_ref().unwrap().stats();
        assert!(stats.solves >= 2, "{stats:?}");
        assert_eq!(stats.warm_hits, stats.solves - 1, "{stats:?}");
        let report = svc.finish(&mut sink);
        assert_eq!(report.tier_exact, report.solves, "ample budget: all exact");
        assert_eq!(report.capacity_violations, 0);
    }

    fn online_cfg(drift_threshold: f64) -> ServiceConfig {
        let mut cfg = deterministic_cfg();
        cfg.online = Some(OnlineConfig { drift_threshold });
        cfg
    }

    fn run_online(
        g: &BipartiteGraph,
        plan: &ShardPlan,
        events: &[Arrival],
        threshold: f64,
        poison: Option<usize>,
    ) -> (Vec<u8>, ServiceReport) {
        let mut svc = DispatchService::new(g, plan, online_cfg(threshold));
        if let Some(s) = poison {
            svc.poison_shard(s);
        }
        let mut sink = WriteSink::new(Vec::new());
        for &a in events {
            while let OfferOutcome::Deferred = svc.offer(a) {
                svc.pump(&mut sink);
            }
            svc.pump(&mut sink);
        }
        for st in &svc.dispatcher.states {
            st.check_invariants();
        }
        let report = svc.finish(&mut sink);
        assert!(sink.error.is_none());
        (sink.into_inner(), report)
    }

    #[test]
    fn online_replay_is_byte_identical() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 7);
        let (log_a, rep_a) = run_online(&g, &plan, &events, 0.1, None);
        let (log_b, rep_b) = run_online(&g, &plan, &events, 0.1, None);
        assert!(!log_a.is_empty(), "online replay produced no decisions");
        assert_eq!(log_a, log_b, "online decision logs diverged");
        assert_eq!(rep_a.decisions, rep_b.decisions);
        assert_eq!(rep_a.online_events, rep_b.online_events);
        assert_eq!(rep_a.online_fallbacks, rep_b.online_fallbacks);
        assert_eq!(rep_a.online_exchanges, rep_b.online_exchanges);
        assert_eq!(rep_a.final_assignments, rep_b.final_assignments);
        assert_watermark_adds_up(&rep_a);
        assert_eq!(
            rep_a.batches, rep_a.flush_online,
            "every online commit is a per-event flush"
        );
        assert_eq!(rep_a.capacity_violations, 0);
    }

    #[test]
    fn online_decisions_reconcile_and_fallbacks_fire() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 13);
        let mut svc = DispatchService::new(&g, &plan, online_cfg(0.05));
        let mut sink = CollectSink::default();
        for &a in &events {
            while let OfferOutcome::Deferred = svc.offer(a) {
                svc.pump(&mut sink);
            }
            svc.pump(&mut sink);
        }
        for st in &svc.dispatcher.states {
            st.check_invariants();
        }
        let report = svc.finish(&mut sink);
        assert_eq!(report.capacity_violations, 0);
        assert!(report.online_events > 0);
        assert!(
            report.online_fallbacks > 0,
            "hair-trigger threshold never fell back"
        );
        assert_eq!(
            report.online_warm_solves, report.online_fallbacks,
            "healthy shards must solve on every fallback"
        );
        // Net assignment deltas equal the final assignment.
        assert_eq!(net_assignments(&sink), report.final_assignments as i64);
        // Ingress accounting closes in online mode too.
        assert_eq!(
            report.events_in,
            report.events_processed + report.invalid_events + report.cross_benefit_drops
        );
    }

    /// The online path's quality floor: with the warm fallback armed at
    /// the default threshold, the per-event path retains nearly all of
    /// the batch path's final matched weight on the same stream.
    #[test]
    fn online_weight_tracks_batch() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 2, Routing::HashId);
        let events = stream(&g, 29);
        let (_, batch) = run_to_log(&g, &plan, &events, None);
        let (_, online) = run_online(&g, &plan, &events, 0.2, None);
        assert_eq!(online.capacity_violations, 0);
        // The closing drain ends every healthy shard on an exact warm
        // solve over the same final weights batch mode converges to, so
        // the two paths should land essentially on top of each other.
        assert!(
            online.final_value >= 0.99 * batch.final_value,
            "online final value {} fell too far below batch {}",
            online.final_value,
            batch.final_value
        );
    }

    /// A poisoned shard never warm-solves: its drift accumulator resets
    /// on the greedy floor, siblings keep their exact fallbacks.
    #[test]
    fn online_poisoned_shard_stays_on_greedy_floor() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let events = stream(&g, 31);
        let (_, report) = run_online(&g, &plan, &events, 0.05, Some(0));
        assert_eq!(report.capacity_violations, 0);
        assert!(report.online_events > 0);
        assert!(
            report.online_warm_solves <= report.online_fallbacks,
            "a poisoned shard must not be solved"
        );
    }

    /// Online mode survives drift-driven re-plan migrations: warm solvers
    /// are rebuilt for the new topology and counters carry over.
    #[test]
    fn online_replan_loop_migrates_and_stays_feasible() {
        let (g, w) = universe();
        let events = stream(&g, 37);
        let cfg = online_cfg(0.1);
        let (sink, report) = run_epochs(&g, &w, &cfg, &events);
        assert!(report.replans > 0, "threshold 1e-6 never fired");
        assert_eq!(report.capacity_violations, 0);
        assert!(report.online_events > 0);
        // Each epoch's solver counters were folded in as its plan ended.
        assert_eq!(report.online_warm_solves, report.online_fallbacks);
        assert_watermark_adds_up(&report);
        assert_eq!(net_assignments(&sink), report.final_assignments as i64);
    }

    #[test]
    #[should_panic(expected = "online mode is incompatible with the boundary pass")]
    fn new_rejects_online_with_boundary_pass() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let mut cfg = online_cfg(0.1);
        cfg.boundary_pass = true;
        DispatchService::new(&g, &plan, cfg);
    }

    /// `detach` → `resume` moves the run state wholesale: every counter
    /// survives, the migration itself is tallied, and the per-shard marks
    /// (`poisoned`, `degraded_by_shard`) survive exactly when the new plan
    /// has the same shard count.
    #[test]
    fn resume_keeps_counters_and_resets_per_shard_marks_on_a_new_shard_count() {
        let (g, w) = universe();
        let events = stream(&g, 31);
        for (online, new_shards) in [(false, 3), (false, 4), (true, 3)] {
            let plan = ShardPlan::build(&g, &w, 4, Routing::MinCut);
            let cfg = if online {
                online_cfg(0.05)
            } else {
                deterministic_cfg()
            };
            let mut svc = DispatchService::new(&g, &plan, cfg);
            svc.poison_shard(0);
            let mut sink = CollectSink::default();
            for &a in &events[..events.len() / 2] {
                svc.offer(a);
                svc.pump(&mut sink);
            }
            let mut expected = svc.driver.report.clone();
            assert!(expected.events_processed > 0 && expected.decisions > 0);
            assert!(online || expected.degraded_by_shard[0] > 0);

            let carried = svc.detach();
            let plan2 = ShardPlan::build(&g, carried.live_weights(), new_shards, Routing::MinCut);
            let decided = sink.decisions.len() as u64;
            let svc = DispatchService::resume(&g, &plan2, carried, &mut sink);
            let got = &svc.driver.report;

            expected.batches += 1;
            expected.replans += 1;
            expected.decisions += sink.decisions.len() as u64 - decided;
            // The migration's own tallies and the warm-solver totals the
            // detach folded in are whatever they are; all else is pinned.
            expected.migrated_workers = got.migrated_workers;
            expected.migrated_tasks = got.migrated_tasks;
            expected.online_warm_solves = got.online_warm_solves;
            expected.online_warm_hits = got.online_warm_hits;
            assert!(got.migrated_workers + got.migrated_tasks > 0);
            if new_shards != 4 {
                expected.degraded_by_shard = vec![0; new_shards];
            }
            assert_eq!(got, &expected);
            assert_eq!(svc.dispatcher.poisoned.len(), new_shards);
            assert_eq!(svc.dispatcher.poisoned[0], new_shards == 4);
            assert_eq!(svc.finish(&mut sink).capacity_violations, 0);
        }
    }

    /// A store attached after the first commit would journal from the
    /// middle of the run: refused at the call, not later inside the store.
    #[test]
    #[should_panic(expected = "already committed")]
    fn attach_store_after_a_commit_is_refused() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 2, Routing::HashId);
        let mut svc = DispatchService::new(&g, &plan, online_cfg(0.1));
        let mut sink = CollectSink::default();
        for &a in &stream(&g, 7) {
            svc.submit(a, &mut sink);
        }
        assert!(svc.batches_committed() > 0);
        let dir = std::env::temp_dir().join(format!("mbta-attach-late-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        svc.attach_store(store);
    }
}
