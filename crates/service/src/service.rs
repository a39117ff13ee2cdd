//! The dispatch service: one core, one commit path, two modes.
//!
//! [`DispatchService`] is the long-running loop this crate exists for:
//!
//! * **Core** — per-shard [`IncrementalAssignment`]s and carried exact
//!   solvers (the one exact tier both modes re-solve through) over the
//!   current [`ShardPlan`], plus the plan-independent `RunState` (budget,
//!   pool, ingress queue, store, live weights, and the run counters,
//!   accumulated directly into a [`ServiceReport`]). The single place an
//!   event is routed and applied; `RunState` is what a re-plan
//!   ([`DispatchService::detach`] → [`DispatchService::resume`]) moves
//!   wholesale onto the next plan.
//! * **Commit** — the single place a decision leaves the service: it
//!   owns the sequence number, the tallies, the write-ahead journaling
//!   (record durable *before* any decision is released, snapshots on the
//!   store's cadence, journaling stops at the first I/O error) and the
//!   sink emission. Batches, online events, the online closing drain and
//!   re-plan migrations all end in it.
//! * **Mode** — *when* the core solves. `Batch` owns the [`Batcher`] and,
//!   with the boundary pass on, the rescue overlay; `Online` owns the
//!   per-event runtime. Each exists only in its mode, so
//!   `online × boundary_pass` is unrepresentable past
//!   [`DispatchService::new`].
//!
//! ```text
//!  producers --offer--> BoundedQueue --pump--> Mode
//!    Batch:  Batcher --flush--> route + apply churn (greedy repair), then
//!            per touched healthy shard, via the solve pool, one re-solve
//!            on the shard's carried solver seeded with the repaired
//!            assignment, racing one shared deadline; adopt improvements;
//!            [boundary rescue: the plan's cross-edge market re-solved on
//!            its own carried solver, the batch's residuals as capacities]
//!    Online: route + apply one event, depth-1 exchange, drift accounting,
//!            past the threshold re-solve on the same carried solver
//!                 --> commit: seq + tallies --> WAL --> DecisionSink
//! ```
//!
//! **One exact tier.** A shard's market changes by a batch of events
//! between exact solves, so neither mode builds and cold-solves a flow
//! network per solve: the core keeps one `WarmSolver` per shard (built at
//! the shard's first exact solve, dropped with the plan) and every exact
//! solve — a batch's on whichever pool thread runs the shard's job, an
//! online fallback inline — repairs the duals it carries around
//! the shard's current assignment. The boundary rescue is the same
//! design one level up: the plan's cross edges are one market, built at
//! the epoch's first rescue pass and dropped with the plan, whose solver
//! sees each batch's residuals as capacities (DESIGN.md §13.2). A solver's
//! first solve is the same repair, from zero prices, and a solve a
//! deadline cuts keeps its prices for the next (budget policy, below).
//!
//! **Capacity safety.** Shards are node-disjoint ([`ShardPlan`]), so each
//! worker's capacity is managed by exactly one `IncrementalAssignment`,
//! whose every mutation preserves feasibility. The union of shard
//! assignments is therefore feasible on the universe graph by
//! construction; [`DispatchService::finish`] re-validates the union anyway
//! and reports the violation count (the CI smoke test asserts it is zero).
//!
//! **Degradation isolation.** A poisoned shard ([`DispatchService::poison_shard`])
//! gets no solve job: it keeps its seed (the churn-repaired assignment),
//! tallied as a [`QualityTier::Degraded`] solve, and its carried solver is
//! neither entered nor, before the shard's first healthy solve, built — it
//! can never stall the batch loop or its sibling shards, every degraded
//! solve is counted per shard, and the first healed solve re-solves warm
//! from the duals the last healthy one left.
//!
//! **Determinism.** Under [`BudgetMode::Deterministic`] every solve runs
//! unbudgeted, so each shard's result is a pure function of the input
//! events (its carried solver sees that shard's solves only, in batch
//! order, on whichever thread); the solve pool merges results in
//! shard-index order, so the decision stream is too — replaying a trace
//! twice produces byte-identical decision logs **at any thread count**.
//! [`BudgetMode::Wallclock`] trades that for bounded batch latency: the
//! budget is one absolute deadline every touched shard races, *never
//! split* — unused budget flows to whoever can still use it, at the cost
//! of ordering sensitivity in sequential runs (DESIGN.md §10.2). Budgeted
//! batch solves repair the carried duals like unbudgeted ones: the seed is
//! the floor, so no greedy or local-search floor is built beside it and
//! the whole budget goes to the repair. A cut solve
//! hands back its seed (the shard keeps its repaired assignment) but keeps
//! the prices it reached, and the next batch's repair starts from them: a
//! cut means "finish next batch", and no single timing event sets the pace
//! of the batches after it. When the budget covers every repair, a
//! budgeted run makes the same decisions as a `Deterministic` one.

use crate::batch::{BatchConfig, Batcher, ClosedBatch, FlushReason};
use crate::event::{Arrival, ServiceEvent};
use crate::online::{self, OnlineConfig, OnlineRuntime, OnlineScratch};
use crate::pool::{self, ShardJob};
use crate::queue::{BoundedQueue, DropPolicy, OfferOutcome};
use crate::report::ServiceReport;
use crate::shard::{capacity_violations, Route, ShardPlan, UNMAPPED};
use crate::sink::{canonical_order, Action, BatchStats, Decision, DecisionSink};
use mbta_core::engine::QualityTier;
use mbta_core::incremental::IncrementalAssignment;
use mbta_core::warm::WarmSolver;
use mbta_graph::subgraph::Subgraph;
use mbta_graph::{BipartiteGraph, EdgeId, TaskId, WorkerId};
use mbta_matching::Matching;
use mbta_partition::{
    epoch_market, migration_diff, rescue_seed, validate_rescue, CutTracker, MigrationStats,
};
use mbta_store::record::{
    BatchRecord, DecisionRecord, OnlineRecord, PlanRecord, WalRecord, WeightDelta,
};
use mbta_store::snapshot::SnapshotState;
use mbta_store::store::{DurableStore, StoreStats};
use mbta_util::{Deadline, SolveCtl};
use std::io;
use std::time::Instant;

/// How solve budgets are assigned per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetMode {
    /// Each batch gets this many wall-clock milliseconds of solve budget,
    /// shared by its touched shards as one absolute deadline: unused
    /// budget carries forward on each thread, and concurrent shards race the
    /// same instant (see the module docs' budget policy). Bounded latency,
    /// non-deterministic quality tiers.
    Wallclock(u64),
    /// No deadlines: every solve runs to the exact tier.
    /// Deterministic decisions; latency bounded only by instance size.
    Deterministic,
}

impl BudgetMode {
    /// The one budget → deadline mapping: a solve starting now may run
    /// for `share(ms)` of a wall-clock budget, unbounded under
    /// `Deterministic`.
    fn deadline(self, share: impl FnOnce(u64) -> u64) -> Option<Deadline> {
        match self {
            BudgetMode::Wallclock(ms) => Some(Deadline::after_ms(share(ms))),
            BudgetMode::Deterministic => None,
        }
    }
}

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
    /// overlays the intra-shard assignments (see the module docs). Also
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
    core: Core<'p>,
    mode: Mode,
}

/// Shard states over the current plan and the run they serve: everything
/// but the [`Mode`], so a mode's own state and the core can be borrowed
/// side by side.
struct Core<'p> {
    universe: &'p BipartiteGraph,
    plan: &'p ShardPlan,
    states: Vec<IncrementalAssignment<'p>>,
    /// Each shard's carried exact solver — the one exact tier of both
    /// modes. Bound to the plan's topology, so a re-plan drops them all;
    /// built at a shard's first exact solve ([`shard_job`]), so set-up
    /// pays nothing for shards that never solve.
    solvers: Vec<Option<WarmSolver>>,
    /// Live intra/cross weight split for drift-driven re-planning.
    cut: CutTracker,
    run: RunState,
}

/// The plan-independent half of a running service — what a re-plan
/// carries over unchanged. `detach` moves it into [`CarriedState`] and
/// `resume` moves it back.
struct RunState {
    budget: BudgetMode,
    /// Solver threads for a batch's shard jobs, resolved ([`pool::width`]).
    threads: usize,
    queue: BoundedQueue,
    /// Optional durability: when attached, every commit is journaled to
    /// the WAL *before* its decisions reach the sink, and full-state
    /// snapshots are written on the store's cadence.
    store: Option<DurableStore>,
    /// Universe-indexed live weights (benefit updates land here too, so
    /// decisions can report the weight in parent terms).
    live_weights: Vec<f64>,
    /// Which cross edges were ever offered to the rescue market.
    cross_seen: Vec<bool>,
    /// Per-shard poison marks (cleared when a re-plan changes the shard
    /// count, like `report.degraded_by_shard`).
    poisoned: Vec<bool>,
    /// Set by a `Deferred` offer, cleared by the next admitted one: the
    /// admitted offer is then a defer-retry success.
    defer_pending: bool,
    /// Per-instance batch solve-latency histogram; the report's p50/p99
    /// derive from its buckets instead of a private sample buffer.
    solve_lat: mbta_telemetry::Histogram,
    /// Largest stream timestamp seen on the online path — stamps the
    /// closing drain records, which have no triggering arrival.
    last_time: f64,
    started: Instant,
    /// The run counters accumulate here directly: `batches` is the commit
    /// sequence number, `store_error` the first store I/O error (after
    /// which journaling stops; the durable prefix stays valid), and
    /// `capacity_violations` collects the per-batch rescue validations.
    /// [`DispatchService::finish`] fills in the end-of-run measurements.
    report: ServiceReport,
}

/// When the core solves, and the state only that cadence needs. A service
/// holds exactly one, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Mode {
    /// Micro-batches: solve each touched shard when a watermark closes a
    /// batch; `rescue` is `Some` with the boundary pass on.
    Batch {
        batcher: Batcher,
        rescue: Option<Rescue>,
    },
    /// Decide on every event (see [`crate::online`]).
    Online(OnlineRuntime),
}

/// Boundary-rescue state.
#[derive(Default)]
struct Rescue {
    /// The sorted universe edge ids currently assigned by the rescue market
    /// (pseudo-shard `n_shards` in decisions and snapshots).
    overlay: Vec<EdgeId>,
    /// The plan epoch's boundary market, bound to the plan like the shard
    /// solvers and dropped with them. Built at the epoch's first rescue
    /// pass.
    market: Option<Market>,
}

/// The boundary market of one plan epoch — every cross edge — with the
/// solver carried on it and what its solves read. The epoch's first
/// rescue pass builds it whole; every later pass moves only what its batch
/// changed ([`Core::follow_batch`]).
struct Market {
    sub: Subgraph,
    solver: WarmSolver,
    /// Universe worker, task and edge ids to market ids ([`UNMAPPED`]
    /// outside the market): `sub`'s back maps inverted.
    worker_local: Vec<u32>,
    task_local: Vec<u32>,
    edge_local: Vec<u32>,
    /// Per market worker / task, the capacity the next solve sees: what
    /// its home shard leaves of it while it is live, 0 otherwise.
    w_cap: Vec<u32>,
    t_cap: Vec<u32>,
    /// Per market edge, its live weight.
    weights: Vec<f64>,
}

impl Mode {
    fn overlay(&self) -> Option<&[EdgeId]> {
        match self {
            Mode::Batch {
                rescue: Some(r), ..
            } => Some(&r.overlay),
            _ => None,
        }
    }
}

/// What one commit journals besides its sequence number, event count and
/// decisions, which [`Core::commit`] fills in.
enum Record {
    Batch {
        first_time: f64,
        last_time: f64,
        deltas: Vec<WeightDelta>,
    },
    Online {
        time: f64,
        fallbacks: u32,
        deltas: Vec<WeightDelta>,
    },
    /// A re-plan migration; the post-migration shard sets are read off the
    /// core at commit time.
    Plan(MigrationStats),
}

impl RunState {
    /// The one place a [`BatchStats`] is built, stamped with the sequence
    /// number the next commit will consume.
    fn stats(
        &self,
        reason: FlushReason,
        events: usize,
        shards_touched: usize,
        solve_ms: f64,
    ) -> BatchStats {
        BatchStats {
            seq: self.report.batches,
            reason,
            events,
            queue_depth: self.queue.len(),
            shards_touched,
            degraded_shards: 0,
            worst_tier: None,
            solve_ms,
            invalid_events: 0,
        }
    }

    /// Tallies one shard solve of a batch into the report and the batch's
    /// `stats`: `Exact` when it completed, else `Degraded` — the shard kept
    /// its seed (a solve the budget cut, or a poisoned shard's, never run).
    fn tally(&mut self, stats: &mut BatchStats, s: usize, completed: bool) {
        let report = &mut self.report;
        report.solves += 1;
        let tier = if completed {
            report.tier_exact += 1;
            QualityTier::Exact
        } else {
            report.tier_degraded += 1;
            report.degraded_by_shard[s] += 1;
            stats.degraded_shards += 1;
            QualityTier::Degraded
        };
        stats.worst_tier = Some(stats.worst_tier.map_or(tier, |t| t.min(tier)));
    }

    /// Records the first store I/O error. Journaling stops for good — the
    /// durable prefix on disk stays valid — and the service keeps
    /// dispatching; the report carries the error.
    fn note_store_result(&mut self, res: io::Result<()>) {
        if let Err(e) = res {
            mbta_telemetry::counter_add("mbta_store_errors_total", 1);
            self.report.store_error = Some(e.to_string());
        }
    }
}

impl<'p> Core<'p> {
    /// Every shard-assigned edge as `(shard, universe edge)`.
    fn assigned(&self) -> impl Iterator<Item = (usize, EdgeId)> + use<'_, 'p> {
        let shards = self.plan.shards.iter().zip(&self.states).enumerate();
        shards.flat_map(|(s, (sub, st))| {
            let edges = st.matching().edges.into_iter();
            edges.map(move |e| (s, sub.edge_back[e.index()]))
        })
    }

    /// Per shard, the sorted universe edge ids currently assigned; the
    /// rescue overlay, when the mode has one, follows as pseudo-shard
    /// `n_shards` — the shard id its decisions carry.
    fn shard_sets(&self, overlay: Option<&[EdgeId]>) -> Vec<Vec<u32>> {
        let mut shards: Vec<Vec<u32>> = vec![Vec::new(); self.plan.n_shards()];
        for (s, e) in self.assigned() {
            shards[s].push(e.raw());
        }
        for edges in &mut shards {
            edges.sort_unstable();
        }
        shards.extend(overlay.map(|o| o.iter().map(|e| e.raw()).collect()));
        shards
    }

    /// The full dispatch state as a snapshot payload at the current
    /// sequence number.
    fn snapshot_state(&self, overlay: Option<&[EdgeId]>) -> SnapshotState {
        SnapshotState {
            watermark: self.run.report.batches,
            shards: self.shard_sets(overlay),
            weights: self.run.live_weights.clone(),
        }
    }

    /// Journals one record (and a snapshot, when due) under the
    /// first-error-stops-journaling contract.
    fn journal(&mut self, overlay: Option<&[EdgeId]>, rec: &WalRecord) {
        if self.run.report.store_error.is_some() {
            return;
        }
        let Some(mut store) = self.run.store.take() else {
            return;
        };
        let mut res = store.commit_record(rec);
        if res.is_ok() && store.snapshot_due() {
            res = store.snapshot(&self.snapshot_state(overlay));
        }
        self.run.store = Some(store);
        self.run.note_store_result(res);
    }

    /// The single commit path. Consumes sequence slot `stats.seq`, tallies
    /// the flush reason (or the re-plan) and the decisions, journals the
    /// record — write-ahead: durable before any decision escapes — and
    /// releases the decisions to the sink.
    fn commit(
        &mut self,
        stats: BatchStats,
        record: Record,
        decisions: &[Decision],
        overlay: Option<&[EdgeId]>,
        sink: &mut impl DecisionSink,
    ) {
        let report = &mut self.run.report;
        debug_assert_eq!(stats.seq, report.batches, "stats built for another slot");
        report.batches += 1;
        let migration = matches!(record, Record::Plan(_));
        match stats.reason {
            _ if migration => report.replans += 1,
            FlushReason::Count => report.flush_count += 1,
            FlushReason::Bytes => report.flush_bytes += 1,
            FlushReason::Watermark => report.flush_watermark += 1,
            FlushReason::Drain => report.flush_drain += 1,
            FlushReason::Online => report.flush_online += 1,
        }
        report.decisions += decisions.len() as u64;
        mbta_telemetry::counter_add("mbta_service_decisions_total", decisions.len() as u64);

        if self.run.store.is_some() {
            let (seq, events) = (stats.seq, stats.events as u32);
            let records = to_records(decisions);
            let rec = match record {
                Record::Batch {
                    first_time,
                    last_time,
                    deltas,
                } => WalRecord::Batch(BatchRecord {
                    seq,
                    first_time,
                    last_time,
                    events,
                    deltas,
                    decisions: records,
                }),
                Record::Online {
                    time,
                    fallbacks,
                    deltas,
                } => WalRecord::Online(OnlineRecord {
                    seq,
                    time,
                    events,
                    fallbacks,
                    deltas,
                    decisions: records,
                }),
                // The plan frame carries the full post-migration shard
                // sets, so recovery and WAL followers replay the exact
                // same migration at the exact same sequence slot.
                Record::Plan(moved) => WalRecord::Plan(PlanRecord {
                    seq,
                    retained_weight: self.plan.retained_weight,
                    moved_workers: moved.moved_workers,
                    moved_tasks: moved.moved_tasks,
                    shards: self.shard_sets(overlay),
                }),
            };
            self.journal(overlay, &rec);
        }
        // A migration that unassigned nothing has nothing to tell the
        // sink; every other commit is announced, decisions or not.
        if !(migration && decisions.is_empty()) {
            sink.on_batch(&stats, decisions);
        }
    }

    /// The one place a [`Decision`] is built: universe ids plus the live
    /// weight at decision time.
    fn decision(&self, shard: u32, edge: EdgeId, action: Action) -> Decision {
        Decision {
            shard,
            edge: edge.raw(),
            action,
            worker: self.universe.worker_of(edge).raw(),
            task: self.universe.task_of(edge).raw(),
            weight: self.run.live_weights[edge.index()],
        }
    }

    /// Online mode, as the plan ends (re-plan or finish): folds the
    /// solvers' lifetime counters into the report's online-only totals.
    fn fold_warm_stats(&mut self) {
        for stats in self.solvers.iter().flatten().map(WarmSolver::stats) {
            self.run.report.online_warm_solves += stats.solves;
            self.run.report.online_warm_hits += stats.warm_hits;
        }
    }

    /// Adopts a solver's matching for shard `s` when it beats the
    /// incrementally repaired state. The solvers work on the active
    /// sub-market (inactive edges weigh 0 and are never taken), so the
    /// matching touches only active nodes and reseed cannot reject it.
    fn adopt(&mut self, s: usize, matching: &Matching, value: f64) {
        if value > self.states[s].total_weight() + 1e-12 {
            self.states[s]
                .reseed(matching)
                .expect("solution is feasible on the active sub-market");
            self.run.report.reseeds += 1;
            mbta_telemetry::counter_add("mbta_service_reseeds_total", 1);
        }
    }

    /// Lands a benefit update on the universe weights and the cut tracker
    /// (`cross`: the edge spans shards, so no shard state holds it).
    fn set_live_weight(&mut self, cross: bool, edge: u32, weight: f64) {
        let old = std::mem::replace(&mut self.run.live_weights[edge as usize], weight);
        self.cut.update(cross, old, weight);
    }

    fn apply(&mut self, shard: usize, ev: &ServiceEvent) {
        let st = &mut self.states[shard];
        match *ev {
            ServiceEvent::WorkerJoin(w) => {
                st.activate_worker(WorkerId::new(self.plan.worker_local[w as usize]));
            }
            ServiceEvent::WorkerLeave(w) => {
                st.deactivate_worker(WorkerId::new(self.plan.worker_local[w as usize]));
            }
            ServiceEvent::TaskPost(t) => {
                st.activate_task(TaskId::new(self.plan.task_local[t as usize]));
            }
            ServiceEvent::TaskCancel(t) | ServiceEvent::TaskComplete(t) => {
                st.deactivate_task(TaskId::new(self.plan.task_local[t as usize]));
            }
            ServiceEvent::BenefitUpdate { edge, weight } => {
                st.set_weight(EdgeId::new(self.plan.edge_local[edge as usize]), weight);
                self.set_live_weight(false, edge, weight);
            }
        }
    }

    /// Batch mode: one closed micro-batch, start to commit.
    fn dispatch_batch(
        &mut self,
        batch: ClosedBatch,
        mut rescue: Option<&mut Rescue>,
        sink: &mut impl DecisionSink,
    ) {
        let batch_span = mbta_telemetry::span!("mbta_service_batch");
        batch_span.attr("events", batch.events.len() as u64);
        mbta_telemetry::counter_add("mbta_service_batches_total", 1);
        mbta_telemetry::observe("mbta_service_batch_events", batch.events.len() as f64);
        mbta_telemetry::gauge_set("mbta_service_queue_depth", self.run.queue.len() as f64);

        // Pass 1: route every event so the touched-shard set (and thus the
        // pre-batch snapshots) is known before any state changes.
        let mut touched: Vec<usize> = Vec::new();
        let mut seen = vec![false; self.plan.n_shards()];
        let mut routes = Vec::with_capacity(batch.events.len());
        let mut invalid = 0usize;
        for a in &batch.events {
            let r = self.plan.route(&a.event);
            match r {
                Route::Shard(s) => {
                    if !seen[s] {
                        seen[s] = true;
                        touched.push(s);
                    }
                }
                Route::Invalid => invalid += 1,
                // With the boundary pass on, cross-shard benefit updates
                // feed the rescue market instead of being dropped.
                Route::CrossBenefit if rescue.is_none() => self.run.report.cross_benefit_drops += 1,
                Route::CrossBenefit => {}
            }
            routes.push(r);
        }
        touched.sort_unstable();
        self.run.report.invalid_events += invalid as u64;
        mbta_telemetry::counter_add("mbta_service_invalid_events_total", invalid as u64);

        let before: Vec<Matching> = touched.iter().map(|&s| self.states[s].matching()).collect();

        // Pass 2: apply churn in arrival order (greedy local repair keeps
        // every intermediate state feasible). With a store attached, the
        // applied weight updates are collected for the batch's WAL record.
        let journaling = self.run.store.is_some();
        let mut deltas: Vec<WeightDelta> = Vec::new();
        for (a, r) in batch.events.iter().zip(&routes) {
            let cross = match *r {
                Route::Shard(s) => {
                    self.apply(s, &a.event);
                    false
                }
                Route::CrossBenefit if rescue.is_some() => true,
                _ => continue,
            };
            self.run.report.events_processed += 1;
            if let ServiceEvent::BenefitUpdate { edge, weight } = a.event {
                if journaling {
                    deltas.push(WeightDelta { edge, weight });
                }
                // Cross-shard edges live outside every shard state; the
                // update lands on the universe weights directly and is
                // picked up by the next rescue solve.
                if cross {
                    self.set_live_weight(true, edge, weight);
                }
            }
        }

        // Pass 3: re-solve each touched shard's active sub-market via the
        // worker pool, on the shard's carried solver seeded with the
        // repaired assignment — the solve pays for what this batch's events
        // moved, not for a network build and a cold solve. The batch budget
        // is *shared*: one absolute deadline for every shard solve (see the
        // module docs' budget policy), so sequential runs carry unused
        // budget forward and concurrent runs race the same instant.
        let batch_deadline = self.run.budget.deadline(|ms| ms);
        let solve_start = Instant::now();
        let (events, shards) = (batch.events.len(), touched.len());
        let mut stats = self.run.stats(batch.reason, events, shards, 0.0);
        stats.invalid_events = invalid;
        // Jobs are built in ascending shard order; the pool runs them
        // largest-first, this thread taking the first, and merges the
        // results back in shard order.
        let plan = self.plan;
        let mut jobs: Vec<ShardJob<'_>> = Vec::with_capacity(touched.len());
        let slots = self.solvers.iter_mut().enumerate();
        for (s, slot) in slots.filter(|&(s, _)| seen[s] && !plan.degenerate(s)) {
            // A poisoned shard keeps its seed: no job, and no solver built.
            if self.run.poisoned[s] {
                self.run.tally(&mut stats, s, false);
                continue;
            }
            jobs.push(shard_job(plan, &self.states[s], slot, s, batch_deadline));
        }
        let outcomes = pool::solve(self.run.threads, jobs);

        // Merge: outcomes arrive sorted by shard index, so adoption order
        // (and therefore the decision stream) is independent of which
        // thread finished first.
        for outcome in outcomes {
            let s = outcome.shard;
            self.run.tally(&mut stats, s, outcome.completed);
            self.adopt(s, &outcome.matching, outcome.value);
            // The labeled name allocates, so gate on the runtime switch.
            if mbta_telemetry::enabled() {
                mbta_telemetry::observe(
                    &format!("mbta_service_shard_solve_ms{{shard=\"{s}\"}}"),
                    outcome.solve_ms,
                );
            }
        }
        stats.solve_ms = solve_start.elapsed().as_secs_f64() * 1e3;
        self.run.solve_lat.observe(stats.solve_ms);
        mbta_telemetry::observe("mbta_service_batch_solve_ms", stats.solve_ms);

        // Pass 4: the batch's decisions — each touched shard's
        // before/after diff, plus the re-derived rescue overlay's.
        let mut decisions: Vec<Decision> = Vec::new();
        for (&s, pre) in touched.iter().zip(&before) {
            let post = self.states[s].matching();
            let back = &self.plan.shards[s].edge_back;
            diff_sorted(&pre.edges, &post.edges, |local, action| {
                decisions.push(self.decision(s as u32, back[local.index()], action));
            });
        }
        if let Some(rescue) = rescue.as_deref_mut() {
            self.boundary_rescue(rescue, (&batch.events, &routes), &mut decisions);
        }
        canonical_order(&mut decisions);

        let record = Record::Batch {
            first_time: batch.events.first().map_or(0.0, |a| a.time),
            last_time: batch.events.last().map_or(0.0, |a| a.time),
            deltas,
        };
        let overlay = rescue.map(|r| &r.overlay[..]);
        self.commit(stats, record, &decisions, overlay, sink);
    }

    /// Re-solves the cross-shard rescue overlay under this batch's
    /// residual capacities and appends the overlay's assignment deltas
    /// (pseudo-shard `n_shards` in the decision stream) to `out`, which
    /// holds the batch's shard decisions on entry.
    ///
    /// The market — every cross edge of the plan — and its solver are
    /// carried; what a batch changes is the capacities the solver sees: a
    /// live node's residual (whatever the intra-shard solves left unused),
    /// nothing for a dead or exhausted one. So a shard reclaiming capacity
    /// still evicts overlay edges (the seed is trimmed to the residuals
    /// first; the diff emits the unassigns), and feasibility of the union
    /// (shards + overlay) holds because the rescue instance's capacities
    /// *are* the residuals; [`validate_rescue`] re-checks and counts
    /// violations anyway. Those capacities, the weights and the "seen"
    /// marks follow the batch, and every pass of the solve walks the open
    /// market only, so a pass costs what the batch changed plus the open
    /// market, not the whole cut (DESIGN.md §13.2).
    ///
    /// Budget: a fixed quarter-slice of the batch budget (the rescue
    /// market is tiny relative to the shard solves and must not starve
    /// them), none in deterministic mode. The duals outlive a budgeted
    /// solve, as an online fallback's do: the live part of the market is a
    /// few hundred edges, so a cut is rare and the next solve re-primes.
    ///
    /// Determinism: market ids follow universe ids, the seed is a pure
    /// function of the previous overlay and the residuals, and the single
    /// rescue solve runs inline on its own solver — so under
    /// [`BudgetMode::Deterministic`] the overlay is a pure function of the
    /// event history at any thread count.
    fn boundary_rescue(
        &mut self,
        rescue: &mut Rescue,
        batch: (&[Arrival], &[Route]),
        out: &mut Vec<Decision>,
    ) {
        let _span = mbta_telemetry::span!("mbta_partition_rescue");
        if let Some(market) = &mut rescue.market {
            self.follow_batch(market, batch, out);
            debug_assert!(self.is_current(market), "the market fell behind its batch");
        }
        let market = rescue.market.get_or_insert_with(|| self.build_market());
        let Market {
            sub,
            solver,
            edge_local,
            w_cap,
            t_cap,
            weights,
            ..
        } = market;
        solver.set_capacities(w_cap, t_cap);

        // No open edge still evicts a stale overlay: no previously-rescued
        // edge kept its residuals either.
        let local = rescue.overlay.iter().map(|e| edge_local[e.index()]);
        let prev: Vec<EdgeId> = local.filter(|&i| i != UNMAPPED).map(EdgeId::new).collect();
        let open = solver.open_edges().expect("the capacities are set");
        let seed = rescue_seed(&sub.graph, weights, open, &prev, w_cap, t_cap);
        let new_overlay: Vec<EdgeId> = match seed {
            None => Vec::new(),
            Some(seed) => {
                self.run.report.rescue_solves += 1;
                mbta_telemetry::counter_add("mbta_partition_rescue_solves_total", 1);
                // The seed is the floor: a cut solve hands it back.
                let ctl = solve_ctl(self.run.budget.deadline(|ms| ms / 4 + 1));
                let seed = Matching { edges: seed };
                let (m, _) = solver.solve_seeded(&sub.graph, weights, &seed, &ctl);
                m.edges.iter().map(|e| sub.edge_back[e.index()]).collect()
            }
        };
        let plan = self.plan;
        let homes = Homes::new(self.universe, plan, &self.states);
        let is_cross = |e: EdgeId| plan.edge_shard[e.index()] == UNMAPPED;
        let (w_res, t_res) = (|w| homes.worker_residual(w), |t| homes.task_residual(t));
        self.run.report.capacity_violations +=
            validate_rescue(self.universe, is_cross, w_res, t_res, &new_overlay);

        let mut assigns = 0u64;
        diff_sorted(&rescue.overlay, &new_overlay, |e, action| {
            assigns += u64::from(action == Action::Assign);
            out.push(self.decision(plan.n_shards() as u32, e, action));
        });
        self.run.report.rescue_assigns += assigns;

        let live = &self.run.live_weights;
        let rescued: f64 = new_overlay.iter().map(|e| live[e.index()]).sum();
        mbta_telemetry::gauge_set("mbta_partition_rescued_weight", rescued);
        rescue.overlay = new_overlay;
    }

    /// The epoch's boundary market as the shards stand: every cross edge
    /// at its live weight and every market node at its capacity. Every
    /// cross edge whose ends are both live is marked seen.
    fn build_market(&mut self) -> Market {
        let plan = self.plan;
        let homes = Homes::new(self.universe, plan, &self.states);
        let sub = epoch_market(self.universe, |e| plan.edge_shard[e.index()] == UNMAPPED);
        let solver = WarmSolver::new(&sub.graph);
        let w_cap = sub.worker_back.iter().map(|&w| homes.worker_capacity(w));
        let t_cap = sub.task_back.iter().map(|&t| homes.task_capacity(t));
        let live = &self.run.live_weights;
        let weights = sub.edge_back.iter().map(|e| live[e.index()]).collect();
        for &e in &sub.edge_back {
            homes.mark_seen(e, &mut self.run.cross_seen);
        }
        let universe = self.universe;
        Market {
            worker_local: local_ids(
                sub.worker_back.iter().map(|w| w.index()),
                universe.n_workers(),
            ),
            task_local: local_ids(sub.task_back.iter().map(|t| t.index()), universe.n_tasks()),
            edge_local: local_ids(sub.edge_back.iter().map(|e| e.index()), universe.n_edges()),
            w_cap: w_cap.collect(),
            t_cap: t_cap.collect(),
            weights,
            solver,
            sub,
        }
    }

    /// Whether `market` is what [`build_market`](Self::build_market) would
    /// build now, with its seen marks set.
    fn is_current(&self, market: &Market) -> bool {
        let homes = Homes::new(self.universe, self.plan, &self.states);
        let sub = &market.sub;
        let w_cap = sub.worker_back.iter().map(|&w| homes.worker_capacity(w));
        let t_cap = sub.task_back.iter().map(|&t| homes.task_capacity(t));
        let weights = sub
            .edge_back
            .iter()
            .map(|e| self.run.live_weights[e.index()]);
        let mut seen = self.run.cross_seen.clone();
        sub.edge_back
            .iter()
            .for_each(|&e| homes.mark_seen(e, &mut seen));
        w_cap.eq(market.w_cap.iter().copied())
            && t_cap.eq(market.t_cap.iter().copied())
            && weights.eq(market.weights.iter().copied())
            && seen == self.run.cross_seen
    }

    /// Moves `market` to where this batch left the shards. A node's
    /// capacity changes only with its load, which one of the batch's shard
    /// `decisions` then names, or with its liveness, which one of its
    /// events names; an edge becomes seen only when an end of it comes
    /// live, and its weight moves only with a cross-shard benefit update.
    /// Everything else is as the last pass left it.
    ///
    /// A cross edge is "seen" by the rescue market once both endpoints are
    /// concurrently live — even with zero residual. Exhausted residual
    /// means the capacity went to intra-shard assignments, which is
    /// contention, not partition loss; `effective_retained` must charge
    /// the partition only for weight it made unreachable.
    fn follow_batch(
        &mut self,
        market: &mut Market,
        (events, routes): (&[Arrival], &[Route]),
        decisions: &[Decision],
    ) {
        let homes = Homes::new(self.universe, self.plan, &self.states);
        let (sub, seen) = (&market.sub, &mut self.run.cross_seen);
        let in_market = |i: u32| (i != UNMAPPED).then_some(i as usize);
        let worker = |w: u32| in_market(market.worker_local[w as usize]);
        let task = |t: u32| in_market(market.task_local[t as usize]);
        for d in decisions {
            if let Some(i) = worker(d.worker) {
                market.w_cap[i] = homes.worker_capacity(sub.worker_back[i]);
            }
            if let Some(i) = task(d.task) {
                market.t_cap[i] = homes.task_capacity(sub.task_back[i]);
            }
        }
        for (a, r) in events.iter().zip(routes) {
            match (a.event, r) {
                (_, Route::Invalid) => {}
                (ServiceEvent::WorkerJoin(w) | ServiceEvent::WorkerLeave(w), _) => {
                    let Some(i) = worker(w) else { continue };
                    let w = sub.worker_back[i];
                    market.w_cap[i] = homes.worker_capacity(w);
                    if homes.worker_live(w) {
                        for e in sub.graph.worker_edges(WorkerId::from_index(i)) {
                            homes.mark_seen(sub.edge_back[e.index()], seen);
                        }
                    }
                }
                (
                    ServiceEvent::TaskPost(t)
                    | ServiceEvent::TaskCancel(t)
                    | ServiceEvent::TaskComplete(t),
                    _,
                ) => {
                    let Some(i) = task(t) else { continue };
                    let t = sub.task_back[i];
                    market.t_cap[i] = homes.task_capacity(t);
                    if homes.task_live(t) {
                        for e in sub.graph.task_edges(TaskId::from_index(i)) {
                            homes.mark_seen(sub.edge_back[e.index()], seen);
                        }
                    }
                }
                (ServiceEvent::BenefitUpdate { edge, .. }, Route::CrossBenefit) => {
                    let i = market.edge_local[edge as usize] as usize;
                    market.weights[i] = self.run.live_weights[edge as usize];
                }
                (ServiceEvent::BenefitUpdate { .. }, _) => {}
            }
        }
    }

    /// Online mode: one event, start to commit (see the [`crate::online`]
    /// module docs): apply the event through the shard's incremental
    /// state, attempt a depth-1 exchange for benefit updates, accumulate
    /// drift, fall back to a warm-started exact re-solve past the drift
    /// threshold, then commit the event's net decisions.
    fn dispatch_online(
        &mut self,
        rt: &mut OnlineRuntime,
        a: Arrival,
        sink: &mut impl DecisionSink,
    ) {
        let t0 = Instant::now();
        self.run.last_time = self.run.last_time.max(a.time);
        let s = match self.plan.route(&a.event) {
            Route::Shard(s) => s,
            Route::Invalid => {
                self.run.report.invalid_events += 1;
                mbta_telemetry::counter_add("mbta_service_invalid_events_total", 1);
                return;
            }
            // The rescue overlay is a batch construct; in online mode a
            // cross-shard benefit update has no decision surface.
            Route::CrossBenefit => {
                self.run.report.cross_benefit_drops += 1;
                return;
            }
        };

        // Deltas are collected whether or not a store is attached, so the
        // sequence of deciding events — and therefore the decision stream
        // — is identical with and without journaling.
        let mut deltas: Vec<WeightDelta> = Vec::new();
        // Benefit drift accrues before the weight is overwritten.
        let mut drift = 0.0f64;
        if let ServiceEvent::BenefitUpdate { edge, weight } = a.event {
            deltas.push(WeightDelta { edge, weight });
            drift = (weight - self.run.live_weights[edge as usize]).abs();
        }
        self.apply(s, &a.event);
        self.run.report.events_processed += 1;

        // A benefit update may make its edge newly attractive: take it
        // greedily if capacity allows, else try the depth-1 exchange.
        if let ServiceEvent::BenefitUpdate { edge, .. } = a.event {
            let local = EdgeId::new(self.plan.edge_local[edge as usize]);
            let st = &mut self.states[s];
            if !st.edge_assigned(local) && !st.try_assign(local) && online::try_exchange(st, local)
            {
                self.run.report.online_exchanges += 1;
                mbta_telemetry::counter_add("mbta_service_online_exchanges_total", 1);
            }
        }

        // Drift: |Δw| of the update plus every net-removed edge's weight
        // (departures and evictions — plain greedy fills accrue nothing).
        rt.scratch.flips.clear();
        self.states[s].drain_log_into(&mut rt.scratch.flips);
        rt.scratch.fold();
        for &(e, added) in &rt.scratch.net {
            if !added {
                drift += self.states[s].weight_of(e).max(0.0);
            }
        }
        self.run.report.online_events += 1;
        mbta_telemetry::counter_add("mbta_service_online_events_total", 1);
        rt.acc[s] += drift;
        let due = rt.fallback_due(s, self.states[s].total_weight());

        // Drift fallback: warm-started exact re-solve of the shard, under
        // the same budget a batch gets — the event is on the latency
        // path. A poisoned shard resets its accumulator without solving:
        // it stays on the greedy floor, like its batch behavior.
        let fell_back = due && !self.run.poisoned[s] && !self.plan.degenerate(s);
        if fell_back {
            self.warm_solve_shard(rt, s, self.run.budget.deadline(|ms| ms));
        }
        if fell_back || (due && self.run.poisoned[s]) {
            rt.acc[s] = 0.0;
            self.run.report.online_fallbacks += 1;
            mbta_telemetry::counter_add("mbta_service_online_fallbacks_total", 1);
        }

        self.online_decisions(&mut rt.scratch, s);
        let event_ms = t0.elapsed().as_secs_f64() * 1e3;
        rt.lat.observe(event_ms);
        mbta_telemetry::observe("mbta_service_online_event_ms", event_ms);

        // Events that changed nothing durable consume no sequence slot:
        // the WAL stays contiguous and sinks see only deciding events.
        if !rt.scratch.decisions.is_empty() || !deltas.is_empty() {
            let stats = self.run.stats(FlushReason::Online, 1, 1, event_ms);
            let record = Record::Online {
                time: a.time,
                fallbacks: u32::from(fell_back),
                deltas,
            };
            self.commit(stats, record, &rt.scratch.decisions, None, sink);
        }
    }

    /// Warm-started exact re-solve of shard `s` (the caller has ruled
    /// out poisoned and degenerate shards): the incremental matching seeds
    /// the shard's solver, which repairs its carried potentials around it.
    /// Adopts the solution when it improves on the incremental state and
    /// appends the applied flips to the pooled flip buffer.
    fn warm_solve_shard(&mut self, rt: &mut OnlineRuntime, s: usize, deadline: Option<Deadline>) {
        let (plan, state, slot) = (self.plan, &self.states[s], &mut self.solvers[s]);
        let solved = pool::run_job(shard_job(plan, state, slot, s, deadline));
        self.adopt(s, &solved.matching, solved.value);
        self.states[s].drain_log_into(&mut rt.scratch.flips);
    }

    /// Folds shard `s`'s pooled flip log into canonical universe-id
    /// decisions, in the pooled decision buffer.
    fn online_decisions(&self, scratch: &mut OnlineScratch, s: usize) {
        scratch.fold();
        let OnlineScratch { net, decisions, .. } = scratch;
        let back = &self.plan.shards[s].edge_back;
        decisions.clear();
        decisions.extend(net.iter().map(|&(local, added)| {
            let action = if added {
                Action::Assign
            } else {
                Action::Unassign
            };
            self.decision(s as u32, back[local.index()], action)
        }));
        canonical_order(decisions);
    }

    /// The online analog of the batcher's final partial batch: one
    /// closing warm exact solve per healthy shard, so the run converges
    /// before the final report instead of ending wherever drift since
    /// the last fallback left it. Decisions are committed exactly like
    /// per-event ones (`events: 0` — no arrival triggered them), and
    /// shards whose closing solve changes nothing consume no sequence
    /// slot. A shard with no live worker or no live task has nothing to
    /// converge and is skipped outright — which is every shard a cluster
    /// owner does not own, since its router never forwards their events.
    fn drain_online(&mut self, rt: &mut OnlineRuntime, sink: &mut impl DecisionSink) {
        for s in 0..self.plan.n_shards() {
            let st = &self.states[s];
            let live = st.graph().workers().any(|w| st.worker_active(w))
                && st.graph().tasks().any(|t| st.task_active(t));
            if !live || self.run.poisoned[s] || self.plan.degenerate(s) {
                continue;
            }
            let t0 = Instant::now();
            // Shutdown is off the latency path, so the closing solve runs
            // unbudgeted: a wall-clock budget sized for steady-state events
            // would truncate the one solve whose whole point is to converge.
            rt.scratch.flips.clear();
            self.warm_solve_shard(rt, s, None);
            rt.acc[s] = 0.0;
            self.run.report.online_fallbacks += 1;
            mbta_telemetry::counter_add("mbta_service_online_fallbacks_total", 1);
            self.online_decisions(&mut rt.scratch, s);
            if !rt.scratch.decisions.is_empty() {
                let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
                let stats = self.run.stats(FlushReason::Online, 0, 1, solve_ms);
                let record = Record::Online {
                    time: self.run.last_time,
                    fallbacks: 1,
                    deltas: Vec::new(),
                };
                self.commit(stats, record, &rt.scratch.decisions, None, sink);
            }
        }
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
        assert!(
            !(cfg.boundary_pass && cfg.online.is_some()),
            "online mode is incompatible with the boundary pass"
        );
        let n = plan.n_shards();
        let live_weights = plan.universe_weights.clone();
        let (mut states, cut) = seed_plan_state(universe, plan, &live_weights);
        let mode = match cfg.online {
            Some(oc) => {
                for st in &mut states {
                    st.enable_log();
                }
                Mode::Online(OnlineRuntime::new(oc, n))
            }
            None => Mode::Batch {
                batcher: Batcher::new(cfg.batch),
                rescue: cfg.boundary_pass.then(Rescue::default),
            },
        };
        let run = RunState {
            budget: cfg.budget,
            threads: pool::width(cfg.threads),
            queue: BoundedQueue::new(cfg.queue_cap, cfg.drop_policy),
            store: None,
            live_weights,
            cross_seen: vec![false; universe.n_edges()],
            poisoned: vec![false; n],
            defer_pending: false,
            solve_lat: mbta_telemetry::Histogram::new(),
            last_time: 0.0,
            started: Instant::now(),
            report: ServiceReport {
                degraded_by_shard: vec![0; n],
                ..ServiceReport::default()
            },
        };
        DispatchService {
            core: Core {
                universe,
                plan,
                states,
                solvers: vec![None; n],
                cut,
                run,
            },
            mode,
        }
    }

    /// Attaches a durability store: from the next commit on, every record
    /// is journaled to the WAL before its decisions reach the sink, and
    /// snapshots are written on the store's cadence. The store must be
    /// fresh (nothing committed): this service starts from an empty
    /// market, so attaching a store that already holds state would make
    /// the journal lie about what the decisions were applied to. Use
    /// `mbta_store::recover` to inspect an existing directory instead.
    pub fn attach_store(&mut self, store: DurableStore) {
        assert_eq!(
            store.stats().watermark,
            0,
            "cannot attach a store with existing journaled state to a fresh service"
        );
        self.core.run.store = Some(store);
    }

    /// Marks a shard as poisoned: it is not solved, and keeps its current
    /// assignment (tallied as a degraded solve per touching batch). Sibling
    /// shards are unaffected.
    pub fn poison_shard(&mut self, s: usize) {
        if !self.core.run.poisoned[s] {
            mbta_telemetry::counter_add("mbta_service_shard_poisoned_total", 1);
        }
        self.core.run.poisoned[s] = true;
    }

    /// Clears a shard's poison mark.
    pub fn heal_shard(&mut self, s: usize) {
        if self.core.run.poisoned[s] {
            mbta_telemetry::counter_add("mbta_service_shard_healed_total", 1);
        }
        self.core.run.poisoned[s] = false;
    }

    /// Offers one arrival to the ingress queue. On [`OfferOutcome::Deferred`]
    /// the caller must [`pump`](Self::pump) and re-offer — nothing was
    /// admitted (and the offer is not counted as an ingress event).
    pub fn offer(&mut self, a: Arrival) -> OfferOutcome {
        let run = &mut self.core.run;
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

    /// Drains the ingress queue through the mode: the batcher in batch
    /// mode (dispatching every batch a watermark closes), or event by
    /// event through the online decision path.
    pub fn pump(&mut self, sink: &mut impl DecisionSink) {
        let DispatchService { core, mode } = self;
        match mode {
            Mode::Batch { batcher, rescue } => {
                while let Some(a) = core.run.queue.pop() {
                    if let Some(closed) = batcher.offer(a) {
                        core.dispatch_batch(closed, rescue.as_mut(), sink);
                    }
                }
            }
            Mode::Online(rt) => {
                while let Some(a) = core.run.queue.pop() {
                    core.dispatch_online(rt, a, sink);
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
        self.core.run.report.batches
    }

    /// Live assigned-edge count across all shards.
    pub fn current_assignments(&self) -> usize {
        self.core.states.iter().map(|s| s.len()).sum()
    }

    /// Live total assignment value across all shards.
    pub fn current_value(&self) -> f64 {
        self.core.states.iter().map(|s| s.total_weight()).sum()
    }

    /// Flushes all remaining work, reconciles cross-shard state, and
    /// returns the run report.
    pub fn finish(mut self, sink: &mut impl DecisionSink) -> ServiceReport {
        self.pump(sink);
        let DispatchService { mut core, mut mode } = self;
        match &mut mode {
            Mode::Batch { batcher, rescue } => {
                if let Some(closed) = batcher.drain() {
                    core.dispatch_batch(closed, rescue.as_mut(), sink);
                }
            }
            Mode::Online(rt) => {
                core.drain_online(rt, sink);
                core.fold_warm_stats();
                let report = &mut core.run.report;
                report.p50_online_ms = rt.lat.quantile(0.5);
                report.p99_online_ms = rt.lat.quantile(0.99);
                report.max_online_ms = rt.lat.max();
            }
        }
        let overlay = mode.overlay();

        // Clean shutdown of the durability store: fsync the WAL and write
        // a final snapshot so recovery replays nothing.
        let mut store_stats = StoreStats::default();
        if let Some(mut store) = core.run.store.take() {
            if core.run.report.store_error.is_none() {
                let res = store.seal(&core.snapshot_state(overlay));
                core.run.note_store_result(res);
            }
            store_stats = store.stats();
        }
        let overlay = overlay.unwrap_or_default();

        // Cross-shard reconciliation: the union of per-shard assignments
        // (plus the rescue overlay), mapped back to universe ids, must be
        // feasible on the universe graph. Shards are node-disjoint and the
        // rescue market's capacities are the shard residuals, so this
        // holds by construction; re-validate anyway, on top of the
        // per-batch rescue validations already in the report.
        let universe = core.universe;
        let union = core.assigned().map(|(_, e)| e);
        let violations = capacity_violations(
            universe,
            union.chain(overlay.iter().copied()).map(EdgeId::raw),
        );

        let Core {
            plan, states, run, ..
        } = core;
        // `+ 0.0` normalizes the empty sum's -0.0 (cosmetic in reports).
        let rescued_weight: f64 = overlay
            .iter()
            .map(|e| run.live_weights[e.index()])
            .sum::<f64>()
            + 0.0;

        // Retained weight from the *live* weights, not the plan-time ones
        // — benefit drift moves weight across the cut after planning, and
        // the report must say what the sharding costs now. The effective
        // figure also credits cross edges the rescue market was offered
        // (they are assignable, just second-stage).
        let (mut intra_live, mut seen_live, mut total_live) = (0.0f64, 0.0f64, 0.0f64);
        for e in universe.edges() {
            let w = run.live_weights[e.index()];
            total_live += w;
            if plan.edge_shard[e.index()] != UNMAPPED {
                intra_live += w;
            } else if run.cross_seen[e.index()] {
                seen_live += w;
            }
        }
        let frac = |x: f64| {
            if total_live > 0.0 {
                x / total_live
            } else {
                1.0
            }
        };

        let wall_ms = run.started.elapsed().as_secs_f64() * 1e3;
        let mut report = run.report;
        report.n_shards = plan.n_shards();
        report.cross_edges = plan.cross_edges;
        report.retained_weight = frac(intra_live);
        report.effective_retained = frac(intra_live + seen_live);
        report.rescued_weight = rescued_weight;
        report.dropped_newest = run.queue.dropped_newest();
        report.dropped_oldest = run.queue.dropped_oldest();
        report.deferrals = run.queue.deferrals();
        report.queue_high_watermark = run.queue.high_watermark();
        report.p50_solve_ms = run.solve_lat.quantile(0.5);
        report.p99_solve_ms = run.solve_lat.quantile(0.99);
        report.max_solve_ms = run.solve_lat.max();
        report.wall_ms = wall_ms;
        if wall_ms > 0.0 {
            report.events_per_sec = report.events_processed as f64 / (wall_ms / 1e3);
        }
        report.final_value = states.iter().map(|s| s.total_weight()).sum::<f64>() + rescued_weight;
        report.final_assignments = states.iter().map(|s| s.len()).sum::<usize>() + overlay.len();
        report.capacity_violations += violations;
        report.pool_threads = run.threads;
        report.wal_records = store_stats.wal_records;
        report.wal_bytes = store_stats.wal_bytes;
        report.snapshots = store_stats.snapshots;
        report
    }

    /// How far the live cut fraction has degraded above the plan's
    /// baseline. Cheap (two float reads): a driver doing drift-driven
    /// re-planning polls it at batch boundaries and, past its threshold,
    /// detaches → rebuilds the plan → resumes.
    pub fn cut_degradation(&self) -> f64 {
        self.core.cut.degradation()
    }

    /// Tears the service down to exactly the state a successor needs to
    /// continue the run under a **new** shard plan: the whole `RunState`
    /// (live weights, ingress queue, durability store, every report
    /// counter) and the mode (a batcher's buffered events carry over
    /// untouched), plus what is bound to the old plan in plan-free form —
    /// node liveness, the assigned-edge union, and the old node→shard
    /// maps for migration accounting. Pair with
    /// [`DispatchService::resume`]:
    ///
    /// ```text
    /// let carried = svc.detach();
    /// let plan2 = ShardPlan::build(&g, carried.live_weights(), k, routing);
    /// let mut svc = DispatchService::resume(&g, &plan2, carried, &mut sink);
    /// ```
    pub fn detach(self) -> CarriedState {
        let DispatchService { mut core, mut mode } = self;
        let (universe, plan) = (core.universe, core.plan);
        let homes = Homes::new(universe, plan, &core.states);
        let active_workers = universe.workers().map(|w| homes.worker_live(w)).collect();
        let active_tasks = universe.tasks().map(|t| homes.task_live(t)).collect();
        let mut assigned: Vec<(EdgeId, u32)> =
            core.assigned().map(|(s, e)| (e, s as u32)).collect();
        match &mut mode {
            Mode::Batch { rescue, .. } => {
                // The boundary market is bound to the plan like the shard
                // solvers, and goes where they go; its overlay is carried.
                if let Some(r) = rescue {
                    let rescue_shard = plan.n_shards() as u32;
                    let overlay = std::mem::take(r).overlay;
                    assigned.extend(overlay.into_iter().map(|e| (e, rescue_shard)));
                }
            }
            Mode::Online(_) => core.fold_warm_stats(),
        }
        assigned.sort_unstable_by_key(|&(e, _)| e);
        CarriedState {
            run: core.run,
            mode,
            active_workers,
            active_tasks,
            assigned,
            old_worker_shard: plan.worker_shard.clone(),
            old_task_shard: plan.task_shard.clone(),
        }
    }

    /// Rebuilds a service over a **new** plan from carried state — the
    /// migration half of drift-driven re-planning, applied at a batch
    /// boundary:
    ///
    /// * shard states are reseeded with the still-intra part of the
    ///   carried assignment (feasible by restriction: the carried union
    ///   was feasible on the universe and shard capacities are the
    ///   universe capacities);
    /// * carried assignments that became cross-shard move to the rescue
    ///   overlay when the boundary pass is on, otherwise they are
    ///   unassigned (decisions emitted under their old shard id);
    /// * the migration goes through the one commit path: a [`PlanRecord`]
    ///   carrying the full post-migration shard sets is journaled
    ///   *before* those decisions reach the sink, so
    ///   `mbta_store::recover` and WAL followers replay the exact same
    ///   migration at the exact same sequence slot;
    /// * drift tracking restarts from the new plan's baseline, and the
    ///   migration counters land in the final report.
    pub fn resume(
        universe: &'p BipartiteGraph,
        plan: &'p ShardPlan,
        carried: CarriedState,
        sink: &mut impl DecisionSink,
    ) -> DispatchService<'p> {
        let CarriedState {
            mut run,
            mut mode,
            active_workers,
            active_tasks,
            assigned,
            old_worker_shard,
            old_task_shard,
        } = carried;
        let n = plan.n_shards();
        let (mut states, cut) = seed_plan_state(universe, plan, &run.live_weights);
        for w in universe.workers().filter(|w| active_workers[w.index()]) {
            states[plan.worker_shard[w.index()] as usize]
                .activate_worker(WorkerId::new(plan.worker_local[w.index()]));
        }
        for t in universe.tasks().filter(|t| active_tasks[t.index()]) {
            states[plan.task_shard[t.index()] as usize]
                .activate_task(TaskId::new(plan.task_local[t.index()]));
        }

        // Split the carried assignment under the new plan. `assigned` is
        // sorted by universe edge id, so the overlay comes out sorted too.
        let has_rescue = mode.overlay().is_some();
        let mut per_shard: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut overlay: Vec<EdgeId> = Vec::new();
        let mut dropped: Vec<(EdgeId, u32)> = Vec::new();
        for &(e, old_shard) in &assigned {
            match plan.edge_shard[e.index()] {
                UNMAPPED if has_rescue => overlay.push(e),
                UNMAPPED => dropped.push((e, old_shard)),
                s => per_shard[s as usize].push(EdgeId::new(plan.edge_local[e.index()])),
            }
        }
        // Re-activation above greedily filled each shard; the reseed
        // replaces those fills with exactly the carried assignment — in
        // every shard, including one that carries nothing, so no edge is
        // ever assigned without having been announced.
        for (st, mut edges) in states.iter_mut().zip(per_shard) {
            edges.sort_unstable();
            st.reseed(&Matching { edges })
                .expect("carried assignment stays feasible restricted to its new shard");
        }
        match &mut mode {
            Mode::Batch { rescue, .. } => {
                if let Some(r) = rescue {
                    r.overlay = overlay;
                }
            }
            // Re-arm the flip logs only after the migration reseeds (the
            // migration is committed as a plan record, not as per-event
            // decisions) and restart drift accounting on the new shards.
            Mode::Online(rt) => {
                for st in &mut states {
                    st.enable_log();
                }
                rt.acc = vec![0.0; n];
            }
        }

        let moved = migration_diff(
            &old_worker_shard,
            &plan.worker_shard,
            &old_task_shard,
            &plan.task_shard,
        );
        // Per-shard marks mean nothing under a different shard count.
        if run.poisoned.len() != n {
            run.poisoned = vec![false; n];
            run.report.degraded_by_shard = vec![0; n];
        }
        run.report.migrated_workers += u64::from(moved.moved_workers);
        run.report.migrated_tasks += u64::from(moved.moved_tasks);
        mbta_telemetry::counter_add("mbta_partition_replans_total", 1);
        mbta_telemetry::gauge_set(
            "mbta_partition_migrated_nodes",
            (moved.moved_workers + moved.moved_tasks) as f64,
        );

        let mut core = Core {
            universe,
            plan,
            states,
            solvers: vec![None; n],
            cut,
            run,
        };
        let mut decisions: Vec<Decision> = dropped
            .into_iter()
            .map(|(e, old_shard)| core.decision(old_shard, e, Action::Unassign))
            .collect();
        canonical_order(&mut decisions);
        let stats = core.run.stats(FlushReason::Drain, 0, 0, 0.0);
        core.commit(stats, Record::Plan(moved), &decisions, mode.overlay(), sink);
        DispatchService { core, mode }
    }
}

/// Opaque state produced by [`DispatchService::detach`] and consumed by
/// [`DispatchService::resume`]: everything a successor service needs to
/// continue a run under a new shard plan. Owns no borrow of the old plan,
/// so the driver is free to drop and rebuild the plan in between.
pub struct CarriedState {
    run: RunState,
    mode: Mode,
    active_workers: Vec<bool>,
    active_tasks: Vec<bool>,
    /// Sorted by edge id: every assigned universe edge plus the shard it
    /// was assigned under (the rescue overlay as pseudo-shard `n_shards`).
    assigned: Vec<(EdgeId, u32)>,
    old_worker_shard: Vec<u32>,
    old_task_shard: Vec<u32>,
}

impl CarriedState {
    /// The live universe edge weights at detach time — what the driver
    /// passes to [`ShardPlan::build`] for the replacement plan.
    pub fn live_weights(&self) -> &[f64] {
        &self.run.live_weights
    }
}

/// The inverse of a back map with `n` entries on the parent side:
/// parent id → local id, [`UNMAPPED`] where there is none.
fn local_ids(back: impl Iterator<Item = usize>, n: usize) -> Vec<u32> {
    let mut local = vec![UNMAPPED; n];
    for (i, parent) in back.enumerate() {
        local[parent] = i as u32;
    }
    local
}

/// The shard states seen from the universe: each worker and task is
/// managed by its home shard's state alone.
#[derive(Clone, Copy)]
struct Homes<'a, 'p> {
    universe: &'p BipartiteGraph,
    plan: &'p ShardPlan,
    states: &'a [IncrementalAssignment<'p>],
}

impl<'a, 'p> Homes<'a, 'p> {
    fn new(
        universe: &'p BipartiteGraph,
        plan: &'p ShardPlan,
        states: &'a [IncrementalAssignment<'p>],
    ) -> Self {
        Homes {
            universe,
            plan,
            states,
        }
    }

    /// Universe worker `w`'s home state and its id there.
    fn worker(self, w: WorkerId) -> (&'a IncrementalAssignment<'p>, WorkerId) {
        let (s, local) = (
            self.plan.worker_shard[w.index()],
            self.plan.worker_local[w.index()],
        );
        (&self.states[s as usize], WorkerId::new(local))
    }

    /// Universe task `t`'s home state and its id there.
    fn task(self, t: TaskId) -> (&'a IncrementalAssignment<'p>, TaskId) {
        let (s, local) = (
            self.plan.task_shard[t.index()],
            self.plan.task_local[t.index()],
        );
        (&self.states[s as usize], TaskId::new(local))
    }

    /// Whether universe worker `w` is live in its home shard.
    fn worker_live(self, w: WorkerId) -> bool {
        let (st, local) = self.worker(w);
        st.worker_active(local)
    }

    /// Whether universe task `t` is live in its shard.
    fn task_live(self, t: TaskId) -> bool {
        let (st, local) = self.task(t);
        st.task_active(local)
    }

    /// Worker `w`'s capacity less the load its home shard assigned it.
    fn worker_residual(self, w: WorkerId) -> u32 {
        let (st, local) = self.worker(w);
        self.universe.capacity(w) - st.worker_load(local)
    }

    /// Task `t`'s demand less the load its shard assigned it.
    fn task_residual(self, t: TaskId) -> u32 {
        let (st, local) = self.task(t);
        self.universe.demand(t) - st.task_load(local)
    }

    /// What the boundary market may give worker `w`: its residual while
    /// it is live, nothing otherwise.
    fn worker_capacity(self, w: WorkerId) -> u32 {
        if self.worker_live(w) {
            self.worker_residual(w)
        } else {
            0
        }
    }

    /// What the boundary market may give task `t`: its residual while it is
    /// live, nothing otherwise.
    fn task_capacity(self, t: TaskId) -> u32 {
        if self.task_live(t) {
            self.task_residual(t)
        } else {
            0
        }
    }

    /// Marks cross edge `e` seen if both its ends are live.
    fn mark_seen(self, e: EdgeId, seen: &mut [bool]) {
        let (w, t) = (self.universe.worker_of(e), self.universe.task_of(e));
        if !seen[e.index()] && self.worker_live(w) && self.task_live(t) {
            seen[e.index()] = true;
        }
    }
}

/// The one way a shard solve is built, batch or online: shard `s`'s
/// carried solver (built here on first use, for the current plan's shard
/// graph), its active weights, and its incremental matching as the seed,
/// under `deadline`.
fn shard_job<'a>(
    plan: &'a ShardPlan,
    state: &IncrementalAssignment<'_>,
    slot: &'a mut Option<WarmSolver>,
    s: usize,
    deadline: Option<Deadline>,
) -> ShardJob<'a> {
    let graph = &plan.shards[s].graph;
    ShardJob {
        shard: s,
        graph,
        weights: state.active_weights(),
        solver: slot.get_or_insert_with(|| WarmSolver::new(graph)),
        seed: state.matching(),
        ctl: solve_ctl(deadline),
    }
}

fn solve_ctl(deadline: Option<Deadline>) -> SolveCtl {
    deadline.map_or_else(SolveCtl::unlimited, |d| {
        SolveCtl::unlimited().with_deadline(d)
    })
}

/// Builds per-shard incremental states (empty matchings, every node
/// inactive) for `plan` under the universe `live_weights` — the plan's own
/// weights for a fresh service (cross-shard edges included, so benefit
/// drift on unassignable edges is tracked from the correct baseline), the
/// carried ones on resume — plus a fresh [`CutTracker`] over them.
fn seed_plan_state<'p>(
    universe: &'p BipartiteGraph,
    plan: &'p ShardPlan,
    live_weights: &[f64],
) -> (Vec<IncrementalAssignment<'p>>, CutTracker) {
    assert_eq!(
        live_weights.len(),
        universe.n_edges(),
        "live weights mismatch"
    );
    let mut states = Vec::with_capacity(plan.n_shards());
    for sub in &plan.shards {
        let weights = sub.project_weights(live_weights);
        let mut st = IncrementalAssignment::from_matching(&sub.graph, weights, &Matching::empty())
            .expect("empty seed is always feasible");
        for w in sub.graph.workers() {
            st.deactivate_worker(w);
        }
        for t in sub.graph.tasks() {
            st.deactivate_task(t);
        }
        states.push(st);
    }
    let (mut intra, mut cross) = (0.0f64, 0.0f64);
    for e in universe.edges() {
        if plan.edge_shard[e.index()] == UNMAPPED {
            cross += live_weights[e.index()];
        } else {
            intra += live_weights[e.index()];
        }
    }
    (states, CutTracker::new(intra, cross))
}

/// Maps emitted decisions to their WAL form, preserving order.
fn to_records(decisions: &[Decision]) -> Vec<DecisionRecord> {
    decisions
        .iter()
        .map(|d| DecisionRecord {
            shard: d.shard,
            edge: d.edge,
            assign: matches!(d.action, Action::Assign),
            worker: d.worker,
            task: d.task,
            weight: d.weight,
        })
        .collect()
}

/// Two-pointer diff of sorted edge lists: `Unassign` for entries only in
/// `before`, `Assign` for entries only in `after`.
fn diff_sorted(before: &[EdgeId], after: &[EdgeId], mut emit: impl FnMut(EdgeId, Action)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < before.len() && j < after.len() {
        match before[i].cmp(&after[j]) {
            std::cmp::Ordering::Less => {
                emit(before[i], Action::Unassign);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                emit(after[j], Action::Assign);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    for &e in &before[i..] {
        emit(e, Action::Unassign);
    }
    for &e in &after[j..] {
        emit(e, Action::Assign);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BenefitDrift;
    use crate::queue::DropPolicy;
    use crate::shard::Routing;
    use crate::sink::{CollectSink, WriteSink};
    use mbta_graph::random::{random_bipartite, RandomGraphSpec};
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
        match &svc.mode {
            Mode::Batch { rescue, .. } => rescue.as_ref()?.market.as_ref(),
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
            assert!(svc.core.solvers.iter().all(Option::is_none));
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
            let solvers = svc.core.solvers.iter().flatten();
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
        for st in &svc.core.states {
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
            svc.core.run.report.degraded_by_shard[0] > 0,
            "shard 0 untouched"
        );
        assert!(
            svc.core.solvers[0].is_none(),
            "a poisoned shard built a solver"
        );
        assert!(svc.core.solvers[1..].iter().all(Option::is_some));
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
            |svc: &DispatchService<'_>| svc.core.solvers[0].as_ref().unwrap().stats();
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
        assert!(svc.core.run.report.degraded_by_shard[0] > 0);
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
        let aw = svc.core.states[0].active_weights();
        let graph = &plan.shards[0].graph;
        let (cold, _) =
            max_weight_bmatching(graph, &aw, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        let (have, opt) = (svc.core.states[0].total_weight(), cold.total_weight(&aw));
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
        assert_eq!(stats.solves, svc.core.run.report.rescue_solves);
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
        let stats = svc.core.solvers[0].as_ref().unwrap().stats();
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
        for st in &svc.core.states {
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
        for st in &svc.core.states {
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
            let mut expected = svc.core.run.report.clone();
            assert!(expected.events_processed > 0 && expected.decisions > 0);
            assert!(online || expected.degraded_by_shard[0] > 0);

            let carried = svc.detach();
            let plan2 = ShardPlan::build(&g, carried.live_weights(), new_shards, Routing::MinCut);
            let decided = sink.decisions.len() as u64;
            let svc = DispatchService::resume(&g, &plan2, carried, &mut sink);
            let got = &svc.core.run.report;

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
            assert_eq!(svc.core.run.poisoned.len(), new_shards);
            assert_eq!(svc.core.run.poisoned[0], new_shards == 4);
            assert_eq!(svc.finish(&mut sink).capacity_violations, 0);
        }
    }
}
