//! The dispatcher: every decision the service makes, from one state
//! machine that does no I/O.
//!
//! A [`Dispatcher`] holds the decision state and nothing else: over the
//! current [`ShardPlan`], per-shard [`IncrementalAssignment`]s and carried
//! exact solvers, the [`CutTracker`], the live weights, poison marks, and
//! the mode's own state — the boundary-rescue overlay and market in batch
//! mode, the drift accumulators in online mode. Its steps are plain calls:
//! [`Dispatcher::batch`], [`Dispatcher::event`] and [`Dispatcher::close`]
//! each return a [`Commit`] (stats and record head; the weight updates and
//! decisions stay in the dispatcher's pooled buffers, lent by
//! [`Dispatcher::decisions`] and copied out by [`Dispatcher::record`]), and
//! [`Dispatcher::detach`] → [`Dispatcher::replan`] moves it onto a new
//! plan. What it decided is a pure function of the plan and the arrivals
//! (under [`BudgetMode::Deterministic`]); the queue, store, sink, clocks
//! and the commit path are the driver's ([`crate::service`]).
//!
//! ```text
//!  batch:  route + apply churn (greedy repair), then per touched healthy
//!          shard, via the solve pool, one re-solve on the shard's carried
//!          solver seeded with the repaired assignment, racing one shared
//!          deadline; adopt improvements; drain the touched shards' change
//!          sets; [boundary rescue: the plan's cross-edge market re-solved
//!          on its own carried solver, the batch's residuals as capacities]
//!  event:  route + apply one event, depth-1 exchange, drift accounting
//!          off the change set, past the threshold re-solve on the same
//!          carried solver; drain the shard's change set
//!  close:  one unbudgeted closing solve per live online shard; drain it
//!                 --> Commit (+ pooled deltas and decisions)
//! ```
//!
//! **One decision path.** Each shard state keeps one change set: every
//! edge whose assignment moved since the last drain, once (see
//! `mbta_core::incremental`). Every shard decision — a batch's, an online
//! event's, a closing solve's — comes from draining it in
//! `shard_decisions`, so however a step churned an edge (repair, eviction,
//! exchange, reseed), only its net change is decided. A re-plan drains and
//! discards after its migration reseeds: the migration is a plan record.
//!
//! **One exact tier.** A shard's market changes by a batch of events
//! between exact solves, so neither mode builds and cold-solves a flow
//! network per solve: the dispatcher keeps one `WarmSolver` per shard
//! (built at the shard's first exact solve, dropped with the plan) and
//! every exact solve — a batch's on whichever pool thread runs the shard's
//! job, an online fallback inline — repairs the duals it carries around
//! the shard's current assignment. The boundary rescue is the same design
//! one level up: the plan's cross edges are one market, built at the
//! epoch's first rescue pass and dropped with the plan, whose solver sees
//! each batch's residuals as capacities (DESIGN.md §13.2). A solver's first
//! solve is the same repair, from zero prices, and a solve a deadline cuts
//! keeps its prices for the next.
//!
//! **Capacity safety.** Shards are node-disjoint ([`ShardPlan`]), so each
//! worker's capacity is managed by exactly one `IncrementalAssignment`,
//! whose every mutation preserves feasibility. The union of shard
//! assignments is therefore feasible on the universe graph by
//! construction; [`Dispatcher::finish`] re-validates the union anyway and
//! counts the violations (the CI smoke test asserts zero).
//!
//! **Degradation isolation.** A poisoned shard ([`Dispatcher::poison_shard`])
//! gets no solve job: it keeps its seed (the churn-repaired assignment),
//! tallied as a `Degraded` solve, and its carried solver is
//! neither entered nor, before the shard's first healthy solve, built — it
//! can never stall the batch or its sibling shards, and the first healed
//! solve re-solves warm from the duals the last healthy one left.
//!
//! **Determinism.** Under [`BudgetMode::Deterministic`] every solve runs
//! unbudgeted, so each shard's result is a pure function of the input
//! events (its carried solver sees that shard's solves only, in batch
//! order, on whichever thread); the solve pool merges results in
//! shard-index order, so the decision stream is too — byte-identical **at
//! any thread count**. [`BudgetMode::Wallclock`] trades that for bounded
//! batch latency: the budget is one absolute deadline every touched shard
//! races, *never split* (DESIGN.md §10.2). Budgeted solves repair the
//! carried duals like unbudgeted ones: the seed is the floor, and a cut
//! solve hands back its seed but keeps the prices it reached, so a cut
//! means "finish next batch". When the budget covers every repair, a
//! budgeted run makes the same decisions as a `Deterministic` one. The
//! deadline is the one clock that reaches a decision; the only other clock
//! read here times [`BatchStats::solve_ms`].

use crate::batch::{ClosedBatch, FlushReason};
use crate::event::{Arrival, ServiceEvent};
use crate::online::{self, OnlineConfig};
use crate::pool::{self, ShardJob};
use crate::report::ServiceReport;
use crate::service::ServiceConfig;
use crate::shard::{capacity_violations, Route, ShardPlan, UNMAPPED};
use crate::sink::{canonical_order, Action, BatchStats, Decision};
use mbta_core::incremental::IncrementalAssignment;
use mbta_core::warm::WarmSolver;
use mbta_graph::subgraph::Subgraph;
use mbta_graph::{BipartiteGraph, EdgeId, TaskId, WorkerId};
use mbta_matching::Matching;
use mbta_partition::{
    epoch_market, migration_diff, rescue_seed, validate_rescue, CutTracker, MigrationStats,
};
use mbta_store::record::{BatchRecord, OnlineRecord, PlanRecord, WalRecord, WeightDelta};
use mbta_telemetry::HistogramFamily;
use mbta_util::{Deadline, SolveCtl};
use std::time::Instant;

/// How solve budgets are assigned per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetMode {
    /// Each batch gets this many wall-clock milliseconds of solve budget,
    /// shared by its touched shards as one absolute deadline: unused
    /// budget carries forward on each thread, and concurrent shards race the
    /// same instant (see the module docs). Bounded latency, non-deterministic
    /// quality tiers.
    Wallclock(u64),
    /// No deadlines: every solve runs to the exact tier.
    /// Deterministic decisions; latency bounded only by instance size.
    Deterministic,
}

impl BudgetMode {
    /// The one budget → deadline mapping: a solve starting now may run
    /// for `share(ms)` of a wall-clock budget, unbounded under
    /// `Deterministic`.
    fn ctl(self, share: impl FnOnce(u64) -> u64) -> SolveCtl {
        match self {
            BudgetMode::Wallclock(ms) => {
                SolveCtl::unlimited().with_deadline(Deadline::after_ms(share(ms)))
            }
            BudgetMode::Deterministic => SolveCtl::unlimited(),
        }
    }
}

/// The decision state of a dispatch run. See the module docs.
pub struct Dispatcher<'p> {
    universe: &'p BipartiteGraph,
    plan: &'p ShardPlan,
    budget: BudgetMode,
    /// Solver threads for a batch's shard jobs, resolved ([`pool::width`]).
    threads: usize,
    /// Per-shard solve time and per-pool-thread busy time: labelled
    /// series, so each label's handle is looked up once, not per batch.
    shard_solve_ms: HistogramFamily,
    pool_busy_ms: HistogramFamily,
    pub(crate) states: Vec<IncrementalAssignment<'p>>,
    /// Each shard's carried exact solver — the one exact tier of both
    /// modes. Bound to the plan's topology, so a re-plan drops them all;
    /// built at a shard's first exact solve ([`ShardJob::new`]).
    pub(crate) solvers: Vec<Option<WarmSolver>>,
    /// Live intra/cross weight split for drift-driven re-planning.
    cut: CutTracker,
    /// Universe-indexed live weights (benefit updates land here too, so
    /// decisions report the weight in parent terms).
    live_weights: Vec<f64>,
    /// Which cross edges were ever offered to the rescue market.
    cross_seen: Vec<bool>,
    /// Per-shard poison marks (cleared when a re-plan changes the shard
    /// count, like `ServiceReport::degraded_by_shard`).
    pub(crate) poisoned: Vec<bool>,
    pub(crate) mode: Mode,
    /// Online mode: per-shard drift accumulators, which decide when a
    /// shard re-solves (a re-plan zeroes them), and the largest stream
    /// timestamp seen, which stamps the closing solves' records.
    acc: Vec<f64>,
    last_time: f64,
    /// Pooled buffers: the last step's weight updates and decisions — a
    /// [`Commit`] leaves them here, so a step allocates no output.
    deltas: Vec<WeightDelta>,
    decisions: Vec<Decision>,
}

/// When the dispatcher solves, and what only batches need. A dispatcher
/// holds exactly one, so `online × boundary_pass` is unrepresentable past
/// [`Dispatcher::new`].
#[allow(clippy::large_enum_variant)]
pub(crate) enum Mode {
    /// Micro-batches; `Some` with the boundary pass on.
    Batch(Option<Rescue>),
    /// Decide on every event (see [`crate::online`]).
    Online(OnlineConfig),
}

/// Boundary-rescue state.
#[derive(Default)]
pub(crate) struct Rescue {
    /// The sorted universe edge ids currently assigned by the rescue market
    /// (pseudo-shard `n_shards` in decisions and snapshots).
    overlay: Vec<EdgeId>,
    /// The overlay's live weight, as the last pass (or re-plan) summed it
    /// (`+ 0.0` normalizes the empty sum's -0.0, cosmetic in reports).
    weight: f64,
    /// The plan epoch's boundary market, bound to the plan like the shard
    /// solvers and dropped with them. Built at the epoch's first rescue
    /// pass.
    pub(crate) market: Option<Market>,
}

/// The boundary market of one plan epoch — every cross edge — with the
/// solver carried on it and what its solves read. The epoch's first
/// rescue pass builds it whole; every later pass moves only what its batch
/// changed ([`Dispatcher::follow_batch`]).
pub(crate) struct Market {
    pub(crate) sub: Subgraph,
    pub(crate) solver: WarmSolver,
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

/// What one dispatcher step hands its driver to commit. The weight
/// updates and decisions it made stay in the dispatcher until its next
/// step ([`Dispatcher::decisions`], [`Dispatcher::record`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    /// The step's stats; `seq` and `queue_depth` are 0 for the driver to
    /// stamp, as is `solve_ms` for an online step, which the driver times.
    pub stats: BatchStats,
    /// The record's head: the WAL fields besides the sequence number, the
    /// event count (`stats.events`), deltas and decisions.
    pub head: Head,
}

/// The kind-specific fields of a commit's WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum Head {
    /// A closed micro-batch: `(first_time, last_time)`, the arrival times
    /// of its first and last events (0 when empty).
    Batch(f64, f64),
    /// An online deciding event or closing solve: `(time, fallbacks)`, the
    /// event's arrival time (the latest one for a closing solve) and the
    /// drift-fallback exact re-solves the step ran.
    Online(f64, u32),
    /// A re-plan migration; the record carries the post-migration shard
    /// sets, read off the dispatcher.
    Plan(MigrationStats),
}

impl<'p> Dispatcher<'p> {
    /// A dispatcher over `plan` with `cfg`'s budget, threads and mode. All
    /// nodes start *inactive* — the market is empty until join/post events
    /// arrive.
    ///
    /// # Panics
    /// If `cfg` asks for `online` and `boundary_pass` together — the one
    /// combination of its fields that names no mode.
    pub fn new(universe: &'p BipartiteGraph, plan: &'p ShardPlan, cfg: &ServiceConfig) -> Self {
        assert!(
            !(cfg.boundary_pass && cfg.online.is_some()),
            "online mode is incompatible with the boundary pass"
        );
        let mode = match cfg.online {
            Some(oc) => Mode::Online(oc),
            None => Mode::Batch(cfg.boundary_pass.then(Rescue::default)),
        };
        if let Mode::Online(oc) = &mode {
            oc.validate();
        }
        // A fresh dispatcher is the empty market re-planned onto `plan`.
        let empty = Detached {
            budget: cfg.budget,
            threads: pool::width(cfg.threads),
            live_weights: plan.universe_weights.clone(),
            cross_seen: vec![false; universe.n_edges()],
            poisoned: vec![false; plan.n_shards()],
            mode,
            last_time: 0.0,
            active_workers: vec![false; universe.n_workers()],
            active_tasks: vec![false; universe.n_tasks()],
            assigned: Vec::new(),
            old_worker_shard: plan.worker_shard.clone(),
            old_task_shard: plan.task_shard.clone(),
        };
        Self::replan(universe, plan, empty).0
    }

    /// The decisions the last step made, in canonical order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Shards of the current plan.
    pub fn n_shards(&self) -> usize {
        self.plan.n_shards()
    }

    /// Universe-indexed live edge weights.
    pub fn weights(&self) -> &[f64] {
        &self.live_weights
    }

    /// How far the live cut fraction has degraded above the plan's
    /// baseline (two float reads).
    pub fn cut_degradation(&self) -> f64 {
        self.cut.degradation()
    }

    fn rescue(&self) -> Option<&Rescue> {
        match &self.mode {
            Mode::Batch(rescue) => rescue.as_ref(),
            Mode::Online(_) => None,
        }
    }

    /// Per shard, the sorted universe edge ids currently assigned; the
    /// rescue overlay, with the boundary pass on, follows as pseudo-shard
    /// `n_shards` — the shard id its decisions carry. What a snapshot and
    /// a plan record hold.
    pub fn shard_sets(&self) -> Vec<Vec<u32>> {
        let mut shards: Vec<Vec<u32>> = vec![Vec::new(); self.plan.n_shards()];
        for (s, e) in self.assigned() {
            shards[s].push(e.raw());
        }
        for edges in &mut shards {
            edges.sort_unstable();
        }
        let overlay = self
            .rescue()
            .map(|r| r.overlay.iter().map(|e| e.raw()).collect());
        shards.extend(overlay);
        shards
    }

    /// Assigned edges, the rescue overlay's included. O(shards).
    pub fn assignments(&self) -> usize {
        let overlay = self.rescue().map_or(0, |r| r.overlay.len());
        self.states.iter().map(|s| s.len()).sum::<usize>() + overlay
    }

    /// Live weight of the assigned edges, the rescue overlay's included.
    /// O(shards).
    pub fn value(&self) -> f64 {
        let states: f64 = self.states.iter().map(|s| s.total_weight()).sum();
        states + self.rescue().map_or(0.0, |r| r.weight)
    }

    /// `c` as the WAL journals it at sequence number `seq`. Read the
    /// buffers before the next step reuses them.
    pub fn record(&self, c: &Commit, seq: u64) -> WalRecord {
        let (deltas, decisions) = (self.deltas.clone(), self.decisions.clone());
        let events = c.stats.events as u32;
        match c.head {
            Head::Batch(first_time, last_time) => WalRecord::Batch(BatchRecord {
                seq,
                first_time,
                last_time,
                events,
                deltas,
                decisions,
            }),
            Head::Online(time, fallbacks) => WalRecord::Online(OnlineRecord {
                seq,
                time,
                events,
                fallbacks,
                deltas,
                decisions,
            }),
            // The plan frame carries the full post-migration shard sets,
            // so recovery and WAL followers replay the exact same
            // migration at the exact same sequence slot.
            Head::Plan(ref moved) => WalRecord::Plan(PlanRecord {
                seq,
                retained_weight: self.plan.retained_weight,
                moved_workers: moved.moved_workers,
                moved_tasks: moved.moved_tasks,
                shards: self.shard_sets(),
            }),
        }
    }

    /// Marks a shard as poisoned: it is not solved, and keeps its current
    /// assignment (tallied as a degraded solve per touching batch).
    pub fn poison_shard(&mut self, s: usize) {
        if !self.poisoned[s] {
            mbta_telemetry::counter_add!("mbta_service_shard_poisoned_total", 1);
        }
        self.poisoned[s] = true;
    }

    /// Clears a shard's poison mark.
    pub fn heal_shard(&mut self, s: usize) {
        if self.poisoned[s] {
            mbta_telemetry::counter_add!("mbta_service_shard_healed_total", 1);
        }
        self.poisoned[s] = false;
    }

    /// Batch mode: one closed micro-batch, start to commit. Counts what it
    /// did into `tally`.
    ///
    /// # Panics
    /// On an online dispatcher.
    pub fn batch(&mut self, batch: &ClosedBatch, tally: &mut ServiceReport) -> Commit {
        let Mode::Batch(rescue) = &mut self.mode else {
            panic!("a batch reached an online dispatcher")
        };
        // Taken out for the step, so it and the shard states can be
        // borrowed side by side.
        let mut rescue = rescue.take();
        let commit = self.dispatch_batch(batch, rescue.as_mut(), tally);
        self.mode = Mode::Batch(rescue);
        commit
    }

    /// Every shard-assigned edge as `(shard, universe edge)`.
    fn assigned(&self) -> impl Iterator<Item = (usize, EdgeId)> + use<'_, 'p> {
        let shards = self.plan.shards.iter().zip(&self.states).enumerate();
        shards.flat_map(|(s, (sub, st))| {
            let edges = st.matching().edges.into_iter();
            edges.map(move |e| (s, sub.edge_back[e.index()]))
        })
    }

    /// The one place shard decisions are built, for a batch, an online
    /// event and a closing solve alike: drains each of `shards`' change
    /// sets into the pooled decision buffer, in universe ids and canonical
    /// order.
    fn shard_decisions(&mut self, shards: &[usize]) {
        let (universe, live, out) = (self.universe, &self.live_weights, &mut self.decisions);
        out.clear();
        for &s in shards {
            let back = &self.plan.shards[s].edge_back;
            self.states[s].drain_changes(|local, assigned| {
                let (edge, action) = (back[local.index()], Action::from(assigned));
                out.push(decision(universe, live, s as u32, edge, action));
            });
        }
        canonical_order(out);
    }

    /// Online mode, as the plan ends (re-plan or finish): folds the
    /// solvers' lifetime counters into the report's online-only totals.
    fn fold_warm_stats(&self, tally: &mut ServiceReport) {
        if let Mode::Online(_) = self.mode {
            for stats in self.solvers.iter().flatten().map(WarmSolver::stats) {
                tally.online_warm_solves += stats.solves;
                tally.online_warm_hits += stats.warm_hits;
            }
        }
    }

    /// Adopts a solver's matching for shard `s` when it beats the
    /// incrementally repaired state. The solvers work on the active
    /// sub-market (inactive edges weigh 0 and are never taken), so the
    /// matching touches only active nodes and reseed cannot reject it.
    fn adopt(&mut self, s: usize, matching: &Matching, value: f64, tally: &mut ServiceReport) {
        if value > self.states[s].total_weight() + 1e-12 {
            self.states[s]
                .reseed(matching)
                .expect("solution is feasible on the active sub-market");
            tally.reseeds += 1;
            mbta_telemetry::counter_add!("mbta_service_reseeds_total", 1);
        }
    }

    /// Lands a benefit update on the universe weights and the cut tracker
    /// (`cross`: the edge spans shards, so no shard state holds it).
    fn set_live_weight(&mut self, cross: bool, edge: u32, weight: f64) {
        let old = std::mem::replace(&mut self.live_weights[edge as usize], weight);
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

    fn dispatch_batch(
        &mut self,
        batch: &ClosedBatch,
        rescue: Option<&mut Rescue>,
        tally: &mut ServiceReport,
    ) -> Commit {
        // Pass 1: route every event, collecting the touched-shard set.
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
                Route::CrossBenefit if rescue.is_none() => tally.cross_benefit_drops += 1,
                Route::CrossBenefit => {}
            }
            routes.push(r);
        }
        touched.sort_unstable();
        tally.invalid_events += invalid as u64;
        mbta_telemetry::counter_add!("mbta_service_invalid_events_total", invalid as u64);

        // Pass 2: apply churn in arrival order (greedy local repair keeps
        // every intermediate state feasible), collecting the applied weight
        // updates for the batch's record.
        self.deltas.clear();
        for (a, r) in batch.events.iter().zip(&routes) {
            let cross = match *r {
                Route::Shard(s) => {
                    self.apply(s, &a.event);
                    false
                }
                Route::CrossBenefit if rescue.is_some() => true,
                _ => continue,
            };
            tally.events_processed += 1;
            if let ServiceEvent::BenefitUpdate { edge, weight } = a.event {
                self.deltas.push(WeightDelta { edge, weight });
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
        // module docs), so sequential runs carry unused budget forward and
        // concurrent runs race the same instant.
        let ctl = self.budget.ctl(|ms| ms);
        let solve_start = Instant::now();
        let mut stats = BatchStats::new(batch.reason, batch.events.len(), touched.len());
        stats.invalid_events = invalid;
        // Jobs are built in ascending shard order; the pool runs them
        // largest-first, this thread taking the first, and merges the
        // results back in shard order.
        let plan = self.plan;
        let mut jobs: Vec<ShardJob<'_>> = Vec::with_capacity(touched.len());
        let slots = self.solvers.iter_mut().enumerate();
        for (s, slot) in slots.filter(|&(s, _)| seen[s] && !plan.degenerate(s)) {
            // A poisoned shard keeps its seed: no job, and no solver built.
            if self.poisoned[s] {
                tally.tally_solve(&mut stats, s, false);
                continue;
            }
            let graph = &plan.shards[s].graph;
            jobs.push(ShardJob::new(s, graph, &self.states[s], slot, ctl.clone()));
        }
        let outcomes = pool::solve(self.threads, jobs, &self.pool_busy_ms);

        // Merge: outcomes arrive sorted by shard index, so adoption order
        // (and therefore the decision stream) is independent of which
        // thread finished first.
        for outcome in outcomes {
            let s = outcome.shard;
            tally.tally_solve(&mut stats, s, outcome.completed);
            self.adopt(s, &outcome.matching, outcome.value, tally);
            self.shard_solve_ms.observe(s, outcome.solve_ms);
        }
        stats.solve_ms = solve_start.elapsed().as_secs_f64() * 1e3;

        // Pass 4: the batch's decisions — what the touched shards' change
        // sets hold, then the re-derived rescue overlay's diff. The overlay
        // is pseudo-shard `n_shards` and its diff ascends by edge, so the
        // buffer stays in canonical order.
        self.shard_decisions(&touched);
        if let Some(rescue) = rescue {
            let mut decisions = std::mem::take(&mut self.decisions);
            let batch = (&batch.events[..], &routes[..]);
            self.boundary_rescue(rescue, batch, &mut decisions, tally);
            self.decisions = decisions;
        }
        let key = |d: &Decision| (d.shard, d.edge, d.action);
        debug_assert!(self.decisions.is_sorted_by_key(key));

        let time = |a: Option<&Arrival>| a.map_or(0.0, |a| a.time);
        let head = Head::Batch(time(batch.events.first()), time(batch.events.last()));
        Commit { stats, head }
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
        tally: &mut ServiceReport,
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
                tally.rescue_solves += 1;
                mbta_telemetry::counter_add!("mbta_partition_rescue_solves_total", 1);
                // The seed is the floor: a cut solve hands it back.
                let ctl = self.budget.ctl(|ms| ms / 4 + 1);
                let seed = Matching { edges: seed };
                let (m, _) = solver.solve_seeded(&sub.graph, weights, &seed, &ctl);
                m.edges.iter().map(|e| sub.edge_back[e.index()]).collect()
            }
        };
        let plan = self.plan;
        let homes = Homes(self.universe, plan, &self.states);
        let is_cross = |e: EdgeId| plan.edge_shard[e.index()] == UNMAPPED;
        let (w_res, t_res) = (|w| homes.worker_residual(w), |t| homes.task_residual(t));
        tally.capacity_violations +=
            validate_rescue(self.universe, is_cross, w_res, t_res, &new_overlay);

        let (live, rescue_shard) = (&self.live_weights, plan.n_shards() as u32);
        let mut assigns = 0u64;
        diff_sorted(&rescue.overlay, &new_overlay, |e, action| {
            assigns += u64::from(action == Action::Assign);
            out.push(decision(self.universe, live, rescue_shard, e, action));
        });
        tally.rescue_assigns += assigns;

        rescue.weight = new_overlay.iter().map(|e| live[e.index()]).sum::<f64>() + 0.0;
        mbta_telemetry::gauge_set!("mbta_partition_rescued_weight", rescue.weight);
        rescue.overlay = new_overlay;
    }

    /// The epoch's boundary market as the shards stand: every cross edge
    /// at its live weight and every market node at its capacity. Every
    /// cross edge whose ends are both live is marked seen.
    fn build_market(&mut self) -> Market {
        let plan = self.plan;
        let homes = Homes(self.universe, plan, &self.states);
        let sub = epoch_market(self.universe, |e| plan.edge_shard[e.index()] == UNMAPPED);
        let solver = WarmSolver::new(&sub.graph);
        let (w_cap, t_cap, weights) = self.market_inputs(&sub);
        for &e in &sub.edge_back {
            homes.mark_seen(e, &mut self.cross_seen);
        }
        let universe = self.universe;
        Market {
            worker_local: local_ids(
                sub.worker_back.iter().map(|w| w.index()),
                universe.n_workers(),
            ),
            task_local: local_ids(sub.task_back.iter().map(|t| t.index()), universe.n_tasks()),
            edge_local: local_ids(sub.edge_back.iter().map(|e| e.index()), universe.n_edges()),
            w_cap,
            t_cap,
            weights,
            solver,
            sub,
        }
    }

    /// What the market's solves read, as the shards stand: per market
    /// worker and task its capacity ([`Homes::worker_capacity`]), per market
    /// edge its live weight.
    fn market_inputs(&self, sub: &Subgraph) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        let homes = Homes(self.universe, self.plan, &self.states);
        let w_cap = sub.worker_back.iter().map(|&w| homes.worker_capacity(w));
        let t_cap = sub.task_back.iter().map(|&t| homes.task_capacity(t));
        let weights = sub.edge_back.iter().map(|e| self.live_weights[e.index()]);
        (w_cap.collect(), t_cap.collect(), weights.collect())
    }

    /// Whether `market` is what [`build_market`](Self::build_market) would
    /// build now, with its seen marks set.
    fn is_current(&self, market: &Market) -> bool {
        let homes = Homes(self.universe, self.plan, &self.states);
        let mut seen = self.cross_seen.clone();
        for &e in &market.sub.edge_back {
            homes.mark_seen(e, &mut seen);
        }
        let inputs = (&market.w_cap, &market.t_cap, &market.weights);
        let (w_cap, t_cap, weights) = self.market_inputs(&market.sub);
        (&w_cap, &t_cap, &weights) == inputs && seen == self.cross_seen
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
        let homes = Homes(self.universe, self.plan, &self.states);
        let (sub, seen) = (&market.sub, &mut self.cross_seen);
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
                    market.weights[i] = self.live_weights[edge as usize];
                }
                (ServiceEvent::BenefitUpdate { .. }, _) => {}
            }
        }
    }

    /// Online mode: one arrival, start to commit (see the [`crate::online`]
    /// module docs): apply the event through the shard's incremental
    /// state, attempt a depth-1 exchange for benefit updates, accumulate
    /// drift, fall back to a warm-started exact re-solve past the drift
    /// threshold. `None` when the event changed nothing durable: it
    /// consumes no sequence slot, so the WAL stays contiguous and sinks see
    /// only deciding events.
    ///
    /// # Panics
    /// On a batch dispatcher.
    pub fn event(&mut self, a: Arrival, tally: &mut ServiceReport) -> Option<Commit> {
        let Mode::Online(cfg) = self.mode else {
            panic!("an online event reached a batch dispatcher")
        };
        self.last_time = self.last_time.max(a.time);
        let s = match self.plan.route(&a.event) {
            Route::Shard(s) => s,
            Route::Invalid => {
                tally.invalid_events += 1;
                mbta_telemetry::counter_add!("mbta_service_invalid_events_total", 1);
                return None;
            }
            // The rescue overlay is a batch construct; in online mode a
            // cross-shard benefit update has no decision surface.
            Route::CrossBenefit => {
                tally.cross_benefit_drops += 1;
                return None;
            }
        };

        // Benefit drift accrues before the weight is overwritten.
        self.deltas.clear();
        let mut drift = 0.0f64;
        if let ServiceEvent::BenefitUpdate { edge, weight } = a.event {
            self.deltas.push(WeightDelta { edge, weight });
            drift = (weight - self.live_weights[edge as usize]).abs();
        }
        self.apply(s, &a.event);
        tally.events_processed += 1;

        // A benefit update may make its edge newly attractive: take it
        // greedily if capacity allows, else try the depth-1 exchange.
        if let ServiceEvent::BenefitUpdate { edge, .. } = a.event {
            let local = EdgeId::new(self.plan.edge_local[edge as usize]);
            let st = &mut self.states[s];
            if !st.edge_assigned(local) && !st.try_assign(local) && online::try_exchange(st, local)
            {
                tally.online_exchanges += 1;
                mbta_telemetry::counter_add!("mbta_service_online_exchanges_total", 1);
            }
        }

        // Drift: |Δw| of the update plus every net-removed edge's live
        // weight (departures and evictions — plain greedy fills accrue
        // nothing), read off the change set before a fallback adds to it.
        let back = &self.plan.shards[s].edge_back;
        for (local, assigned) in self.states[s].changes() {
            if !assigned {
                drift += self.live_weights[back[local.index()].index()].max(0.0);
            }
        }
        tally.online_events += 1;
        mbta_telemetry::counter_add!("mbta_service_online_events_total", 1);
        self.acc[s] += drift;
        let due = cfg.fallback_due(self.acc[s], self.states[s].total_weight());

        // Drift fallback: warm-started exact re-solve of the shard, under
        // the same budget a batch gets — the event is on the latency
        // path. A poisoned shard resets its accumulator without solving:
        // it stays on the greedy floor, like its batch behavior.
        let fell_back = due && !self.poisoned[s] && !self.plan.degenerate(s);
        if fell_back {
            self.warm_solve_shard(s, self.budget.ctl(|ms| ms), tally);
        }
        if fell_back || (due && self.poisoned[s]) {
            self.acc[s] = 0.0;
            tally.online_fallbacks += 1;
            mbta_telemetry::counter_add!("mbta_service_online_fallbacks_total", 1);
        }

        self.shard_decisions(&[s]);
        let stats = BatchStats::new(FlushReason::Online, 1, 1);
        let head = Head::Online(a.time, u32::from(fell_back));
        (!self.decisions.is_empty() || !self.deltas.is_empty()).then_some(Commit { stats, head })
    }

    /// Online mode, at the end of the stream: shard `s`'s closing solve,
    /// the online analog of the batcher's final partial batch — one warm
    /// exact solve, unbudgeted (shutdown is off the latency path, and a
    /// budget sized for steady-state events would truncate the one solve
    /// whose point is to converge). `None` when the solve changed nothing,
    /// or when the shard is poisoned, degenerate, or has no live worker or
    /// no live task — which is every shard a cluster owner does not own.
    ///
    /// # Panics
    /// On a batch dispatcher.
    pub fn close(&mut self, s: usize, tally: &mut ServiceReport) -> Option<Commit> {
        let Mode::Online(_) = self.mode else {
            panic!("a batch dispatcher has no closing solves")
        };
        let st = &self.states[s];
        let live = st.graph().workers().any(|w| st.worker_active(w))
            && st.graph().tasks().any(|t| st.task_active(t));
        if !live || self.poisoned[s] || self.plan.degenerate(s) {
            return None;
        }
        self.warm_solve_shard(s, SolveCtl::unlimited(), tally);
        self.acc[s] = 0.0;
        tally.online_fallbacks += 1;
        mbta_telemetry::counter_add!("mbta_service_online_fallbacks_total", 1);
        self.shard_decisions(&[s]);
        self.deltas.clear();
        let head = Head::Online(self.last_time, 1);
        let stats = BatchStats::new(FlushReason::Online, 0, 1);
        (!self.decisions.is_empty()).then_some(Commit { stats, head })
    }

    /// Warm-started exact re-solve of shard `s` (the caller has ruled
    /// out poisoned and degenerate shards): the incremental matching seeds
    /// the shard's solver, which repairs its carried potentials around it.
    /// Adopts the solution when it improves on the incremental state.
    fn warm_solve_shard(&mut self, s: usize, ctl: SolveCtl, tally: &mut ServiceReport) {
        let (graph, slot) = (&self.plan.shards[s].graph, &mut self.solvers[s]);
        let solved = pool::run_job(ShardJob::new(s, graph, &self.states[s], slot, ctl));
        self.adopt(s, &solved.matching, solved.value, tally);
    }

    /// Tears the dispatcher down to the plan-free state a successor needs
    /// to continue under a **new** plan ([`Dispatcher::replan`]): live
    /// weights, seen and poison marks, the mode (the rescue market and the
    /// shard solvers are bound to the old plan and dropped; the overlay is
    /// carried), node liveness, the assigned-edge union, and the old
    /// node→shard maps for migration accounting.
    pub fn detach(self, tally: &mut ServiceReport) -> Detached {
        self.fold_warm_stats(tally);
        let (universe, plan) = (self.universe, self.plan);
        let homes = Homes(universe, plan, &self.states);
        let active_workers = universe.workers().map(|w| homes.worker_live(w)).collect();
        let active_tasks = universe.tasks().map(|t| homes.task_live(t)).collect();
        let mut assigned: Vec<(EdgeId, u32)> =
            self.assigned().map(|(s, e)| (e, s as u32)).collect();
        let mut mode = self.mode;
        if let Mode::Batch(Some(r)) = &mut mode {
            let rescue_shard = plan.n_shards() as u32;
            let overlay = std::mem::take(r).overlay;
            assigned.extend(overlay.into_iter().map(|e| (e, rescue_shard)));
        }
        assigned.sort_unstable_by_key(|&(e, _)| e);
        Detached {
            budget: self.budget,
            threads: self.threads,
            live_weights: self.live_weights,
            cross_seen: self.cross_seen,
            poisoned: self.poisoned,
            mode,
            last_time: self.last_time,
            active_workers,
            active_tasks,
            assigned,
            old_worker_shard: plan.worker_shard.clone(),
            old_task_shard: plan.task_shard.clone(),
        }
    }

    /// Rebuilds a dispatcher over a **new** plan from `detached` — the
    /// migration half of drift-driven re-planning, applied at a batch
    /// boundary — and returns it with the migration's commit:
    ///
    /// * shard states are reseeded with the still-intra part of the
    ///   carried assignment (feasible by restriction: the carried union
    ///   was feasible on the universe and shard capacities are the
    ///   universe capacities);
    /// * carried assignments that became cross-shard move to the rescue
    ///   overlay when the boundary pass is on, otherwise they are
    ///   unassigned (decisions emitted under their old shard id);
    /// * the commit's record carries the full post-migration shard sets,
    ///   so recovery and WAL followers replay the exact same migration;
    /// * drift tracking restarts from the new plan's baseline, and the
    ///   commit's head says how many nodes moved.
    pub fn replan(
        universe: &'p BipartiteGraph,
        plan: &'p ShardPlan,
        detached: Detached,
    ) -> (Self, Commit) {
        let (n, mut detached) = (plan.n_shards(), detached);
        let (mut states, cut) = seed_plan_state(universe, plan, &detached.live_weights);
        let (workers, tasks) = (&detached.active_workers, &detached.active_tasks);
        for w in universe.workers().filter(|w| workers[w.index()]) {
            states[plan.worker_shard[w.index()] as usize]
                .activate_worker(WorkerId::new(plan.worker_local[w.index()]));
        }
        for t in universe.tasks().filter(|t| tasks[t.index()]) {
            states[plan.task_shard[t.index()] as usize]
                .activate_task(TaskId::new(plan.task_local[t.index()]));
        }

        // Split the carried assignment under the new plan. `assigned` is
        // sorted by universe edge id, so the overlay comes out sorted too.
        let has_rescue = matches!(detached.mode, Mode::Batch(Some(_)));
        let mut per_shard: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut overlay: Vec<EdgeId> = Vec::new();
        let mut dropped: Vec<(EdgeId, u32)> = Vec::new();
        for &(e, old_shard) in &detached.assigned {
            match plan.edge_shard[e.index()] {
                UNMAPPED if has_rescue => overlay.push(e),
                UNMAPPED => dropped.push((e, old_shard)),
                s => per_shard[s as usize].push(EdgeId::new(plan.edge_local[e.index()])),
            }
        }
        // Re-activation above greedily filled each shard; the reseed
        // replaces those fills with exactly the carried assignment — in
        // every shard, including one that carries nothing, so no edge is
        // ever assigned without having been announced. The migration is
        // committed as a plan record, not as decisions, so every change
        // set then starts empty.
        for (st, mut edges) in states.iter_mut().zip(per_shard) {
            edges.sort_unstable();
            st.reseed(&Matching { edges })
                .expect("carried assignment stays feasible restricted to its new shard");
            st.drain_changes(|_, _| {});
        }
        if let Mode::Batch(Some(r)) = &mut detached.mode {
            let live = &detached.live_weights;
            r.weight = overlay.iter().map(|e| live[e.index()]).sum::<f64>() + 0.0;
            r.overlay = overlay;
        }

        let moved = migration_diff(
            &detached.old_worker_shard,
            &plan.worker_shard,
            &detached.old_task_shard,
            &plan.task_shard,
        );
        // Per-shard marks mean nothing under a different shard count.
        if detached.poisoned.len() != n {
            detached.poisoned = vec![false; n];
        }

        let mut d = Dispatcher {
            universe,
            plan,
            budget: detached.budget,
            threads: detached.threads,
            shard_solve_ms: HistogramFamily::new("mbta_service_shard_solve_ms", "shard", n),
            pool_busy_ms: HistogramFamily::new(
                "mbta_service_pool_thread_busy_ms",
                "thread",
                detached.threads,
            ),
            states,
            solvers: vec![None; n],
            cut,
            live_weights: detached.live_weights,
            cross_seen: detached.cross_seen,
            poisoned: detached.poisoned,
            mode: detached.mode,
            acc: vec![0.0; n],
            last_time: detached.last_time,
            deltas: Vec::new(),
            decisions: Vec::new(),
        };
        let unassign = |&(e, old_shard): &(EdgeId, u32)| {
            decision(universe, &d.live_weights, old_shard, e, Action::Unassign)
        };
        let mut decisions: Vec<Decision> = dropped.iter().map(unassign).collect();
        canonical_order(&mut decisions);
        d.decisions = decisions;
        let commit = Commit {
            stats: BatchStats::new(FlushReason::Drain, 0, 0),
            head: Head::Plan(moved),
        };
        (d, commit)
    }

    /// The end of the run: folds the online solvers' counters into `tally`
    /// and fills in its end-of-plan figures — the assignment, the
    /// re-validated capacity of the union, and the sharding's live cost.
    pub fn finish(self, tally: &mut ServiceReport) {
        self.fold_warm_stats(tally);
        // Cross-shard reconciliation: the union of per-shard assignments
        // (plus the rescue overlay), mapped back to universe ids, must be
        // feasible on the universe graph. Shards are node-disjoint and the
        // rescue market's capacities are the shard residuals, so this
        // holds by construction; re-validate anyway, on top of the
        // per-batch rescue validations already tallied.
        let (universe, plan) = (self.universe, self.plan);
        let overlay = self.rescue().map_or(&[][..], |r| &r.overlay[..]);
        let union = self.assigned().map(|(_, e)| e.raw());
        let overlay = overlay.iter().map(|e| e.raw());
        tally.capacity_violations += capacity_violations(universe, union.chain(overlay));

        // Retained weight from the *live* weights, not the plan-time ones
        // — benefit drift moves weight across the cut after planning, and
        // the report must say what the sharding costs now. The effective
        // figure also credits cross edges the rescue market was offered
        // (they are assignable, just second-stage).
        let (mut intra_live, mut seen_live, mut total_live) = (0.0f64, 0.0f64, 0.0f64);
        for e in universe.edges() {
            let w = self.live_weights[e.index()];
            total_live += w;
            if plan.edge_shard[e.index()] != UNMAPPED {
                intra_live += w;
            } else if self.cross_seen[e.index()] {
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
        tally.n_shards = plan.n_shards();
        tally.cross_edges = plan.cross_edges;
        tally.retained_weight = frac(intra_live);
        tally.effective_retained = frac(intra_live + seen_live);
        tally.rescued_weight = self.rescue().map_or(0.0, |r| r.weight);
        tally.final_value = self.value();
        tally.final_assignments = self.assignments();
        tally.pool_threads = self.threads;
    }
}

/// A [`Dispatcher`] between two plans ([`Dispatcher::detach`] →
/// [`Dispatcher::replan`]). Owns no borrow of the old plan, so the driver
/// is free to drop and rebuild the plan in between.
pub struct Detached {
    budget: BudgetMode,
    threads: usize,
    live_weights: Vec<f64>,
    cross_seen: Vec<bool>,
    poisoned: Vec<bool>,
    mode: Mode,
    last_time: f64,
    active_workers: Vec<bool>,
    active_tasks: Vec<bool>,
    /// Sorted by edge id: every assigned universe edge plus the shard it
    /// was assigned under (the rescue overlay as pseudo-shard `n_shards`).
    assigned: Vec<(EdgeId, u32)>,
    old_worker_shard: Vec<u32>,
    old_task_shard: Vec<u32>,
}

impl Detached {
    /// The live universe edge weights at detach time — what the driver
    /// passes to [`ShardPlan::build`] for the replacement plan.
    pub fn live_weights(&self) -> &[f64] {
        &self.live_weights
    }
}

/// The one place a [`Decision`] is built: universe ids plus the live
/// weight at decision time.
fn decision(
    universe: &BipartiteGraph,
    live: &[f64],
    shard: u32,
    edge: EdgeId,
    action: Action,
) -> Decision {
    Decision {
        shard,
        edge: edge.raw(),
        action,
        worker: universe.worker_of(edge).raw(),
        task: universe.task_of(edge).raw(),
        weight: live[edge.index()],
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

/// The shard states seen from the universe — `(universe, plan, states)`:
/// each worker and task is managed by its home shard's state alone.
#[derive(Clone, Copy)]
struct Homes<'a, 'p>(
    &'p BipartiteGraph,
    &'p ShardPlan,
    &'a [IncrementalAssignment<'p>],
);

impl<'a, 'p> Homes<'a, 'p> {
    /// Universe worker `w`'s home state and its id there.
    fn worker(self, w: WorkerId) -> (&'a IncrementalAssignment<'p>, WorkerId) {
        let (s, local) = (
            self.1.worker_shard[w.index()],
            self.1.worker_local[w.index()],
        );
        (&self.2[s as usize], WorkerId::new(local))
    }

    /// Universe task `t`'s home state and its id there.
    fn task(self, t: TaskId) -> (&'a IncrementalAssignment<'p>, TaskId) {
        let (s, local) = (self.1.task_shard[t.index()], self.1.task_local[t.index()]);
        (&self.2[s as usize], TaskId::new(local))
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
        self.0.capacity(w) - st.worker_load(local)
    }

    /// Task `t`'s demand less the load its shard assigned it.
    fn task_residual(self, t: TaskId) -> u32 {
        let (st, local) = self.task(t);
        self.0.demand(t) - st.task_load(local)
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
        let (w, t) = (self.0.worker_of(e), self.0.task_of(e));
        if !seen[e.index()] && self.worker_live(w) && self.task_live(t) {
            seen[e.index()] = true;
        }
    }
}

/// Builds per-shard incremental states (empty matchings, every node
/// inactive) for `plan` under the universe `live_weights` — the plan's own
/// weights for a fresh dispatcher (cross-shard edges included, so benefit
/// drift on unassignable edges is tracked from the correct baseline), the
/// carried ones on re-plan — plus a fresh [`CutTracker`] over them.
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
