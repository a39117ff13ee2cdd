//! The dispatcher: every decision the service makes, from one state
//! machine that does no I/O.
//!
//! A [`Dispatcher`] holds the decision state and nothing else: over the
//! current [`ShardPlan`], one [`IncrementalAssignment`] per market — each
//! shard's and, with the boundary pass on, the boundary market's over the
//! plan's cut, each owning its carried flow network — the [`CutTracker`],
//! the live weights, poison marks, and the mode's own state — the boundary
//! market's ceding and prices in batch mode, the drift accumulators in
//! online mode. Its steps are plain calls:
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
//!  batch:  route + apply churn (greedy repair); [return the units the
//!          overlay let go, cede the units the last pass reserved]; then
//!          per touched healthy shard, via the solve pool, one re-solve of
//!          the shard's carried network, which holds the repaired
//!          assignment, racing one shared deadline; adopt improvements;
//!          [boundary rescue: the boundary market's state moved to the
//!          units the shards leave and re-solved the same way, every unit
//!          its overlay takes ceded by its home shard; then reserve, at
//!          posted prices, the units the next batch cedes]; drain the
//!          touched markets' change sets
//!  event:  route + apply one event, depth-1 exchange, drift accounting
//!          off the change set, past the threshold re-solve the same
//!          carried network; drain the shard's change set
//!  close:  one unbudgeted closing solve per live online shard; drain it
//!                 --> Commit (+ pooled deltas and decisions)
//! ```
//!
//! **One decision path.** Each market state keeps one change set: every
//! edge whose assignment moved since the last drain, once (see
//! `mbta_core::incremental`). Every decision — a shard's in a batch, the
//! overlay's (pseudo-shard `n_shards`), an online event's, a closing
//! solve's — comes from draining it in `shard_decisions`, so however a step
//! churned an edge (repair, eviction, exchange, reseed), only its net
//! change is decided. A re-plan drains and discards after its migration
//! reseeds: the migration is a plan record.
//!
//! **One exact tier.** A market changes by a batch of events between exact
//! solves, so neither mode builds and cold-solves a flow network per
//! solve: each market state owns one (built with the state, dropped with
//! the plan), writes every change to it as it happens, and every exact
//! solve — a shard's on whichever pool thread runs its job, the boundary
//! market's and an online fallback inline — lends it out, repairs it in
//! place and settles it back: nothing is copied in, and only the flow's
//! difference comes out. The boundary market is one more such state, over
//! the plan's cross edges, built once per plan when first needed: a node's
//! capacity there is the units its home shard offers it, 0 while it is not
//! live (DESIGN.md §13.2). A network's first solve is the same repair, from
//! zero prices, and a solve a deadline cuts keeps its prices for the next.
//!
//! **Posted prices.** With the boundary pass on, a cross edge may buy an
//! intra-shard unit, one batch ahead: each rescue pass ends by posting, at
//! every saturated market node, the weight of the lightest edge its home
//! shard holds there, and reserving a unit at each priced end of the
//! cross edges that outbid their ends (node-disjoint, surplus first). The
//! next batch cedes those units before its shards solve, so the rescue
//! sees them free and takes or leaves them; one it leaves returns the
//! batch after (DESIGN.md §13.2).
//!
//! **Capacity safety.** Shards are node-disjoint ([`ShardPlan`]), so each
//! worker's capacity is managed by exactly one shard state, whose every
//! mutation preserves feasibility — at the capacity it holds after ceding
//! units to the overlay, whose state holds only the units ceded or left
//! free. The union of shard assignments and overlay is therefore feasible
//! on the universe graph by construction; [`Dispatcher::finish`]
//! re-validates the union anyway and counts the violations (the CI smoke
//! test asserts zero).
//!
//! **Degradation isolation.** A poisoned shard ([`Dispatcher::poison_shard`])
//! gets no solve job: it keeps its seed (the churn-repaired assignment),
//! tallied as a `Degraded` solve, and its carried network is not lent — it
//! can never stall the batch or its sibling shards, and the first healed
//! solve re-solves warm from the duals the last healthy one left.
//!
//! **Determinism.** Under [`BudgetMode::Deterministic`] every solve runs
//! unbudgeted, so each shard's result is a pure function of the input
//! events (its carried network sees that shard's solves only, in batch
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
use crate::pool::{self, Pool, ShardJob, ShardOutcome};
use crate::report::ServiceReport;
use crate::service::ServiceConfig;
use crate::shard::{capacity_violations, Route, ShardPlan, UNMAPPED};
use crate::sink::{canonical_order, Action, BatchStats, Decision};
use mbta_core::incremental::IncrementalAssignment;
use mbta_graph::{BipartiteGraph, EdgeId, TaskId, WorkerId};
use mbta_matching::Matching;
use mbta_partition::{migration_diff, validate_rescue, CutTracker, MigrationStats};
use mbta_store::record::{BatchRecord, OnlineRecord, PlanRecord, WalRecord, WeightDelta};
use mbta_telemetry::HistogramFamily;
use mbta_util::{Deadline, SolveCtl};
use std::mem::take;
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
    /// The solver threads of the plan's batches (none in online mode).
    pool: Pool,
    /// Per shard, its state, then — with the boundary pass on — the
    /// boundary market's (pseudo-shard `n_shards`). Each owns its carried
    /// network, the one exact tier of both modes, and is dropped with the
    /// plan.
    pub(crate) states: Vec<IncrementalAssignment<'p>>,
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
    /// [`Commit`] leaves them here, so a step allocates no output — and a
    /// batch's routes, touched shards (and their marks), jobs and outcomes,
    /// empty between batches.
    deltas: Vec<WeightDelta>,
    decisions: Vec<Decision>,
    routes: Vec<Route>,
    touched: Vec<usize>,
    seen: Vec<bool>,
    jobs: Vec<ShardJob>,
    outcomes: Vec<ShardOutcome>,
}

/// When the dispatcher solves, and what only batches need. A dispatcher
/// holds exactly one, so `online × boundary_pass` is unrepresentable past
/// [`Dispatcher::new`].
#[allow(clippy::large_enum_variant)]
pub(crate) enum Mode {
    /// Micro-batches; `Some` with the boundary pass on.
    Batch(Option<Market>),
    /// Decide on every event (see [`crate::online`]).
    Online(OnlineConfig),
}

/// What the boundary market of one plan epoch keeps besides its state —
/// the last of [`Dispatcher::states`], over the plan's cross edges, whose
/// node capacities are the units each node's home shard offers it and
/// whose assignment is the overlay: the units each home has ceded, the
/// asks and what moved since the last pass. Built when first needed — to
/// hold a re-plan's carried overlay, or at the epoch's first batch — and
/// empty until then. Market node `i` is market worker `i` below the worker
/// count and market task `i − workers` above it.
#[derive(Default)]
pub(crate) struct Market {
    /// Per market node, the units its home shard has ceded to the overlay,
    /// and the nodes with any. Between batches a node has ceded the larger
    /// of the overlay's load there before the last one plus the units
    /// reserved there for it, and the overlay's load after it
    /// ([`Dispatcher::trade_units`], [`Dispatcher::hold_overlay`]).
    ceded: Vec<u32>,
    ceding: Vec<usize>,
    /// Per market node, whether a bid [`reserve`](Self::reserve) took ends
    /// there; all false between calls.
    taken: Vec<bool>,
    /// Per market node, what it asks for one unit as the last pass left
    /// it; the nodes whose inputs moved since, once each; and the nodes
    /// that asked a price (a node's entry outlives its price until the
    /// next pass).
    asks: Vec<Ask>,
    stale: Vec<bool>,
    repricing: Vec<usize>,
    priced: Vec<usize>,
    /// The market edges that outbid their asks, with their surpluses (a
    /// buffer, empty between passes), and the market nodes the last pass
    /// reserved a unit of, ceded at the next batch.
    bids: Vec<(f64, EdgeId)>,
    reserved: Vec<usize>,
    /// Market nodes the batch's events name — a liveness move, or a
    /// weight update on an intra-shard edge at the node — refreshed once
    /// the shards have solved.
    moved: Vec<usize>,
    /// Per shard, per shard node (workers, then tasks) its market node,
    /// [`UNMAPPED`] outside the market; and per market node, its home
    /// shard, its node there and its universe capacity.
    local: Vec<Vec<u32>>,
    homes: Vec<[u32; 3]>,
    /// The overlay's ends, a buffer for [`validate_rescue`].
    ends: (Vec<WorkerId>, Vec<TaskId>),
}

/// What a market node asks for one more unit of the overlay, posted at the
/// end of each rescue pass ([`Dispatcher::ask`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ask {
    /// It does not sell: it is not live, or its home shard holds nothing
    /// there.
    Closed,
    /// A unit is free: it costs nothing.
    Free,
    /// It has no free unit: one more costs its home shard the lightest
    /// edge it holds there — the edge ceding a unit drops — at this live
    /// weight.
    Price(f64),
}

impl Ask {
    /// What a unit costs, `None` when it is not for sale.
    fn cost(self) -> Option<f64> {
        match self {
            Ask::Closed => None,
            Ask::Free => Some(0.0),
            Ask::Price(p) => Some(p),
        }
    }

    fn priced(self) -> bool {
        matches!(self, Ask::Price(_))
    }
}

impl Market {
    /// Market node `v`'s home shard, its node there (workers, then tasks)
    /// and its universe capacity.
    fn home(&self, v: usize) -> (usize, usize, u32) {
        let [s, node, full] = self.homes[v];
        (s as usize, node as usize, full)
    }

    /// The units market node `v` is offered by `home`, its home shard's
    /// state: its universe capacity less the home's load there while it is
    /// live, the overlay's own units included, and 0 otherwise.
    fn offered(&self, home: &IncrementalAssignment<'_>, v: usize) -> u32 {
        let (_, node, full) = self.home(v);
        if home.active(node) {
            full - home.load(node)
        } else {
            0
        }
    }

    /// Notes market node `v` for re-pricing at the end of the pass.
    fn mark(&mut self, v: usize) {
        if !self.stale[v] {
            self.stale[v] = true;
            self.repricing.push(v);
        }
    }

    /// Offers every market node at an edge of shard `s` (in `st`) flipped
    /// since the state's last drain what the state now leaves it — flipped
    /// back too: a node's load may have moved in between.
    fn note_changes(
        &mut self,
        s: usize,
        st: &IncrementalAssignment<'_>,
        market: &mut IncrementalAssignment<'_>,
    ) {
        // Taken out for the walk, so `offer` can borrow the market.
        let (g, local) = (st.graph(), std::mem::take(&mut self.local[s]));
        for e in st.flipped() {
            for node in [g.worker_of(e).index(), g.n_workers() + g.task_of(e).index()] {
                if let Some(v) = in_market(local[node]) {
                    self.offer(market, v, self.offered(st, v));
                }
            }
        }
        self.local[s] = local;
    }

    /// Moves market node `v`'s capacity in the market state to the units
    /// it is offered, `free`: the state drops its lightest overlay edges
    /// there if it is now over, or fills the room it gained. Its home's
    /// load or liveness may have moved either way, so it is re-priced.
    fn offer(&mut self, market: &mut IncrementalAssignment<'_>, v: usize, free: u32) {
        self.mark(v);
        market.set_capacity(v, free);
    }

    /// Sets market node `v`'s home capacity to its universe capacity less
    /// the units it has ceded; returns the home shard. The state drops its
    /// lightest edges there if it is now over, or fills the room it gained,
    /// and writes the node's capacity to its carried network.
    fn set_home(&self, shards: &mut [IncrementalAssignment<'_>], v: usize) -> usize {
        let (s, node, full) = self.home(v);
        shards[s].set_capacity(node, full - self.ceded[v]);
        s
    }

    /// Reserves the units the next batch cedes, at the asks posted: every
    /// cross edge the overlay (`market`'s assignment) does not hold, with
    /// an end that asks a price, whose live weight exceeds what its two
    /// ends ask, is a bid of that surplus. Bids are taken node-disjoint, by
    /// surplus descending (ties by edge id), and each taken bid reserves a
    /// unit at every end that asks a price. Only the priced nodes' edges
    /// are walked. Returns the units reserved.
    fn reserve(&mut self, market: &IncrementalAssignment<'_>) -> u64 {
        let asks = &self.asks;
        self.priced.retain(|&v| asks[v].priced());
        let (g, bids) = (market.graph(), &mut self.bids);
        let mut bid = |v: usize, e: EdgeId| {
            let [w, t] = ends(g, e);
            // An edge priced at both ends is bid from its worker.
            if market.edge_assigned(e) || (v == t && asks[w].priced()) {
                return;
            }
            let (Some(pw), Some(pt)) = (asks[w].cost(), asks[t].cost()) else {
                return;
            };
            let weight = market.weight_of(e);
            if weight > pw + pt {
                bids.push((weight - (pw + pt), e));
            }
        };
        for &v in &self.priced {
            let Ask::Price(p) = asks[v] else { continue };
            let edges: &mut dyn Iterator<Item = EdgeId> = match v.checked_sub(g.n_workers()) {
                None => &mut g.worker_edges(WorkerId::from_index(v)),
                Some(t) => &mut g.task_edges(TaskId::from_index(t)),
            };
            // Every bid outbids `v`'s own price first.
            for e in edges.filter(|&e| market.weight_of(e) > p) {
                bid(v, e);
            }
        }
        self.bids
            .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut units = 0;
        for &(_, e) in &self.bids {
            let ends = ends(g, e);
            if ends.iter().any(|&v| self.taken[v]) {
                continue;
            }
            for v in ends {
                self.taken[v] = true;
                if self.asks[v].priced() {
                    self.reserved.push(v);
                    units += 1;
                }
            }
        }
        for (_, e) in self.bids.drain(..) {
            for v in ends(g, e) {
                self.taken[v] = false;
            }
        }
        units
    }
}

/// Market edge `e`'s two market nodes in `g`, the boundary market's graph.
fn ends(g: &BipartiteGraph, e: EdgeId) -> [usize; 2] {
    [g.worker_of(e).index(), g.n_workers() + g.task_of(e).index()]
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
            None => Mode::Batch(cfg.boundary_pass.then(Market::default)),
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

    /// Per market — each shard, then, with the boundary pass on, the
    /// overlay as pseudo-shard `n_shards`, the shard id its decisions carry
    /// — the sorted universe edge ids currently assigned. What a snapshot
    /// and a plan record hold.
    pub fn shard_sets(&self) -> Vec<Vec<u32>> {
        let overlay = matches!(self.mode, Mode::Batch(Some(_)));
        let mut sets: Vec<Vec<u32>> = vec![Vec::new(); self.plan.n_shards() + usize::from(overlay)];
        for (s, e) in self.assigned() {
            sets[s].push(e.raw());
        }
        for edges in &mut sets {
            edges.sort_unstable();
        }
        sets
    }

    /// Assigned edges, the rescue overlay's included. O(markets).
    pub fn assignments(&self) -> usize {
        self.states.iter().map(|s| s.len()).sum()
    }

    /// Live weight of the assigned edges, the rescue overlay's included.
    /// O(markets).
    pub fn value(&self) -> f64 {
        self.states.iter().map(|s| s.total_weight()).sum()
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
        let Mode::Batch(market) = &mut self.mode else {
            panic!("a batch reached an online dispatcher")
        };
        // Taken out for the step, so it and the market states can be
        // borrowed side by side.
        let mut market = market.take();
        let commit = self.dispatch_batch(batch, market.as_mut(), tally);
        self.mode = Mode::Batch(market);
        commit
    }

    /// Every assigned edge as `(market, universe edge)`: each shard's,
    /// then the overlay's as pseudo-shard `n_shards`.
    fn assigned(&self) -> impl Iterator<Item = (usize, EdgeId)> + use<'_, 'p> {
        let (plan, universe) = (self.plan, self.universe);
        self.states.iter().enumerate().flat_map(move |(s, st)| {
            let back = plan.edge_back(universe, s);
            st.assigned_edges().map(move |e| (s, back[e.index()]))
        })
    }

    /// The one place decisions are built, for a batch's shards and
    /// overlay, an online event and a closing solve alike: drains each of
    /// `shards`' change sets (`n_shards`: the boundary market's) into the
    /// pooled decision buffer, in universe ids and canonical order.
    fn shard_decisions(&mut self, shards: &[usize]) {
        let (universe, live, out) = (self.universe, &self.live_weights, &mut self.decisions);
        out.clear();
        for &s in shards {
            let back = self.plan.edge_back(universe, s);
            self.states[s].drain_changes(|local, assigned| {
                let (edge, action) = (back[local.index()], Action::from(assigned));
                out.push(decision(universe, live, s as u32, edge, action));
            });
        }
        canonical_order(out);
    }

    /// Online mode, as the plan ends (re-plan or finish): folds the
    /// carried networks' lifetime counters into the report's online-only
    /// totals.
    fn fold_warm_stats(&self, tally: &mut ServiceReport) {
        if let Mode::Online(_) = self.mode {
            for stats in self.states.iter().map(IncrementalAssignment::solve_stats) {
                tally.online_warm_solves += stats.solves;
                tally.online_warm_hits += stats.warm_hits;
            }
        }
    }

    /// Lands a benefit update on the universe weights and the cut tracker
    /// (`cross`: the edge spans shards, so no shard state holds it, and
    /// it lands on the boundary market's state, if there is one).
    fn set_live_weight(&mut self, cross: bool, edge: u32, weight: f64) {
        let old = std::mem::replace(&mut self.live_weights[edge as usize], weight);
        self.cut.update(cross, old, weight);
        let (plan, universe) = (self.plan, self.universe);
        if let (true, Some(st)) = (cross, self.states.get_mut(plan.n_shards())) {
            let back = &plan.boundary(universe).edge_back;
            let i = back
                .binary_search(&EdgeId::new(edge))
                .expect("a cross edge");
            st.set_weight(EdgeId::from_index(i), weight);
        }
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
        market: Option<&mut Market>,
        tally: &mut ServiceReport,
    ) -> Commit {
        // Pass 1: route every event, collecting the touched-shard set.
        let (mut touched, mut routes) = (take(&mut self.touched), take(&mut self.routes));
        let seen = &mut self.seen;
        seen.resize(self.plan.n_shards(), false);
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
                // feed the rescue market; without it they decide nothing.
                Route::CrossBenefit if market.is_none() => tally.cross_benefit_drops += 1,
                Route::CrossBenefit => {}
            }
            routes.push(r);
        }
        for &s in &touched {
            seen[s] = false;
        }
        touched.sort_unstable();
        // The helpers wake while the events are applied and the jobs built.
        self.pool.wake(touched.len());
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
                Route::CrossBenefit => true,
                Route::Invalid => continue,
            };
            if !cross || market.is_some() {
                tally.events_processed += 1;
            }
            if let ServiceEvent::BenefitUpdate { edge, weight } = a.event {
                self.deltas.push(WeightDelta { edge, weight });
                // Cross-shard edges live outside every shard state; the
                // update lands on the universe weights directly, for the
                // next plan, on the boundary market's state, if any, and
                // in the record.
                if cross {
                    self.set_live_weight(true, edge, weight);
                }
            }
        }

        // Pass 3: re-solve each touched shard's active sub-market via the
        // worker pool, on the shard's carried network, which holds the
        // repaired assignment — the solve pays for what this batch's events
        // moved, not for a network build and a cold solve. The batch budget
        // is *shared*: one absolute deadline for every shard solve (see the
        // module docs), so sequential runs carry unused budget forward and
        // concurrent runs race the same instant. With the boundary pass on,
        // units the overlay let go last batch go back to their shards
        // first, and every shard that gets one back is solved too.
        let mut market = market;
        if let Some(market) = market.as_deref_mut() {
            if self.states.len() == self.plan.n_shards() {
                *market = self.build_market(&[]);
            }
            self.trade_units(market, &mut touched);
        }
        let ctl = self.budget.ctl(|ms| ms);
        let solve_start = Instant::now();
        let mut stats = BatchStats::new(batch.reason, batch.events.len(), touched.len());
        stats.invalid_events = invalid;
        self.solve_shards(&touched, ctl, market.as_deref_mut(), &mut stats, tally);
        stats.solve_ms = solve_start.elapsed().as_secs_f64() * 1e3;

        // Pass 4: the boundary rescue, then the batch's decisions — what
        // the touched shards' change sets hold, then the overlay's
        // (pseudo-shard `n_shards`).
        if let Some(market) = market {
            self.boundary_rescue(market, (&batch.events[..], &routes[..]), tally);
            touched.push(self.plan.n_shards());
        }
        self.shard_decisions(&touched);
        let key = |d: &Decision| (d.shard, d.edge, d.action);
        debug_assert!(self.decisions.is_sorted_by_key(key));
        touched.clear();
        routes.clear();
        (self.touched, self.routes) = (touched, routes);

        let time = |a: Option<&Arrival>| a.map_or(0.0, |a| a.time);
        let head = Head::Batch(time(batch.events.first()), time(batch.events.last()));
        Commit { stats, head }
    }

    /// Solves `shards` (ascending, none degenerate) through the pool under
    /// `ctl` and adopts what improves. A poisoned shard keeps its seed, no
    /// job and no network lent; its state keeps writing its changes to its
    /// network for the first healed job. With the boundary `market`, the
    /// market is offered what each shard changed.
    fn solve_shards(
        &mut self,
        shards: &[usize],
        ctl: SolveCtl,
        mut market: Option<&mut Market>,
        stats: &mut BatchStats,
        tally: &mut ServiceReport,
    ) {
        // Jobs are built in ascending shard order; the pool runs them
        // largest-first, this thread taking the first, and merges the
        // results back in shard order.
        let plan = self.plan;
        let mut poisoned = Vec::new();
        for &s in shards.iter().filter(|&&s| !plan.degenerate(s)) {
            if self.poisoned[s] {
                tally.tally_solve(stats, s, false);
                poisoned.push(s);
                continue;
            }
            let (graph, state) = (&plan.shards[s].graph, &mut self.states[s]);
            self.jobs.push(ShardJob::new(s, graph, state, ctl.clone()));
        }
        let mut outcomes = take(&mut self.outcomes);
        self.pool
            .solve(&mut self.jobs, &mut outcomes, &self.pool_busy_ms);

        // Merge: outcomes arrive sorted by shard index, so adoption order
        // (and therefore the decision stream) is independent of which
        // thread finished first.
        let n = plan.n_shards();
        for outcome in outcomes.drain(..) {
            let s = outcome.shard;
            tally.tally_solve(stats, s, outcome.stats.completed);
            self.shard_solve_ms.observe(s, outcome.solve_ms);
            self.settle(outcome, tally);
            if let Some(m) = market.as_deref_mut() {
                let (shards, boundary) = self.states.split_at_mut(n);
                m.note_changes(s, &shards[s], &mut boundary[0]);
            }
        }
        self.outcomes = outcomes;
        if let Some(m) = market {
            let (shards, boundary) = self.states.split_at_mut(n);
            for s in poisoned {
                m.note_changes(s, &shards[s], &mut boundary[0]);
            }
        }
    }

    /// Moves units between the shards and the overlay before the shards
    /// solve: hands every unit the overlay let go at the last batch back
    /// to its home shard — each node's ceded units drop to the overlay's
    /// load there — then cedes one unit at every node the last pass
    /// reserved, and adds each shard either moved to `touched`
    /// (ascending), so it is solved at its new capacities this batch.
    fn trade_units(&mut self, market: &mut Market, touched: &mut Vec<usize>) {
        let before = touched.len();
        self.return_units(market, touched);
        for i in 0..market.reserved.len() {
            let v = market.reserved[i];
            if market.ceded[v] == 0 {
                market.ceding.push(v);
            }
            market.ceded[v] += 1;
            touched.push(market.set_home(&mut self.states, v));
        }
        market.reserved.clear();
        if touched.len() > before {
            touched.sort_unstable();
            touched.dedup();
        }
    }

    /// Hands every unit the overlay let go at the last batch back to its
    /// home shard, and pushes each shard that got one back onto `touched`.
    fn return_units(&mut self, market: &mut Market, touched: &mut Vec<usize>) {
        let n = self.plan.n_shards();
        for i in 0..market.ceding.len() {
            let v = market.ceding[i];
            let load = self.states[n].load(v);
            if market.ceded[v] > load {
                market.ceded[v] = load;
                touched.push(market.set_home(&mut self.states, v));
            }
        }
        let ceded = &market.ceded;
        market.ceding.retain(|&v| ceded[v] > 0);
    }

    /// The boundary rescue (DESIGN.md §13.2): moves the boundary market's
    /// state to where the batch left it — each node at the units its home
    /// shard leaves it, the overlay's own units included, since its shard
    /// has ceded them — re-solves it like a shard, has each shard cede
    /// every unit the overlay now uses, posts the market's asks and
    /// reserves the units the next batch cedes ([`Market::reserve`]). The
    /// overlay's decisions are its change set's, drained with the shards'.
    ///
    /// What a batch changes is the units the market's nodes are offered,
    /// moved from the nodes the batch and the shard solves touched, and
    /// every pass of the solve walks the open market only (DESIGN.md
    /// §13.2).
    ///
    /// Budget: a fixed quarter-slice of the batch budget (the rescue
    /// market is tiny relative to the shard solves and must not starve
    /// them), none in deterministic mode; a cut solve leaves the overlay
    /// as the batch's repairs left it.
    ///
    /// Determinism: market ids follow universe ids, the market state moves
    /// in a fixed order, and the solve runs inline — so under
    /// [`BudgetMode::Deterministic`] the overlay is a pure function of the
    /// event history at any thread count.
    fn boundary_rescue(
        &mut self,
        market: &mut Market,
        batch: (&[Arrival], &[Route]),
        tally: &mut ServiceReport,
    ) {
        let _span = mbta_telemetry::span!("mbta_partition_rescue");
        self.follow_batch(market, batch);
        self.refresh_market(market);
        debug_assert!(self.is_current(market), "the market fell behind its batch");
        tally.rescue_solves += 1;
        mbta_telemetry::counter_add!("mbta_partition_rescue_solves_total", 1);
        let (ctl, n) = (self.budget.ctl(|ms| ms / 4 + 1), self.plan.n_shards());
        let st = &mut self.states[n];
        let mut net = st.lend_net();
        let stats = mbta_core::warm::resolve(&mut net, &ctl);
        st.settle(net, &stats);
        self.hold_overlay(market);
        self.post_asks(market);
        let units = market.reserve(&self.states[n]);
        tally.reserved_units += units;
        mbta_telemetry::counter_add!("mbta_partition_reserved_units_total", units);
        self.audit_overlay(market, tally);
    }

    /// Re-checks that the overlay fits what the shards leave, and counts
    /// the units it newly assigns and its weight.
    fn audit_overlay(&mut self, market: &mut Market, tally: &mut ServiceReport) {
        let (universe, plan) = (self.universe, self.plan);
        let (shards, boundary) = self.states.split_at_mut(plan.n_shards());
        let (homes, st) = (Homes(universe, plan, shards), &mut boundary[0]);
        let is_cross = |e: EdgeId| plan.edge_shard[e.index()] == UNMAPPED;
        let (w_res, t_res) = (|w| homes.worker_residual(w), |t| homes.task_residual(t));
        let back = &plan.boundary(universe).edge_back;
        let overlay = st.assigned_edges().map(|e| back[e.index()]);
        let ends = &mut market.ends;
        tally.capacity_violations +=
            validate_rescue(universe, is_cross, w_res, t_res, overlay, ends);
        tally.rescue_assigns += st.changes().filter(|&(_, assigned)| assigned).count() as u64;
        mbta_telemetry::gauge_set!("mbta_partition_rescued_weight", st.total_weight());
    }

    /// Re-prices every market node whose inputs moved since the last pass
    /// — its home's load there (a flip in the home's change set) or
    /// liveness (both through [`Market::offer`]), the overlay's load there
    /// ([`Dispatcher::hold_overlay`]), or the live weight of an edge its
    /// home holds there ([`Dispatcher::follow_batch`]) — and lists the
    /// nodes that now ask a price. Debug builds compare every node's ask
    /// with a fresh one.
    fn post_asks(&self, market: &mut Market) {
        for i in 0..market.repricing.len() {
            let v = market.repricing[i];
            market.stale[v] = false;
            let ask = self.ask(market, v);
            if ask.priced() && !market.asks[v].priced() {
                market.priced.push(v);
            }
            market.asks[v] = ask;
        }
        market.repricing.clear();
        debug_assert!(
            (0..market.asks.len()).all(|v| market.asks[v] == self.ask(market, v)),
            "a market node's ask fell behind its inputs"
        );
    }

    /// What market node `v` asks for one more unit of the overlay, as its
    /// home shard and the overlay stand ([`Ask`]). It has no free unit when
    /// its home's load and the overlay's use up its universe capacity; the
    /// price is then the live weight of the lightest edge its home holds
    /// there, which is what ceding a unit drops, so it bounds the home's
    /// loss from above.
    fn ask(&self, market: &Market, v: usize) -> Ask {
        let (s, node, full) = market.home(v);
        let (st, overlay) = (&self.states[s], &self.states[self.plan.n_shards()]);
        if !st.active(node) {
            return Ask::Closed;
        }
        if st.load(node) + overlay.load(v) < full {
            return Ask::Free;
        }
        let g = st.graph();
        let edges: &mut dyn Iterator<Item = EdgeId> = match node.checked_sub(g.n_workers()) {
            None => &mut g.worker_edges(WorkerId::from_index(node)),
            Some(t) => &mut g.task_edges(TaskId::from_index(t)),
        };
        let held = edges
            .filter(|&e| st.edge_assigned(e))
            .map(|e| st.weight_of(e));
        held.min_by(f64::total_cmp).map_or(Ask::Closed, Ask::Price)
    }

    /// Cedes to the overlay every unit it now uses beyond what its node
    /// has ceded, at the ends of every market edge flipped since the
    /// market state's last drain, and notes those ends for re-pricing: the
    /// home shard's capacity there drops to its universe capacity less the
    /// overlay's load, which the shard's load already fits (the market
    /// offered only what it left), so its assignment — and its optimum —
    /// stand.
    fn hold_overlay(&mut self, market: &mut Market) {
        let (shards, boundary) = self.states.split_at_mut(self.plan.n_shards());
        let (st, mut gained) = (&boundary[0], 0);
        for e in st.flipped() {
            for v in ends(st.graph(), e) {
                market.mark(v);
                let load = st.load(v);
                if load <= market.ceded[v] {
                    continue;
                }
                if market.ceded[v] == 0 {
                    market.ceding.push(v);
                }
                gained += u64::from(load - market.ceded[v]);
                market.ceded[v] = load;
                market.set_home(shards, v);
            }
        }
        mbta_telemetry::counter_add!("mbta_partition_ceded_units_total", gained);
    }

    /// Offers every market node the batch's events named the units its
    /// home shard now leaves it — the shard solves offered the rest as
    /// they were adopted ([`Market::note_changes`]).
    fn refresh_market(&mut self, market: &mut Market) {
        let (shards, boundary) = self.states.split_at_mut(self.plan.n_shards());
        for i in 0..market.moved.len() {
            let v = market.moved[i];
            let free = market.offered(&shards[market.home(v).0], v);
            market.offer(&mut boundary[0], v, free);
        }
        market.moved.clear();
    }

    /// Builds the plan's boundary market as the shards stand — every cross
    /// edge at its live weight, every node offered what its home shard
    /// leaves — as the last state, holding the carried `overlay` (ascending
    /// universe ids: a re-plan's, or none at an epoch's first batch), whose
    /// units its homes cede at once. Every cross edge whose ends are both
    /// live is marked seen.
    fn build_market(&mut self, overlay: &[EdgeId]) -> Market {
        let (universe, plan) = (self.universe, self.plan);
        let sub = plan.boundary(universe);
        let homes = Homes(universe, plan, &self.states);
        for &e in &sub.edge_back {
            homes.mark_seen(e, &mut self.cross_seen);
        }
        let worker_home = sub.worker_back.iter().map(|w| {
            let (s, node) = (plan.worker_shard[w.index()], plan.worker_local[w.index()]);
            [s, node, universe.capacity(*w)]
        });
        let task_home = sub.task_back.iter().map(|t| {
            let s = plan.task_shard[t.index()];
            let n_w = plan.shards[s as usize].graph.n_workers() as u32;
            [s, n_w + plan.task_local[t.index()], universe.demand(*t)]
        });
        let homes: Vec<[u32; 3]> = worker_home.chain(task_home).collect();
        let mut local: Vec<Vec<u32>> = plan
            .shards
            .iter()
            .map(|sh| vec![UNMAPPED; sh.graph.n_workers() + sh.graph.n_tasks()])
            .collect();
        for (v, &[s, node, _]) in homes.iter().enumerate() {
            local[s as usize][node as usize] = v as u32;
        }
        let n = homes.len();
        let mut market = Market {
            ceded: vec![0; n],
            taken: vec![false; n],
            // Every node is priced at the first pass.
            asks: vec![Ask::Closed; n],
            stale: vec![true; n],
            repricing: (0..n).collect(),
            local,
            homes,
            ..Market::default()
        };
        let weights = sub.project_weights(&self.live_weights);
        let mut st = IncrementalAssignment::from_matching(&sub.graph, weights, &Matching::empty())
            .expect("an empty seed is always feasible");
        for v in 0..n {
            st.set_capacity(v, market.offered(&self.states[market.home(v).0], v));
        }
        let local_edge = |e: &EdgeId| EdgeId::from_index(sub.edge_back.binary_search(e).unwrap());
        let edges = overlay.iter().map(local_edge).collect();
        st.reseed(&Matching { edges })
            .expect("the carried overlay fits what its shards leave");
        self.states.push(st);
        self.hold_overlay(&mut market);
        self.states[plan.n_shards()].drain_changes(|_, _| {});
        market
    }

    /// Whether the boundary market's state is what the shards and the live
    /// weights make it — each node's capacity the units its home offers
    /// ([`Market::offered`]), each edge at its live weight — with every
    /// cross edge whose ends are both live marked seen. Allocates nothing.
    fn is_current(&self, market: &Market) -> bool {
        let (universe, plan) = (self.universe, self.plan);
        let (sub, st) = (plan.boundary(universe), &self.states[plan.n_shards()]);
        let homes = Homes(universe, plan, &self.states);
        let offered = |v: usize| market.offered(&self.states[market.home(v).0], v);
        let units = (0..market.homes.len()).all(|v| st.capacity(v) == offered(v));
        let edges = sub.edge_back.iter().enumerate().all(|(i, &e)| {
            let live =
                homes.worker_live(universe.worker_of(e)) && homes.task_live(universe.task_of(e));
            let weight = st.weight_of(EdgeId::from_index(i)) == self.live_weights[e.index()];
            weight && (self.cross_seen[e.index()] || !live)
        });
        units && edges
    }

    /// Moves the market to where this batch's events left it, and notes the
    /// market nodes they name as moved. A node's offered units change only
    /// with its home's load or capacity — a change its home shard's change
    /// set names, offered as the shard is solved — or with its liveness,
    /// which one of its events names; and an edge becomes seen only when an
    /// end of it comes live. (A cross-shard benefit update lands on the
    /// market's state as it is applied.) Everything else is as the last
    /// pass left it.
    ///
    /// A cross edge is "seen" by the rescue market once both endpoints are
    /// concurrently live — even with zero residual. Exhausted residual
    /// means the capacity went to intra-shard assignments, which is
    /// contention, not partition loss; `effective_retained` must charge
    /// the partition only for weight it made unreachable.
    fn follow_batch(&mut self, market: &mut Market, (events, routes): (&[Arrival], &[Route])) {
        let (universe, plan) = (self.universe, self.plan);
        let (homes, sub) = (Homes(universe, plan, &self.states), plan.boundary(universe));
        let (seen, moved, local) = (&mut self.cross_seen, &mut market.moved, &market.local);
        let node = |s: u32, i: u32| in_market(local[s as usize][i as usize]);
        for (a, r) in events.iter().zip(routes) {
            let v = match (a.event, r) {
                (_, Route::Invalid) => continue,
                (ServiceEvent::WorkerJoin(w) | ServiceEvent::WorkerLeave(w), _) => {
                    node(plan.worker_shard[w as usize], plan.worker_local[w as usize])
                }
                (
                    ServiceEvent::TaskPost(t)
                    | ServiceEvent::TaskCancel(t)
                    | ServiceEvent::TaskComplete(t),
                    _,
                ) => {
                    let s = plan.task_shard[t as usize];
                    let n_w = plan.shards[s as usize].graph.n_workers() as u32;
                    node(s, n_w + plan.task_local[t as usize])
                }
                (ServiceEvent::BenefitUpdate { .. }, Route::CrossBenefit) => continue,
                // An intra-shard edge's weight moves its ends' asks.
                (ServiceEvent::BenefitUpdate { edge, .. }, _) => {
                    let e = EdgeId::new(edge);
                    let (w, t) = (universe.worker_of(e).index(), universe.task_of(e).index());
                    moved.extend(node(plan.worker_shard[w], plan.worker_local[w]));
                    let s = plan.task_shard[t];
                    let n_w = plan.shards[s as usize].graph.n_workers() as u32;
                    node(s, n_w + plan.task_local[t])
                }
            };
            let Some(v) = v else { continue };
            moved.push(v);
            // A liveness event: a node that came live marks its edges seen.
            if let ServiceEvent::WorkerJoin(_) | ServiceEvent::TaskPost(_) = a.event {
                let g = &sub.graph;
                let edges: &mut dyn Iterator<Item = EdgeId> = match v.checked_sub(g.n_workers()) {
                    None => &mut g.worker_edges(WorkerId::from_index(v)),
                    Some(t) => &mut g.task_edges(TaskId::from_index(t)),
                };
                for e in edges {
                    homes.mark_seen(sub.edge_back[e.index()], seen);
                }
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
            Route::CrossBenefit => return Some(self.cross_event(a, tally)),
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

    /// Online mode: a cross-shard benefit update. The rescue overlay is a
    /// batch construct, so it decides nothing; its weight still lands — the
    /// next plan may make the edge intra-shard — and is committed, so
    /// recovery folds it.
    #[cold]
    fn cross_event(&mut self, a: Arrival, tally: &mut ServiceReport) -> Commit {
        tally.cross_benefit_drops += 1;
        let ServiceEvent::BenefitUpdate { edge, weight } = a.event else {
            unreachable!("only a benefit update routes across shards")
        };
        self.set_live_weight(true, edge, weight);
        self.deltas.clear();
        self.deltas.push(WeightDelta { edge, weight });
        self.decisions.clear();
        Commit {
            stats: BatchStats::new(FlushReason::Online, 1, 0),
            head: Head::Online(a.time, 0),
        }
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

    /// Warm-started exact re-solve of shard `s` on this thread (the caller
    /// has ruled out poisoned and degenerate shards): the shard's carried
    /// network, which holds its assignment, is repaired in place around
    /// it, and the result adopted when it improves on the assignment.
    fn warm_solve_shard(&mut self, s: usize, ctl: SolveCtl, tally: &mut ServiceReport) {
        let (graph, state) = (&self.plan.shards[s].graph, &mut self.states[s]);
        let job = ShardJob::new(s, graph, state, ctl);
        self.settle(pool::run_job(job), tally);
    }

    /// Hands a shard solve's network back to its state, which adopts the
    /// flow when it improves on the assignment
    /// ([`IncrementalAssignment::settle`]).
    fn settle(&mut self, outcome: ShardOutcome, tally: &mut ServiceReport) {
        if self.states[outcome.shard].settle(outcome.net, &outcome.stats) {
            tally.reseeds += 1;
            mbta_telemetry::counter_add!("mbta_service_reseeds_total", 1);
        }
    }

    /// Tears the dispatcher down to the plan-free state a successor needs
    /// to continue under a **new** plan ([`Dispatcher::replan`]): live
    /// weights, seen and poison marks, the mode (every market state is
    /// bound to the old plan and dropped, and the next plan builds its own
    /// boundary market), node liveness, the assigned-edge union — the
    /// overlay's as pseudo-shard `n_shards` — and the old node→shard maps
    /// for migration accounting.
    pub fn detach(self, tally: &mut ServiceReport) -> Detached {
        self.fold_warm_stats(tally);
        let (universe, plan) = (self.universe, self.plan);
        let homes = Homes(universe, plan, &self.states);
        let active_workers = universe.workers().map(|w| homes.worker_live(w)).collect();
        let active_tasks = universe.tasks().map(|t| homes.task_live(t)).collect();
        let mut assigned: Vec<(EdgeId, u32)> =
            self.assigned().map(|(s, e)| (e, s as u32)).collect();
        assigned.sort_unstable_by_key(|&(e, _)| e);
        Detached {
            budget: self.budget,
            threads: self.threads,
            live_weights: self.live_weights,
            cross_seen: self.cross_seen,
            poisoned: self.poisoned,
            mode: self.mode,
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
            pool: Pool::new(detached.threads),
            states,
            cut,
            live_weights: detached.live_weights,
            cross_seen: detached.cross_seen,
            poisoned: detached.poisoned,
            mode: detached.mode,
            acc: vec![0.0; n],
            last_time: detached.last_time,
            deltas: Vec::new(),
            decisions: Vec::new(),
            routes: Vec::new(),
            touched: Vec::new(),
            seen: Vec::new(),
            jobs: Vec::new(),
            outcomes: Vec::new(),
        };
        // The boundary market is built when first needed: here to hold a
        // carried overlay, else at the epoch's first batch.
        if let (Mode::Batch(Some(_)), false) = (&d.mode, overlay.is_empty()) {
            d.mode = Mode::Batch(Some(d.build_market(&overlay)));
        }
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

    /// The end of the run: folds the online networks' counters into `tally`
    /// and fills in its end-of-plan figures — the assignment, the
    /// re-validated capacity of the union, and the sharding's live cost.
    pub fn finish(self, tally: &mut ServiceReport) {
        self.fold_warm_stats(tally);
        // Cross-shard reconciliation: the union of per-shard assignments
        // and the rescue overlay, mapped back to universe ids, must be
        // feasible on the universe graph. Shards are node-disjoint and the
        // boundary market's capacities are what the shards leave, so this
        // holds by construction; re-validate anyway, on top of the
        // per-batch rescue validations already tallied.
        let (universe, plan) = (self.universe, self.plan);
        let union = self.assigned().map(|(_, e)| e.raw());
        tally.capacity_violations += capacity_violations(universe, union);

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
        let overlay = self.states.get(plan.n_shards());
        tally.rescued_weight = overlay.map_or(0.0, IncrementalAssignment::total_weight);
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

/// A local id as an index, `None` for [`UNMAPPED`].
fn in_market(i: u32) -> Option<usize> {
    (i != UNMAPPED).then_some(i as usize)
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
