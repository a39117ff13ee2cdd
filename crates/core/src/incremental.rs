//! Incremental assignment maintenance under market churn.
//!
//! Real platforms never solve one static instance: workers log off, tasks
//! get cancelled, new ones appear. Re-running the exact solver on every
//! event is wasteful — the optimal response to one departure touches only a
//! small neighbourhood. [`IncrementalAssignment`] maintains a feasible
//! assignment under activate/deactivate events with greedy local repair:
//!
//! * **deactivate worker/task** — its assigned edges are dropped, and every
//!   affected counterpart greedily refills its freed capacity from active,
//!   unassigned neighbours;
//! * **activate worker/task** — the node greedily takes its best available
//!   edges.
//!
//! Repair is O(deg · log deg) per event and allocates nothing once its two
//! pooled edge buffers have grown. Experiment F14 measures the quality gap
//! between this and a from-scratch re-solve across a churn trace (the gap
//! stays small because greedy repair is itself locally ½-optimal, and
//! churn rarely moves the global structure).
//!
//! **Change set.** Every assignment change, whatever its funnel (repair,
//! eviction, exchange, [`reseed`](IncrementalAssignment::reseed)), lands
//! in one always-on change set: an edge is recorded once, at its first
//! flip since the last drain, with its assignment at that moment.
//! [`drain_changes`](IncrementalAssignment::drain_changes) yields the
//! edges whose assignment now differs — the net effect of everything since
//! the previous drain — and [`changes`](IncrementalAssignment::changes)
//! reads the same without resetting. Holding each edge at most once, the
//! set stays bounded by the edge count even for callers that never drain.
//!
//! **Carried network.** A serving market — a shard, or the boundary market
//! over a plan's cut — is re-solved exactly, again and again, on a min-cost
//! flow network it keeps ([`mbta_matching::warm::WarmNet`]), and the state
//! owns that network from construction: every edge costed from its weight,
//! every node at its *effective capacity* (its held capacity while active,
//! 0 while not: a node out of the market is closed, not priced out) and the
//! assignment as its flow. Every change is written to it as it happens,
//! each in O(1): a flip through the two funnels every assignment change
//! goes through, a weight through [`set_weight`](IncrementalAssignment::set_weight),
//! a moved effective capacity through the liveness and capacity calls. So
//! the flow on the network *is* the assignment, and each node's load and
//! room are read off it: greedy repair fills a node while its hub arc has
//! room ([`check_invariants`](IncrementalAssignment::check_invariants)
//! asserts the flow, the units and the loads). A solve borrows the network
//! — owned, so it may run on another thread; the state holds `None` while
//! it is out — repairs it in place ([`crate::warm::resolve`]) and hands it
//! back to [`settle`](IncrementalAssignment::settle), which reads the flow
//! the repair left into the change set when it improves on the
//! assignment, and otherwise writes the assignment back as the flow.
//! Nothing is copied into a solve, and nothing but the flow's difference
//! out of it. The state must not change, nor its loads be read, while its
//! network is lent.

use crate::warm::WarmSolverStats;
use mbta_graph::{BipartiteGraph, EdgeId, TaskId, WorkerId};
use mbta_matching::warm::{WarmNet, WarmStats};
use mbta_matching::{Infeasibility, Matching};
use std::fmt;

/// Why a seed matching was rejected by
/// [`IncrementalAssignment::from_matching`].
#[derive(Debug, Clone, PartialEq)]
pub enum SeedRejection {
    /// The weight slice does not cover every edge of the graph.
    WeightLenMismatch {
        /// Number of edges in the graph.
        expected: usize,
        /// Length of the supplied weight slice.
        got: usize,
    },
    /// The seed matching violates graph feasibility.
    Infeasible(Infeasibility),
    /// A seeded edge carries a non-finite weight, which would poison the
    /// maintained running total.
    NonFiniteWeight {
        /// The offending edge (raw id).
        edge: u32,
        /// Its weight.
        weight: f64,
    },
    /// A seeded edge touches a node that is currently inactive (only
    /// possible through [`IncrementalAssignment::reseed`], which keeps the
    /// activity flags of the running state).
    InactiveEndpoint {
        /// The offending edge (raw id).
        edge: u32,
    },
}

impl fmt::Display for SeedRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SeedRejection::WeightLenMismatch { expected, got } => {
                write!(f, "weight slice length {got} != edge count {expected}")
            }
            SeedRejection::Infeasible(ref e) => write!(f, "infeasible seed matching: {e}"),
            SeedRejection::NonFiniteWeight { edge, weight } => {
                write!(f, "seeded edge {edge} has non-finite weight {weight}")
            }
            SeedRejection::InactiveEndpoint { edge } => {
                write!(f, "seeded edge {edge} touches an inactive node")
            }
        }
    }
}

impl std::error::Error for SeedRejection {}

impl From<Infeasibility> for SeedRejection {
    fn from(e: Infeasibility) -> Self {
        SeedRejection::Infeasible(e)
    }
}

/// A feasible assignment maintained under node activation churn.
#[derive(Debug, Clone)]
pub struct IncrementalAssignment<'g> {
    g: &'g BipartiteGraph,
    weights: Vec<f64>,
    in_matching: Vec<bool>,
    /// Per node (workers, then tasks), its capacity, at most the graph's
    /// — what a boundary shard keeps after ceding units to the rescue
    /// overlay, or the units a boundary-market node is offered
    /// ([`set_capacity`](Self::set_capacity)) — and whether it is active.
    caps: Vec<u32>,
    active: Vec<bool>,
    total: f64,
    /// Assigned edges, kept by `insert` and `remove`.
    assigned: usize,
    /// The change set: each edge flipped since the last drain, once, with
    /// whether it was assigned before that first flip (sized for every
    /// edge). `dirty` marks the recorded edges.
    changed: Vec<(EdgeId, bool)>,
    dirty: Vec<bool>,
    /// The carried network, holding the assignment as its flow (`None`
    /// while it is lent), and the tallies of the solves it came back from.
    net: Option<WarmNet>,
    solves: WarmSolverStats,
    /// Pooled buffers, empty between calls and sized for every edge, so
    /// no call grows them: the edges a deactivation or a lowered capacity
    /// drops (a reseed's and a settled solve's moved ones), and a repair's
    /// candidates (a reseed's sorted seed, a settled solve's added edges).
    dropped: Vec<EdgeId>,
    candidates: Vec<EdgeId>,
}

impl<'g> IncrementalAssignment<'g> {
    /// Starts with every node active and a greedy initial assignment.
    pub fn new(g: &'g BipartiteGraph, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), g.n_edges(), "weight slice length mismatch");
        let initial = mbta_matching::greedy::greedy_bmatching(g, &weights, 0.0);
        // Greedy only takes finite-weight edges and is always feasible.
        Self::from_matching(g, weights, &initial).expect("greedy seed is always accepted")
    }

    /// Starts from an existing matching (all nodes active), after checking
    /// that the seed is actually usable: the weight slice must cover every
    /// edge, the matching must be feasible for `g`, and every seeded edge
    /// must carry a finite weight (a NaN/±inf seed would silently poison
    /// the maintained running total). Formerly these were `debug_assert!`s,
    /// which made release builds accept corrupt seeds; churn traces replay
    /// against this state for thousands of events, so reject loudly instead.
    /// The carried network is built here, at the graph's capacities.
    pub fn from_matching(
        g: &'g BipartiteGraph,
        weights: Vec<f64>,
        m: &Matching,
    ) -> Result<Self, SeedRejection> {
        if weights.len() != g.n_edges() {
            return Err(SeedRejection::WeightLenMismatch {
                expected: g.n_edges(),
                got: weights.len(),
            });
        }
        m.validate(g)?;
        for &e in &m.edges {
            if !weights[e.index()].is_finite() {
                return Err(SeedRejection::NonFiniteWeight {
                    edge: e.raw(),
                    weight: weights[e.index()],
                });
            }
        }
        let mut net = WarmNet::new(g);
        for e in g.edges() {
            net.set_cost(e, cost(weights[e.index()]));
        }
        let mut s = Self {
            g,
            weights,
            in_matching: vec![false; g.n_edges()],
            caps: g.capacities().iter().chain(g.demands()).copied().collect(),
            active: vec![true; g.n_workers() + g.n_tasks()],
            total: 0.0,
            assigned: 0,
            changed: Vec::with_capacity(g.n_edges()),
            dirty: vec![false; g.n_edges()],
            net: Some(net),
            solves: WarmSolverStats::default(),
            dropped: Vec::with_capacity(g.n_edges()),
            candidates: Vec::with_capacity(g.n_edges()),
        };
        for &e in &m.edges {
            s.insert(e);
        }
        // The seed is the baseline the first drain is measured from.
        s.drain_changes(|_, _| {});
        Ok(s)
    }

    /// Current total weight of the maintained assignment.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Number of assigned edges. O(1): the count is kept by the two
    /// funnels every assignment change goes through.
    pub fn len(&self) -> usize {
        self.assigned
    }

    /// Whether nothing is assigned. O(1).
    pub fn is_empty(&self) -> bool {
        self.assigned == 0
    }

    /// Whether a worker is currently active.
    pub fn worker_active(&self, w: WorkerId) -> bool {
        self.active[w.index()]
    }

    /// Whether a task is currently active.
    pub fn task_active(&self, t: TaskId) -> bool {
        self.active[self.g.n_workers() + t.index()]
    }

    /// Whether node `v` is active: worker `v` below the worker count, task
    /// `v − workers` above it, the numbering of every node-indexed call.
    pub fn active(&self, v: usize) -> bool {
        self.active[v]
    }

    /// Snapshot of the current assignment, ascending by edge id, in one
    /// allocation.
    pub fn matching(&self) -> Matching {
        let mut edges = Vec::with_capacity(self.assigned);
        edges.extend(self.assigned_edges());
        Matching::from_edges(edges)
    }

    fn insert(&mut self, e: EdgeId) {
        self.mark(e, true);
        self.net_mut().flip(e, true);
    }

    fn remove(&mut self, e: EdgeId) {
        self.mark(e, false);
        self.net_mut().flip(e, false);
    }

    /// Moves `e` in or out of the assignment in the state's own books —
    /// the change set, the count and the running total — but not on the
    /// network, which `insert` and `remove` flip and a settled solve
    /// already holds.
    fn mark(&mut self, e: EdgeId, on: bool) {
        debug_assert_ne!(self.in_matching[e.index()], on);
        self.record(e);
        self.in_matching[e.index()] = on;
        if on {
            self.assigned += 1;
            self.total += self.weights[e.index()];
        } else {
            self.assigned -= 1;
            self.total -= self.weights[e.index()];
        }
    }

    /// The carried network, for a read.
    fn net(&self) -> &WarmNet {
        self.net.as_ref().expect("the carried network is lent")
    }

    /// The carried network, for a write.
    fn net_mut(&mut self) -> &mut WarmNet {
        let lent = "the state changed while its network was lent";
        self.net.as_mut().expect(lent)
    }

    /// Enters `e` in the change set at its first flip since the last drain.
    fn record(&mut self, e: EdgeId) {
        if !self.dirty[e.index()] {
            self.dirty[e.index()] = true;
            self.changed.push((e, self.in_matching[e.index()]));
        }
    }

    /// Writes node `v`'s (workers, then tasks) effective capacity to the
    /// carried network: its held capacity while it is active, 0 while not.
    /// Called after the drops a lower capacity needs and before the fills
    /// a higher one allows, so the flow through `v` always fits and no
    /// repair refills what `v` no longer has.
    fn write_units(&mut self, v: usize) {
        let units = if self.active[v] { self.caps[v] } else { 0 };
        self.net_mut().set_units(v, units);
    }

    /// Node `v`'s (workers, then tasks) units left on the carried network:
    /// its effective capacity less its load.
    fn room(&self, v: usize) -> u32 {
        let (units, load) = self.net().node_units(v);
        units - load
    }

    /// Whether edge `e` could be added right now: unassigned, of positive
    /// finite weight (repair must not poison the running total), with room
    /// at both ends — an inactive end has none.
    fn addable(&self, e: EdgeId) -> bool {
        let (w, t) = (self.g.worker_of(e), self.g.task_of(e));
        let weight = self.weights[e.index()];
        !self.in_matching[e.index()]
            && weight > 0.0
            && weight.is_finite()
            && self.room(w.index()) > 0
            && self.room(self.g.n_workers() + t.index()) > 0
    }

    /// Greedily fills a task's remaining demand from its best addable edges.
    fn repair_task(&mut self, t: TaskId) {
        let (g, v) = (self.g, self.g.n_workers() + t.index());
        if self.active[v] {
            self.fill(g.task_edges(t), |s| s.room(v) == 0);
        }
    }

    /// Greedily fills a worker's remaining capacity.
    fn repair_worker(&mut self, w: WorkerId) {
        if self.active[w.index()] {
            let g = self.g;
            self.fill(g.worker_edges(w), |s| s.room(w.index()) == 0);
        }
    }

    /// Assigns one node's addable `edges` best first — weight descending,
    /// then edge id — until `full` says the node is.
    fn fill(&mut self, edges: impl Iterator<Item = EdgeId>, full: impl Fn(&Self) -> bool) {
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.extend(edges.filter(|&e| self.addable(e)));
        let w = &self.weights;
        candidates.sort_unstable_by(|&a, &b| w[b.index()].total_cmp(&w[a.index()]).then(a.cmp(&b)));
        for &e in &candidates {
            if full(self) {
                break;
            }
            if self.addable(e) {
                self.insert(e);
            }
        }
        candidates.clear();
        self.candidates = candidates;
    }

    /// Deactivates a worker (logs off): drops its assignments and repairs
    /// the tasks it was serving. Returns the number of dropped edges.
    /// Idempotent.
    pub fn deactivate_worker(&mut self, w: WorkerId) -> usize {
        if !std::mem::replace(&mut self.active[w.index()], false) {
            return 0;
        }
        let g = self.g;
        self.drop_all(g.worker_edges(w), w.index(), |s, e| {
            s.repair_task(g.task_of(e))
        })
    }

    /// Deactivates a task (cancelled): drops its assignments and repairs
    /// the workers that were serving it. Returns dropped edge count.
    pub fn deactivate_task(&mut self, t: TaskId) -> usize {
        let (g, v) = (self.g, self.g.n_workers() + t.index());
        if !std::mem::replace(&mut self.active[v], false) {
            return 0;
        }
        self.drop_all(g.task_edges(t), v, |s, e| s.repair_worker(g.worker_of(e)))
    }

    /// Sets node `v`'s capacity to `cap` (at most the graph's). Below its
    /// load, its lightest assigned edges (ties to the higher id) are
    /// dropped and the nodes they reached repaired; raised, an active node
    /// greedily fills the room it gained. Lowered to no less than its
    /// load, nothing moves.
    pub fn set_capacity(&mut self, v: usize, cap: u32) {
        let (g, over) = (self.g, self.load(v).saturating_sub(cap) as usize);
        let grown = cap > std::mem::replace(&mut self.caps[v], cap);
        match v.checked_sub(g.n_workers()) {
            None => {
                let w = WorkerId::from_index(v);
                assert!(cap <= g.capacity(w), "above the graph's capacity");
                self.drop_lightest(g.worker_edges(w), over, v, |s, e| {
                    s.repair_task(g.task_of(e))
                });
                if grown {
                    self.repair_worker(w);
                }
            }
            Some(i) => {
                let t = TaskId::from_index(i);
                assert!(cap <= g.demand(t), "above the graph's demand");
                self.drop_lightest(g.task_edges(t), over, v, |s, e| {
                    s.repair_worker(g.worker_of(e))
                });
                if grown {
                    self.repair_task(t);
                }
            }
        }
    }

    /// Node `v`'s capacity ([`set_capacity`](Self::set_capacity)).
    pub fn capacity(&self, v: usize) -> u32 {
        self.caps[v]
    }

    /// Drops the `n` lightest assigned edges of `edges` (ties to the higher
    /// id) at node `v`, writes `v`'s units, then runs `repair` on each.
    fn drop_lightest(
        &mut self,
        edges: impl Iterator<Item = EdgeId>,
        n: usize,
        v: usize,
        repair: impl FnMut(&mut Self, EdgeId),
    ) {
        let mut held = std::mem::take(&mut self.dropped);
        if n > 0 {
            held.extend(edges.filter(|&e| self.in_matching[e.index()]));
            let w = &self.weights;
            held.sort_unstable_by(|&a, &b| w[a.index()].total_cmp(&w[b.index()]).then(b.cmp(&a)));
            held.truncate(n);
        }
        self.drop_listed(held, v, repair);
    }

    /// Unassigns every assigned edge of `edges` at node `v`, writes `v`'s
    /// units, then runs `repair` on each dropped edge in turn. Returns how
    /// many were dropped.
    fn drop_all(
        &mut self,
        edges: impl Iterator<Item = EdgeId>,
        v: usize,
        repair: impl FnMut(&mut Self, EdgeId),
    ) -> usize {
        let mut dropped = std::mem::take(&mut self.dropped);
        dropped.extend(edges.filter(|&e| self.in_matching[e.index()]));
        self.drop_listed(dropped, v, repair)
    }

    /// Unassigns `dropped`, assigned edges at node `v`, writes `v`'s units,
    /// runs `repair` on each, and pools the buffer again; the repairs fill
    /// from the other pooled buffer. Returns how many were dropped.
    fn drop_listed(
        &mut self,
        mut dropped: Vec<EdgeId>,
        v: usize,
        mut repair: impl FnMut(&mut Self, EdgeId),
    ) -> usize {
        for &e in &dropped {
            self.remove(e);
        }
        self.write_units(v);
        for &e in &dropped {
            repair(self, e);
        }
        let n = dropped.len();
        dropped.clear();
        self.dropped = dropped;
        n
    }

    /// Re-activates a worker (logs back in) and greedily assigns it.
    /// Idempotent.
    pub fn activate_worker(&mut self, w: WorkerId) {
        if !std::mem::replace(&mut self.active[w.index()], true) {
            self.write_units(w.index());
            self.repair_worker(w);
        }
    }

    /// Re-activates a task and greedily fills its demand.
    pub fn activate_task(&mut self, t: TaskId) {
        let v = self.g.n_workers() + t.index();
        if !std::mem::replace(&mut self.active[v], true) {
            self.write_units(v);
            self.repair_task(t);
        }
    }

    /// Replaces the maintained matching with `m`, *keeping* the current
    /// activity flags. This is how a batch-level re-solve is adopted by a
    /// long-running maintainer (the dispatch service solves a shard's
    /// active sub-market exactly, then reseeds): greedy repair resumes from
    /// the better matching on the next churn event. Only the difference is
    /// applied, so the change set records just the edges `m` moves.
    ///
    /// `m` must be feasible for the graph, touch only active nodes, and
    /// carry finite weights; otherwise the state is left unchanged and the
    /// rejection is returned.
    pub fn reseed(&mut self, m: &Matching) -> Result<(), SeedRejection> {
        let mut keep = std::mem::take(&mut self.candidates);
        keep.extend_from_slice(&m.edges);
        keep.sort_unstable();
        let checked = self.check_seed(&keep).and_then(|()| self.apply_seed(&keep));
        keep.clear();
        self.candidates = keep;
        checked
    }

    /// What [`reseed`](Self::reseed) rejects before it touches the state:
    /// an unknown or repeated edge, a non-finite weight, an inactive end.
    fn check_seed(&self, keep: &[EdgeId]) -> Result<(), SeedRejection> {
        for (i, &e) in keep.iter().enumerate() {
            if e.index() >= self.g.n_edges() {
                return Err(Infeasibility::UnknownEdge(e).into());
            }
            if i > 0 && keep[i - 1] == e {
                return Err(Infeasibility::DuplicateEdge(e).into());
            }
            if !self.weights[e.index()].is_finite() {
                return Err(SeedRejection::NonFiniteWeight {
                    edge: e.raw(),
                    weight: self.weights[e.index()],
                });
            }
            if !self.worker_active(self.g.worker_of(e)) || !self.task_active(self.g.task_of(e)) {
                return Err(SeedRejection::InactiveEndpoint { edge: e.raw() });
            }
        }
        Ok(())
    }

    /// Applies the difference between the assignment and `keep` (sorted,
    /// on active nodes), so the change set holds only what it moves: drops
    /// the assigned edges `keep` leaves out, then adds its new ones. An
    /// addition with no room at an end undoes it all (the total restored
    /// bit for bit) and is reported.
    fn apply_seed(&mut self, keep: &[EdgeId]) -> Result<(), SeedRejection> {
        let total = self.total;
        // The dropped edges, then the added ones.
        let mut moved = std::mem::take(&mut self.dropped);
        for e in self.g.edges() {
            if self.in_matching[e.index()] && keep.binary_search(&e).is_err() {
                self.remove(e);
                moved.push(e);
            }
        }
        let n_dropped = moved.len();
        let mut over = None;
        for &e in keep {
            if self.in_matching[e.index()] {
                continue;
            }
            let (w, t) = (self.g.worker_of(e), self.g.task_of(e));
            if self.room(w.index()) == 0 {
                over = Some(Infeasibility::WorkerOverload {
                    worker: w.raw(),
                    load: self.worker_load(w) + 1,
                    capacity: self.caps[w.index()],
                });
            } else if self.room(self.g.n_workers() + t.index()) == 0 {
                over = Some(Infeasibility::TaskOverload {
                    task: t.raw(),
                    load: self.task_load(t) + 1,
                    demand: self.caps[self.g.n_workers() + t.index()],
                });
            }
            if over.is_some() {
                break;
            }
            self.insert(e);
            moved.push(e);
        }
        if over.is_some() {
            for &e in &moved[n_dropped..] {
                self.remove(e);
            }
            for &e in &moved[..n_dropped] {
                self.insert(e);
            }
            self.total = total;
        }
        moved.clear();
        self.dropped = moved;
        over.map_or(Ok(()), |o| Err(o.into()))
    }

    /// Updates the weight of one edge (a benefit update flowing through the
    /// market event stream). If the edge is currently assigned, the running
    /// total is adjusted; a non-finite update on an assigned edge evicts it
    /// (while the old finite weight is still in place, so the total stays
    /// clean) and greedily repairs both endpoints. The carried network has
    /// the edge's cost rewritten (a NaN as no profit: no solve runs on a
    /// non-finite weight).
    pub fn set_weight(&mut self, e: EdgeId, w: f64) {
        let i = e.index();
        self.net_mut().set_cost(e, cost(w));
        if self.in_matching[i] {
            if w.is_finite() {
                let old = self.weights[i];
                self.weights[i] = w;
                self.total += w - old;
            } else {
                self.remove(e);
                self.weights[i] = w;
                self.repair_worker(self.g.worker_of(e));
                self.repair_task(self.g.task_of(e));
            }
        } else {
            self.weights[i] = w;
        }
    }

    /// The active-subgraph weights for re-solve comparisons: inactive
    /// endpoints get weight 0 so a from-scratch solver sees the same market
    /// state (zero-weight edges are never taken in free-cardinality mode).
    /// Computed in one pass over the edges.
    pub fn active_weights(&self) -> Vec<f64> {
        let (g, w) = (self.g, &self.weights);
        let live = |e: EdgeId| self.worker_active(g.worker_of(e)) && self.task_active(g.task_of(e));
        let weight = |e: EdgeId| if live(e) { w[e.index()] } else { 0.0 };
        g.edges().map(weight).collect()
    }

    /// Every edge's live weight, active or not.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Lends the carried network out for a solve ([`crate::warm::resolve`]):
    /// the graph's network with every edge costed from its weight, every
    /// node at its effective capacity and the assignment as its flow. The
    /// state must not change until the network comes back through
    /// [`settle`](Self::settle).
    ///
    /// # Panics
    /// If the network is lent already.
    pub fn lend_net(&mut self) -> WarmNet {
        self.net
            .take()
            .expect("the carried network is lent already")
    }

    /// Takes the carried network back from the solve `stats` describes.
    /// A completed solve whose flow — less its edges of no positive
    /// weight, which add nothing — is worth more than the assignment, by
    /// more than 1e-12 summed in ascending edge order, becomes the
    /// assignment: its difference, drops then additions, each ascending,
    /// is applied into the change set, and the weightless edges leave the
    /// flow. Any other solve — cut short, or no better — leaves the
    /// assignment as it is and writes it back as the flow. The prices the
    /// solve left stay either way. One pass over the edges reads the flow,
    /// its value and its difference. Returns whether the flow was adopted.
    ///
    /// Debug builds certify a completed solve's flow against costs derived
    /// from the state's weights, so a cost write the state missed fails
    /// here.
    ///
    /// # Panics
    /// If no network is lent.
    pub fn settle(&mut self, mut net: WarmNet, stats: &WarmStats) -> bool {
        assert!(self.net.is_none(), "no carried network is lent");
        self.solves.add(stats);
        debug_assert!(
            !stats.completed || net.certifies(&self.weights),
            "the carried potentials do not certify the solve"
        );
        let (mut drops, mut adds) = (
            std::mem::take(&mut self.dropped),
            std::mem::take(&mut self.candidates),
        );
        let mut value = 0.0;
        for e in self.g.edges() {
            let (carried, weight) = (net.carries(e), self.weights[e.index()]);
            let kept = carried && weight > 0.0;
            if kept {
                value += weight;
            } else if carried {
                net.flip(e, false);
            }
            match (kept, self.in_matching[e.index()]) {
                (true, false) => adds.push(e),
                (false, true) => drops.push(e),
                _ => {}
            }
        }
        let adopted = stats.completed && value > self.total + 1e-12;
        if adopted {
            for &e in &drops {
                self.mark(e, false);
            }
            for &e in &adds {
                self.mark(e, true);
            }
        } else {
            net.restore(self.assigned_edges());
        }
        drops.clear();
        adds.clear();
        (self.dropped, self.candidates) = (drops, adds);
        self.net = Some(net);
        adopted
    }

    /// The assigned edges, ascending: one pass over the edges.
    pub fn assigned_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.g.edges().filter(|e| self.in_matching[e.index()])
    }

    /// Tallies of the solves the carried network came back from.
    pub fn solve_stats(&self) -> WarmSolverStats {
        self.solves
    }

    /// The change set, without resetting it: each edge whose assignment
    /// differs from the last drain (or the seed), with its assignment now,
    /// ascending by edge id.
    pub fn changes(&mut self) -> impl Iterator<Item = (EdgeId, bool)> + '_ {
        self.changed.sort_unstable_by_key(|&(e, _)| e);
        let now = &self.in_matching;
        let flipped = |&(e, was): &(EdgeId, bool)| (now[e.index()] != was).then_some((e, !was));
        self.changed.iter().filter_map(flipped)
    }

    /// Every edge flipped since the last drain, whether or not its
    /// assignment now differs, in no particular order: a superset of
    /// [`changes`](Self::changes) that also names an edge flipped and
    /// flipped back, for a caller that must revisit every node touched in
    /// between.
    pub fn flipped(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.changed.iter().map(|&(e, _)| e)
    }

    /// Hands `emit` the [`changes`](Self::changes), then resets the change
    /// set: the next drain reports what happens from here on.
    ///
    /// # Example
    /// ```
    /// use mbta_core::incremental::IncrementalAssignment;
    /// use mbta_graph::random::from_edges;
    /// use mbta_graph::{EdgeId, WorkerId};
    ///
    /// let g = from_edges(&[1, 1], &[1], &[(0, 0, 0.9, 0.9), (1, 0, 0.5, 0.5)]);
    /// let weights: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
    /// let mut inc = IncrementalAssignment::new(&g, weights);
    /// let mut changes = Vec::new();
    /// // The departure drops edge 0 and repair picks up edge 1.
    /// inc.deactivate_worker(WorkerId::new(0));
    /// inc.activate_worker(WorkerId::new(0)); // the task is full: no change
    /// inc.drain_changes(|e, assigned| changes.push((e.raw(), assigned)));
    /// assert_eq!(changes, [(0, false), (1, true)]);
    ///
    /// // Evicting edge 1 hands the task back to edge 0; the second
    /// // departure hands it to edge 1 again. Both edges end as they were.
    /// inc.set_weight(EdgeId::new(1), f64::NAN);
    /// inc.set_weight(EdgeId::new(1), 0.5);
    /// inc.deactivate_worker(WorkerId::new(0));
    /// changes.clear();
    /// inc.drain_changes(|e, assigned| changes.push((e.raw(), assigned)));
    /// assert!(changes.is_empty());
    /// ```
    pub fn drain_changes(&mut self, mut emit: impl FnMut(EdgeId, bool)) {
        self.changes().for_each(|(e, assigned)| emit(e, assigned));
        for (e, _) in self.changed.drain(..) {
            self.dirty[e.index()] = false;
        }
    }

    /// Whether edge `e` is currently assigned.
    pub fn edge_assigned(&self, e: EdgeId) -> bool {
        self.in_matching[e.index()]
    }

    /// The live weight of edge `e`.
    pub fn weight_of(&self, e: EdgeId) -> f64 {
        self.weights[e.index()]
    }

    /// Current assigned load of a worker, read off the carried network.
    pub fn worker_load(&self, w: WorkerId) -> u32 {
        self.load(w.index())
    }

    /// Current assigned load of a task, read off the carried network.
    pub fn task_load(&self, t: TaskId) -> u32 {
        self.load(self.g.n_workers() + t.index())
    }

    /// Node `v`'s current assigned load, read off the carried network.
    pub fn load(&self, v: usize) -> u32 {
        self.net().node_units(v).1
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g BipartiteGraph {
        self.g
    }

    /// Assigns edge `e` if it is addable right now (unassigned, positive
    /// finite weight, both endpoints active with spare capacity).
    /// Returns whether the edge was taken.
    pub fn try_assign(&mut self, e: EdgeId) -> bool {
        let ok = self.addable(e);
        if ok {
            self.insert(e);
        }
        ok
    }

    /// Unassigns edge `e` if it is currently assigned (an online
    /// exchange evicting a weaker edge). Returns whether a removal
    /// happened. The freed capacity is *not* repaired — the caller
    /// decides what replaces it.
    pub fn unassign(&mut self, e: EdgeId) -> bool {
        let ok = self.in_matching[e.index()];
        if ok {
            self.remove(e);
        }
        ok
    }

    /// Greedily fills a worker's spare capacity from its best addable
    /// edges (public entry to the repair pass, for online callers).
    pub fn fill_worker(&mut self, w: WorkerId) {
        self.repair_worker(w);
    }

    /// Greedily fills a task's remaining demand (public entry to the
    /// repair pass, for online callers).
    pub fn fill_task(&mut self, t: TaskId) {
        self.repair_task(t);
    }

    /// Debug validation: feasibility, activity, count, change-set and
    /// total consistency, and the carried network's own: its flow is the
    /// assignment, each node's flow its load, within the capacity the
    /// node holds, and its units the effective capacity.
    ///
    /// # Panics
    /// At the first inconsistency, or if the network is lent.
    pub fn check_invariants(&self) {
        let m = self.matching();
        m.validate(self.g).expect("maintained matching feasible");
        assert_eq!(self.len(), m.len(), "assigned-edge count drift");
        assert_eq!(self.is_empty(), m.is_empty());
        let (n_w, net) = (self.g.n_workers(), self.net());
        let mut loads = vec![0; self.caps.len()];
        for &e in &m.edges {
            let (w, t) = (self.g.worker_of(e).index(), n_w + self.g.task_of(e).index());
            assert!(
                self.active[w] && self.active[t],
                "edge {e} at an inactive node"
            );
            loads[w] += 1;
            loads[t] += 1;
        }
        for e in self.g.edges() {
            assert_eq!(net.carries(e), self.edge_assigned(e), "edge {e}: flow");
        }
        for (v, &load) in loads.iter().enumerate() {
            let (units, flow) = net.node_units(v);
            let effective = if self.active[v] { self.caps[v] } else { 0 };
            assert_eq!(units, effective, "node {v}: capacity");
            assert_eq!(flow, load, "node {v}: flow");
            assert!(load <= self.caps[v], "node {v} over");
        }
        let mut listed = vec![false; self.g.n_edges()];
        for &(e, _) in &self.changed {
            assert!(!listed[e.index()], "change set lists edge {e} twice");
            listed[e.index()] = true;
        }
        assert_eq!(listed, self.dirty, "change set and dirty marks disagree");
        let recomputed = m.total_weight(&self.weights);
        assert!(
            (recomputed - self.total).abs() < 1e-6,
            "total drift: cached {} vs recomputed {recomputed}",
            self.total
        );
    }
}

/// The weight a carried network is costed at: a NaN as no profit.
fn cost(w: f64) -> f64 {
    if w.is_nan() {
        0.0
    } else {
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::{from_edges, random_bipartite, RandomGraphSpec};
    use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
    use mbta_util::{CancelToken, SolveCtl, SplitMix64};

    /// One solve of `inc`'s carried network under `ctl`, settled: whether
    /// it completed and whether its flow was adopted.
    fn solve(inc: &mut IncrementalAssignment<'_>, ctl: &SolveCtl) -> (bool, bool) {
        let mut net = inc.lend_net();
        let stats = crate::warm::resolve(&mut net, ctl);
        (stats.completed, inc.settle(net, &stats))
    }

    /// A control block that stops the solve it is handed at that solve's
    /// `polls`-th poll.
    fn cut_after(polls: u32) -> SolveCtl {
        let token = CancelToken::new();
        let ctl = SolveCtl::unlimited()
            .with_token(token.clone())
            .with_check_interval(polls);
        // The first `should_stop` is a real check; spend it before the
        // token is cancelled.
        assert!(!ctl.should_stop());
        token.cancel();
        ctl
    }

    /// The carried potentials, read on a network lent and handed back
    /// unchanged.
    fn prices(inc: &mut IncrementalAssignment<'_>) -> Vec<i64> {
        let net = inc.lend_net();
        let pi = net.certificate().potentials;
        let stats = mbta_matching::warm::WarmStats {
            warm: false,
            iterations: 0,
            settled: 0,
            completed: false,
        };
        assert!(!inc.settle(net, &stats));
        pi
    }

    /// A 30 × 20 market whose state's carried network has solved once,
    /// then moved: a fifth of the weights halved, two workers out.
    fn primed(g: &BipartiteGraph) -> IncrementalAssignment<'_> {
        let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        let mut inc = IncrementalAssignment::new(g, w.clone());
        assert_eq!(solve(&mut inc, &SolveCtl::unlimited()), (true, true));
        for e in g.edges().step_by(5) {
            inc.set_weight(e, w[e.index()] * 0.5);
        }
        inc.deactivate_worker(WorkerId::new(3));
        inc.deactivate_worker(WorkerId::new(8));
        inc
    }

    fn market() -> BipartiteGraph {
        let spec = RandomGraphSpec {
            n_workers: 30,
            n_tasks: 20,
            avg_degree: 5.0,
            capacity: 2,
            demand: 2,
        };
        random_bipartite(&spec, 7)
    }

    /// A carried solve cut at its first, second, … poll settles to
    /// nothing: the assignment, its change set and the flow stay the seed,
    /// and the prices the cut left stay too — the next, uncut, solve
    /// starts from them (a warm one) and reaches the optimum.
    #[test]
    fn a_cut_carried_solve_leaves_the_seed_and_keeps_its_prices() {
        let g = market();
        let primed = primed(&g);
        let mut free = primed.clone();
        assert_eq!(solve(&mut free, &SolveCtl::unlimited()), (true, true));
        let mut cut = 0;
        for polls in 1.. {
            let mut inc = primed.clone();
            let (seed, changes) = (inc.matching(), inc.changes().collect::<Vec<_>>());
            let mut net = inc.lend_net();
            let stats = crate::warm::resolve(&mut net, &cut_after(polls));
            if stats.completed {
                assert!(inc.settle(net, &stats));
                assert_eq!(inc.matching(), free.matching(), "{polls} polls");
                break;
            }
            cut += 1;
            let left = net.certificate().potentials;
            assert!(!inc.settle(net, &stats), "{polls} polls");
            inc.check_invariants();
            assert_eq!(inc.matching(), seed, "{polls} polls");
            assert_eq!(inc.changes().collect::<Vec<_>>(), changes, "{polls} polls");
            assert_eq!(prices(&mut inc), left, "{polls} polls");
            let mut net = inc.lend_net();
            let stats = crate::warm::resolve(&mut net, &SolveCtl::unlimited());
            assert!(stats.completed && stats.warm, "{polls} polls");
            assert!(inc.settle(net, &stats), "{polls} polls");
            inc.check_invariants();
            assert!((inc.total_weight() - free.total_weight()).abs() < 1e-9);
        }
        assert!(cut > 1, "the cuts did not bite");
        let s = free.solve_stats();
        assert_eq!((s.solves, s.warm_hits), (2, 1));
    }

    /// Solved again with nothing moved, a state already at its optimum
    /// settles to nothing: same assignment, empty change set, the flow
    /// still the assignment.
    #[test]
    fn a_non_improving_carried_solve_changes_nothing() {
        let g = market();
        let mut inc = primed(&g);
        assert_eq!(solve(&mut inc, &SolveCtl::unlimited()), (true, true));
        inc.drain_changes(|_, _| {});
        let before = inc.matching();
        assert_eq!(solve(&mut inc, &SolveCtl::unlimited()), (true, false));
        inc.check_invariants();
        assert_eq!(inc.matching(), before);
        assert_eq!(inc.changes().count(), 0);
        // A tie: the solve may route the unit either way; the state keeps
        // the edge it holds, and the flow follows it.
        let tie = from_edges(&[1], &[1, 1], &[(0, 0, 0.5, 0.5), (0, 1, 0.5, 0.5)]);
        let mut inc = IncrementalAssignment::new(&tie, vec![0.5, 0.5]);
        let before = inc.matching();
        assert_eq!(solve(&mut inc, &SolveCtl::unlimited()), (true, false));
        inc.check_invariants();
        assert_eq!(inc.matching(), before);
    }

    /// An edge whose weight fell to 0 while assigned stays so through
    /// churn (greedy repair does not look at held edges), but a solve the
    /// state adopts drops it from the assignment and from the flow.
    #[test]
    fn a_zero_weight_edge_never_stays_assigned_through_a_solve() {
        let g = from_edges(
            &[1, 1, 1],
            &[1, 1, 1],
            &[
                (0, 0, 0.9, 0.9),
                (1, 1, 0.9, 0.9),
                (1, 2, 0.8, 0.8),
                (2, 1, 0.1, 0.1),
            ],
        );
        let w: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
        let mut inc = IncrementalAssignment::new(&g, w);
        // Greedy's edges 0 and 1 are the optimum: nothing to adopt.
        assert_eq!(solve(&mut inc, &SolveCtl::unlimited()), (true, false));
        inc.drain_changes(|_, _| {});
        // Now the 0.8 + 0.7 pair beats edge 1, and edge 0 is weightless.
        inc.set_weight(EdgeId::new(3), 0.7);
        inc.set_weight(EdgeId::new(0), 0.0);
        assert!(inc.edge_assigned(EdgeId::new(0)));
        inc.check_invariants();
        assert_eq!(solve(&mut inc, &SolveCtl::unlimited()), (true, true));
        inc.check_invariants();
        assert!(!inc.edge_assigned(EdgeId::new(0)));
        let mut changes = Vec::new();
        inc.drain_changes(|e, assigned| changes.push((e.raw(), assigned)));
        assert_eq!(changes, [(0, false), (1, false), (2, true), (3, true)]);
    }

    #[test]
    fn departure_triggers_repair() {
        // w0 holds t0; when w0 leaves, w1 (previously beaten) takes over.
        let g = from_edges(&[1, 1], &[1], &[(0, 0, 0.9, 0.9), (1, 0, 0.5, 0.5)]);
        let w: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
        let mut inc = IncrementalAssignment::new(&g, w);
        assert!((inc.total_weight() - 0.9).abs() < 1e-12);
        let dropped = inc.deactivate_worker(WorkerId::new(0));
        assert_eq!(dropped, 1);
        inc.check_invariants();
        assert!((inc.total_weight() - 0.5).abs() < 1e-12);
        // Re-activation takes the better edge back... w1 still holds t0,
        // and t0's demand is saturated, so w0 stays idle (greedy repair
        // does not evict).
        inc.activate_worker(WorkerId::new(0));
        inc.check_invariants();
        assert!((inc.total_weight() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn task_cancellation_frees_worker_for_other_tasks() {
        // w0 (cap 1) serves t0 (0.8); t1 (0.6) is left unserved. When t0 is
        // cancelled, w0 must move to t1.
        let g = from_edges(&[1], &[1, 1], &[(0, 0, 0.8, 0.8), (0, 1, 0.6, 0.6)]);
        let w: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
        let mut inc = IncrementalAssignment::new(&g, w);
        assert!((inc.total_weight() - 0.8).abs() < 1e-12);
        inc.deactivate_task(TaskId::new(0));
        inc.check_invariants();
        assert!((inc.total_weight() - 0.6).abs() < 1e-12);
        // Reactivate: t0's demand refills from the only active worker...
        // which is busy on t1 at capacity, so nothing changes.
        inc.activate_task(TaskId::new(0));
        assert!((inc.total_weight() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn deactivation_is_idempotent() {
        let g = from_edges(&[1], &[1], &[(0, 0, 0.5, 0.5)]);
        let w = vec![0.5];
        let mut inc = IncrementalAssignment::new(&g, w);
        assert_eq!(inc.deactivate_worker(WorkerId::new(0)), 1);
        assert_eq!(inc.deactivate_worker(WorkerId::new(0)), 0);
        inc.activate_worker(WorkerId::new(0));
        inc.activate_worker(WorkerId::new(0));
        inc.check_invariants();
        assert_eq!(inc.len(), 1);
    }

    /// Capacities below the graph's, moved among churn: lowering one to no
    /// less than its load moves nothing, lowering it further drops the
    /// lightest edges there, and the invariants — loads within the
    /// capacities held; the carried network's flow the assignment and its
    /// node capacities the effective ones — hold after every step. The
    /// network is built before the churn and solved at random points.
    #[test]
    fn capacity_moves_keep_the_state_within_them() {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 60,
                n_tasks: 40,
                avg_degree: 6.0,
                capacity: 3,
                demand: 3,
            },
            11,
        );
        let weights: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        let mut inc = IncrementalAssignment::new(&g, weights);
        let mut rng = SplitMix64::new(3);
        let (mut lowered, mut dropped) = (0, 0);
        solve(&mut inc, &SolveCtl::unlimited());
        for _ in 0..400 {
            let w = WorkerId::from_index(rng.next_index(g.n_workers()));
            let t = TaskId::from_index(rng.next_index(g.n_tasks()));
            match rng.next_below(7) {
                0 => {
                    let (load, old) = (inc.worker_load(w), inc.capacity(w.index()));
                    let cap = rng.next_below(u64::from(g.capacity(w)) + 1) as u32;
                    let before = inc.matching();
                    inc.set_capacity(w.index(), cap);
                    assert_eq!(inc.capacity(w.index()), cap);
                    if cap < load {
                        assert_eq!(inc.worker_load(w), cap, "drops only the excess");
                        dropped += 1;
                    } else if cap <= old {
                        assert_eq!(inc.matching(), before, "a capacity its load fits");
                        lowered += 1;
                    }
                }
                1 => {
                    let cap = rng.next_below(u64::from(g.demand(t)) + 1) as u32;
                    inc.set_capacity(g.n_workers() + t.index(), cap);
                    assert!(inc.task_load(t) <= cap);
                }
                2 => {
                    inc.deactivate_worker(w);
                }
                3 => inc.activate_worker(w),
                4 => {
                    inc.deactivate_task(t);
                }
                5 => inc.activate_task(t),
                _ => {
                    let e = EdgeId::from_index(rng.next_index(g.n_edges()));
                    inc.set_weight(e, rng.next_f64());
                }
            }
            inc.check_invariants();
            if rng.next_bool(0.1) {
                solve(&mut inc, &SolveCtl::unlimited());
                inc.check_invariants();
            }
        }
        assert!(
            lowered > 20 && dropped > 5,
            "{lowered} kept, {dropped} dropping"
        );
    }

    #[test]
    fn churn_preserves_feasibility_and_tracks_resolve() {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 80,
                n_tasks: 50,
                avg_degree: 6.0,
                capacity: 2,
                demand: 2,
            },
            3,
        );
        let weights: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        let mut inc = IncrementalAssignment::new(&g, weights.clone());
        let mut rng = SplitMix64::new(7);
        let mut inactive_w: Vec<u32> = Vec::new();
        let mut inactive_t: Vec<u32> = Vec::new();
        for step in 0..200 {
            match rng.next_below(4) {
                0 => {
                    let w = rng.next_index(g.n_workers()) as u32;
                    inc.deactivate_worker(WorkerId::new(w));
                    inactive_w.push(w); // activation is idempotent, dups fine
                }
                1 => {
                    if let Some(w) = inactive_w.pop() {
                        inc.activate_worker(WorkerId::new(w));
                    }
                }
                2 => {
                    let t = rng.next_index(g.n_tasks()) as u32;
                    inc.deactivate_task(TaskId::new(t));
                    inactive_t.push(t);
                }
                _ => {
                    if let Some(t) = inactive_t.pop() {
                        inc.activate_task(TaskId::new(t));
                    }
                }
            }
            inc.check_invariants();
            if step % 50 == 49 {
                // Compare against an exact re-solve on the active subgraph:
                // incremental stays within the greedy ½ bound.
                let aw = inc.active_weights();
                let (opt, _) =
                    max_weight_bmatching(&g, &aw, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
                let ov = opt.total_weight(&aw);
                assert!(inc.total_weight() <= ov + 1e-6, "step {step}");
                assert!(
                    inc.total_weight() >= 0.4 * ov - 1e-9,
                    "step {step}: incremental {} vs opt {ov}",
                    inc.total_weight()
                );
            }
        }
    }

    #[test]
    fn from_matching_accepts_exact_start() {
        let g = random_bipartite(&RandomGraphSpec::default(), 5);
        let weights: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
        let (opt, _) =
            max_weight_bmatching(&g, &weights, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        let expected = opt.total_weight(&weights);
        let inc = IncrementalAssignment::from_matching(&g, weights, &opt).unwrap();
        assert!((inc.total_weight() - expected).abs() < 1e-9);
        inc.check_invariants();
    }

    #[test]
    fn from_matching_rejects_bad_seeds() {
        let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.5, 0.5), (1, 1, 0.5, 0.5)]);

        // Short weight slice.
        let err =
            IncrementalAssignment::from_matching(&g, vec![0.5], &Matching::empty()).unwrap_err();
        assert!(matches!(
            err,
            SeedRejection::WeightLenMismatch {
                expected: 2,
                got: 1
            }
        ));

        // Infeasible seed: the same edge twice overloads both endpoints.
        let dup = Matching::from_edges(vec![EdgeId::new(0), EdgeId::new(0)]);
        let err = IncrementalAssignment::from_matching(&g, vec![0.5, 0.5], &dup).unwrap_err();
        assert!(matches!(err, SeedRejection::Infeasible(_)), "{err}");

        // Seeded edge with a NaN weight.
        let seed = Matching::from_edges(vec![EdgeId::new(0)]);
        let err = IncrementalAssignment::from_matching(&g, vec![f64::NAN, 0.5], &seed).unwrap_err();
        assert!(
            matches!(err, SeedRejection::NonFiniteWeight { edge: 0, .. }),
            "{err}"
        );

        // NaN weight on an *unmatched* edge is fine — repair just never
        // takes that edge.
        let ok = IncrementalAssignment::from_matching(&g, vec![0.5, f64::NAN], &seed).unwrap();
        ok.check_invariants();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn dropout_storms_keep_invariants() {
        use mbta_workload::faults::{dropout_storm, ChurnEvent};
        for seed in 0..10 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 60,
                    n_tasks: 40,
                    avg_degree: 5.0,
                    capacity: 2,
                    demand: 2,
                },
                seed,
            );
            let weights: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
            let mut inc = IncrementalAssignment::new(&g, weights);
            // A storm drops 70% of each side nearly at once, then half of
            // the dropped nodes come back; every intermediate state must
            // stay feasible and consistent.
            for ev in dropout_storm(g.n_workers(), g.n_tasks(), 0.7, seed ^ 0xABCD) {
                match ev {
                    ChurnEvent::DeactivateWorker(w) => {
                        inc.deactivate_worker(WorkerId::new(w));
                    }
                    ChurnEvent::ActivateWorker(w) => inc.activate_worker(WorkerId::new(w)),
                    ChurnEvent::DeactivateTask(t) => {
                        inc.deactivate_task(TaskId::new(t));
                    }
                    ChurnEvent::ActivateTask(t) => inc.activate_task(TaskId::new(t)),
                }
                inc.check_invariants();
            }
        }
    }

    #[test]
    fn interleaved_add_remove_of_same_worker_within_one_batch() {
        // The dispatch service batches events, and a batch routinely holds
        // BOTH lifecycle edges of the same worker (short session entirely
        // inside one micro-batch): on,off — or even on,off,on,off. Every
        // interleaving must keep invariants and land in the state implied
        // by the LAST event, independent of what happened in between.
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 30,
                n_tasks: 20,
                avg_degree: 5.0,
                capacity: 2,
                demand: 2,
            },
            13,
        );
        let weights: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();

        // Reference: deactivate w once.
        let w = WorkerId::new(4);
        let mut reference = IncrementalAssignment::new(&g, weights.clone());
        reference.deactivate_worker(w);

        // Same batch with a flap in the middle: off,on,off must agree with
        // a single off, because the intermediate on..off pair must not leak
        // state (greedy repair is deterministic in the surrounding state).
        let mut flappy = IncrementalAssignment::new(&g, weights.clone());
        flappy.deactivate_worker(w);
        flappy.activate_worker(w);
        flappy.check_invariants();
        flappy.deactivate_worker(w);
        flappy.check_invariants();
        assert!(!flappy.worker_active(w));
        assert_eq!(
            flappy.matching().edges,
            reference.matching().edges,
            "flap within a batch changed the final state"
        );

        // And an on-terminated interleaving ends active with its capacity
        // greedily refilled.
        let mut ending_on = IncrementalAssignment::new(&g, weights.clone());
        for _ in 0..3 {
            ending_on.deactivate_worker(w);
            ending_on.activate_worker(w);
        }
        ending_on.check_invariants();
        assert!(ending_on.worker_active(w));

        // Same property on the task side.
        let t = TaskId::new(7);
        let mut task_ref = IncrementalAssignment::new(&g, weights.clone());
        task_ref.deactivate_task(t);
        let mut task_flappy = IncrementalAssignment::new(&g, weights);
        task_flappy.deactivate_task(t);
        task_flappy.activate_task(t);
        task_flappy.deactivate_task(t);
        task_flappy.check_invariants();
        assert_eq!(task_flappy.matching().edges, task_ref.matching().edges);
    }

    #[test]
    fn interleaved_same_id_churn_storm_keeps_invariants() {
        // Hammer ONE worker and ONE task with a dense flip sequence while
        // background churn rearranges everything around them.
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 40,
                n_tasks: 30,
                avg_degree: 6.0,
                capacity: 2,
                demand: 2,
            },
            29,
        );
        let weights: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        let mut inc = IncrementalAssignment::new(&g, weights);
        let hot_w = WorkerId::new(0);
        let hot_t = TaskId::new(0);
        let mut rng = SplitMix64::new(77);
        for step in 0..300 {
            match rng.next_below(6) {
                0 => {
                    inc.deactivate_worker(hot_w);
                }
                1 => inc.activate_worker(hot_w),
                2 => {
                    inc.deactivate_task(hot_t);
                }
                3 => inc.activate_task(hot_t),
                4 => {
                    let w = rng.next_index(g.n_workers()) as u32;
                    inc.deactivate_worker(WorkerId::new(w));
                }
                _ => {
                    let w = rng.next_index(g.n_workers()) as u32;
                    inc.activate_worker(WorkerId::new(w));
                }
            }
            inc.check_invariants();
            let _ = step;
        }
    }

    #[test]
    fn reseed_adopts_better_matching_and_keeps_activity() {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 50,
                n_tasks: 40,
                avg_degree: 6.0,
                capacity: 2,
                demand: 2,
            },
            8,
        );
        let weights: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        let mut inc = IncrementalAssignment::new(&g, weights.clone());
        // Deactivate a slice of the market, then re-solve the active part
        // exactly and adopt it.
        for w in 0..10 {
            inc.deactivate_worker(WorkerId::new(w));
        }
        for t in 0..5 {
            inc.deactivate_task(TaskId::new(t));
        }
        let before = inc.total_weight();
        let aw = inc.active_weights();
        let (opt, _) = max_weight_bmatching(&g, &aw, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        inc.reseed(&opt).unwrap();
        inc.check_invariants();
        assert!(
            !inc.worker_active(WorkerId::new(3)),
            "reseed flipped activity"
        );
        assert!(inc.total_weight() >= before - 1e-9, "reseed lost value");

        // Churn keeps working after a reseed.
        inc.deactivate_worker(WorkerId::new(20));
        inc.activate_worker(WorkerId::new(3));
        inc.check_invariants();
    }

    #[test]
    fn reseed_rejects_inactive_endpoints_and_leaves_state_intact() {
        let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.9, 0.9), (1, 1, 0.5, 0.5)]);
        let weights = vec![0.9, 0.5];
        let mut inc = IncrementalAssignment::new(&g, weights);
        inc.deactivate_worker(WorkerId::new(1));
        let before = inc.matching().edges;
        // Edge 1 touches the deactivated worker 1.
        let bad = Matching::from_edges(vec![EdgeId::new(1)]);
        let err = inc.reseed(&bad).unwrap_err();
        assert!(
            matches!(err, SeedRejection::InactiveEndpoint { edge: 1 }),
            "{err}"
        );
        inc.check_invariants();
        assert_eq!(inc.matching().edges, before, "failed reseed mutated state");
        // Infeasible seeds are rejected through the same gate.
        let dup = Matching::from_edges(vec![EdgeId::new(0), EdgeId::new(0)]);
        assert!(matches!(
            inc.reseed(&dup).unwrap_err(),
            SeedRejection::Infeasible(_)
        ));
    }

    #[test]
    fn set_weight_tracks_total_and_evicts_poison() {
        let g = from_edges(&[1], &[1, 1], &[(0, 0, 0.8, 0.8), (0, 1, 0.6, 0.6)]);
        let weights: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
        let mut inc = IncrementalAssignment::new(&g, weights);
        assert!((inc.total_weight() - 0.8).abs() < 1e-12);

        // Benefit update on the assigned edge: total follows.
        inc.set_weight(EdgeId::new(0), 0.3);
        inc.check_invariants();
        assert!((inc.total_weight() - 0.3).abs() < 1e-12);

        // Poisoning the assigned edge evicts it; repair moves the worker to
        // the remaining finite edge.
        inc.set_weight(EdgeId::new(0), f64::NAN);
        inc.check_invariants();
        assert!((inc.total_weight() - 0.6).abs() < 1e-12);
        assert_eq!(inc.len(), 1);

        // Updates on unassigned edges just store.
        inc.set_weight(EdgeId::new(0), 0.9);
        inc.check_invariants();
        // ...and the now-healthy edge is picked up at the next repair
        // opportunity for its endpoints.
        inc.deactivate_task(TaskId::new(1));
        inc.check_invariants();
        assert!((inc.total_weight() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = from_edges(&[], &[], &[]);
        let inc = IncrementalAssignment::new(&g, vec![]);
        assert!(inc.is_empty());
        assert_eq!(inc.total_weight(), 0.0);
    }
}
