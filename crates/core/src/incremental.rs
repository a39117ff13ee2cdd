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

use mbta_graph::{BipartiteGraph, EdgeId, TaskId, WorkerId};
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
    w_load: Vec<u32>,
    t_load: Vec<u32>,
    worker_active: Vec<bool>,
    task_active: Vec<bool>,
    total: f64,
    /// Assigned edges, kept by `insert` and `remove`.
    assigned: usize,
    /// The change set: each edge flipped since the last drain, once, with
    /// whether it was assigned before that first flip. `dirty` marks the
    /// recorded edges.
    changed: Vec<(EdgeId, bool)>,
    dirty: Vec<bool>,
    /// Pooled buffers, empty between calls: a deactivation's dropped edges,
    /// and a repair's candidates (a reseed's sorted seed).
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
        let mut s = Self {
            g,
            weights,
            in_matching: vec![false; g.n_edges()],
            w_load: vec![0; g.n_workers()],
            t_load: vec![0; g.n_tasks()],
            worker_active: vec![true; g.n_workers()],
            task_active: vec![true; g.n_tasks()],
            total: 0.0,
            assigned: 0,
            changed: Vec::new(),
            dirty: vec![false; g.n_edges()],
            dropped: Vec::new(),
            candidates: Vec::new(),
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
        self.worker_active[w.index()]
    }

    /// Whether a task is currently active.
    pub fn task_active(&self, t: TaskId) -> bool {
        self.task_active[t.index()]
    }

    /// Snapshot of the current assignment, ascending by edge id, in one
    /// allocation.
    pub fn matching(&self) -> Matching {
        let mut edges = Vec::with_capacity(self.assigned);
        let all = (0..self.g.n_edges() as u32).map(EdgeId::new);
        edges.extend(all.filter(|e| self.in_matching[e.index()]));
        Matching::from_edges(edges)
    }

    fn insert(&mut self, e: EdgeId) {
        debug_assert!(!self.in_matching[e.index()]);
        self.record(e);
        self.in_matching[e.index()] = true;
        self.assigned += 1;
        self.w_load[self.g.worker_of(e).index()] += 1;
        self.t_load[self.g.task_of(e).index()] += 1;
        self.total += self.weights[e.index()];
    }

    fn remove(&mut self, e: EdgeId) {
        debug_assert!(self.in_matching[e.index()]);
        self.record(e);
        self.in_matching[e.index()] = false;
        self.assigned -= 1;
        self.w_load[self.g.worker_of(e).index()] -= 1;
        self.t_load[self.g.task_of(e).index()] -= 1;
        self.total -= self.weights[e.index()];
    }

    /// Enters `e` in the change set at its first flip since the last drain.
    fn record(&mut self, e: EdgeId) {
        if !self.dirty[e.index()] {
            self.dirty[e.index()] = true;
            self.changed.push((e, self.in_matching[e.index()]));
        }
    }

    /// Whether edge `e` could be added right now. Non-finite weights are
    /// never addable: repair must not poison the running total.
    fn addable(&self, e: EdgeId) -> bool {
        let w = self.g.worker_of(e);
        let t = self.g.task_of(e);
        !self.in_matching[e.index()]
            && self.weights[e.index()] > 0.0
            && self.weights[e.index()].is_finite()
            && self.worker_active[w.index()]
            && self.task_active[t.index()]
            && self.w_load[w.index()] < self.g.capacity(w)
            && self.t_load[t.index()] < self.g.demand(t)
    }

    /// Greedily fills a task's remaining demand from its best addable edges.
    fn repair_task(&mut self, t: TaskId) {
        if self.task_active[t.index()] {
            let g = self.g;
            self.fill(g.task_edges(t), |s| s.t_load[t.index()] >= g.demand(t));
        }
    }

    /// Greedily fills a worker's remaining capacity.
    fn repair_worker(&mut self, w: WorkerId) {
        if self.worker_active[w.index()] {
            let g = self.g;
            self.fill(g.worker_edges(w), |s| s.w_load[w.index()] >= g.capacity(w));
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
        if !self.worker_active[w.index()] {
            return 0;
        }
        self.worker_active[w.index()] = false;
        let g = self.g;
        self.drop_all(g.worker_edges(w), |s, e| s.repair_task(g.task_of(e)))
    }

    /// Deactivates a task (cancelled): drops its assignments and repairs
    /// the workers that were serving it. Returns dropped edge count.
    pub fn deactivate_task(&mut self, t: TaskId) -> usize {
        if !self.task_active[t.index()] {
            return 0;
        }
        self.task_active[t.index()] = false;
        let g = self.g;
        self.drop_all(g.task_edges(t), |s, e| s.repair_worker(g.worker_of(e)))
    }

    /// Unassigns every assigned edge of `edges`, then runs `repair` on
    /// each dropped edge in turn. Returns how many were dropped.
    fn drop_all(
        &mut self,
        edges: impl Iterator<Item = EdgeId>,
        mut repair: impl FnMut(&mut Self, EdgeId),
    ) -> usize {
        let mut dropped = std::mem::take(&mut self.dropped);
        dropped.extend(edges.filter(|&e| self.in_matching[e.index()]));
        for &e in &dropped {
            self.remove(e);
        }
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
        if !self.worker_active[w.index()] {
            self.worker_active[w.index()] = true;
            self.repair_worker(w);
        }
    }

    /// Re-activates a task and greedily fills its demand.
    pub fn activate_task(&mut self, t: TaskId) {
        if !self.task_active[t.index()] {
            self.task_active[t.index()] = true;
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
        m.validate(self.g)?;
        for &e in &m.edges {
            if !self.weights[e.index()].is_finite() {
                return Err(SeedRejection::NonFiniteWeight {
                    edge: e.raw(),
                    weight: self.weights[e.index()],
                });
            }
            if !self.worker_active[self.g.worker_of(e).index()]
                || !self.task_active[self.g.task_of(e).index()]
            {
                return Err(SeedRejection::InactiveEndpoint { edge: e.raw() });
            }
        }
        // Apply the difference, so the change set holds only what `m`
        // changes: drop the assigned edges `m` leaves out, then add its
        // new ones.
        let mut keep = std::mem::take(&mut self.candidates);
        keep.extend_from_slice(&m.edges);
        keep.sort_unstable();
        for e in (0..self.g.n_edges() as u32).map(EdgeId::new) {
            if self.in_matching[e.index()] && keep.binary_search(&e).is_err() {
                self.remove(e);
            }
        }
        for &e in &m.edges {
            if !self.in_matching[e.index()] {
                self.insert(e);
            }
        }
        keep.clear();
        self.candidates = keep;
        Ok(())
    }

    /// Updates the weight of one edge (a benefit update flowing through the
    /// market event stream). If the edge is currently assigned, the running
    /// total is adjusted; a non-finite update on an assigned edge evicts it
    /// (while the old finite weight is still in place, so the total stays
    /// clean) and greedily repairs both endpoints.
    pub fn set_weight(&mut self, e: EdgeId, w: f64) {
        let i = e.index();
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
    pub fn active_weights(&self) -> Vec<f64> {
        self.g
            .edges()
            .map(|e| {
                if self.worker_active[self.g.worker_of(e).index()]
                    && self.task_active[self.g.task_of(e).index()]
                {
                    self.weights[e.index()]
                } else {
                    0.0
                }
            })
            .collect()
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

    /// Current assigned load of a worker.
    pub fn worker_load(&self, w: WorkerId) -> u32 {
        self.w_load[w.index()]
    }

    /// Current assigned load of a task.
    pub fn task_load(&self, t: TaskId) -> u32 {
        self.t_load[t.index()]
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
    /// total consistency.
    pub fn check_invariants(&self) {
        let m = self.matching();
        m.validate(self.g).expect("maintained matching feasible");
        assert_eq!(self.len(), m.len(), "assigned-edge count drift");
        assert_eq!(self.is_empty(), m.is_empty());
        for &e in &m.edges {
            assert!(self.worker_active[self.g.worker_of(e).index()]);
            assert!(self.task_active[self.g.task_of(e).index()]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::{from_edges, random_bipartite, RandomGraphSpec};
    use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
    use mbta_util::SplitMix64;

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
