//! Immutable CSR storage for the bipartite labor-market graph.
//!
//! Layout (all arrays dense, `u32`/`f64`):
//!
//! * forward CSR: `w_off[w]..w_off[w+1]` is the contiguous *edge id* range of
//!   worker `w`. Edge ids are assigned in this order, so the forward side
//!   needs no indirection array — `edge_task[eid]` and the weight arrays are
//!   indexed directly.
//! * reverse CSR: `t_off[t]..t_off[t+1]` indexes into `t_edges`, which holds
//!   edge ids incident to task `t` (in increasing worker order).
//!
//! This "edges sorted by left endpoint, right side via an id list" layout is
//! the smallest representation that gives O(deg) iteration from both sides,
//! which is what the matching algorithms need.

use crate::{EdgeId, TaskId, WorkerId};

/// Destructured graph: `(capacities, demands, edges as (worker, task, rb, wb))`.
pub type EdgeListParts = (Vec<u32>, Vec<u32>, Vec<(u32, u32, f64, f64)>);

/// Immutable bipartite labor-market graph. Construct via
/// [`GraphBuilder`](crate::builder::GraphBuilder) or
/// [`serial::read_graph`](crate::serial::read_graph).
#[derive(Debug, Clone, PartialEq)]
pub struct BipartiteGraph {
    capacities: Vec<u32>,
    demands: Vec<u32>,
    w_off: Vec<u32>,
    t_off: Vec<u32>,
    t_edges: Vec<u32>,
    edge_worker: Vec<u32>,
    edge_task: Vec<u32>,
    edge_rb: Vec<f64>,
    edge_wb: Vec<f64>,
}

impl BipartiteGraph {
    /// Assembles a graph from raw parts. Crate-internal: callers are the
    /// builder and the deserializer, both of which guarantee consistency.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        capacities: Vec<u32>,
        demands: Vec<u32>,
        w_off: Vec<u32>,
        t_off: Vec<u32>,
        t_edges: Vec<u32>,
        edge_worker: Vec<u32>,
        edge_task: Vec<u32>,
        edge_rb: Vec<f64>,
        edge_wb: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(w_off.len(), capacities.len() + 1);
        debug_assert_eq!(t_off.len(), demands.len() + 1);
        debug_assert_eq!(t_edges.len(), edge_task.len());
        debug_assert_eq!(edge_worker.len(), edge_task.len());
        debug_assert_eq!(edge_rb.len(), edge_task.len());
        debug_assert_eq!(edge_wb.len(), edge_task.len());
        Self {
            capacities,
            demands,
            w_off,
            t_off,
            t_edges,
            edge_worker,
            edge_task,
            edge_rb,
            edge_wb,
        }
    }

    /// Number of workers (left side).
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.capacities.len()
    }

    /// Number of tasks (right side).
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.demands.len()
    }

    /// Number of eligibility edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.edge_task.len()
    }

    /// Capacity (max concurrent tasks) of a worker.
    #[inline]
    pub fn capacity(&self, w: WorkerId) -> u32 {
        self.capacities[w.index()]
    }

    /// Demand (distinct workers needed) of a task.
    #[inline]
    pub fn demand(&self, t: TaskId) -> u32 {
        self.demands[t.index()]
    }

    /// All worker capacities, indexed by worker id.
    #[inline]
    pub fn capacities(&self) -> &[u32] {
        &self.capacities
    }

    /// All task demands, indexed by task id.
    #[inline]
    pub fn demands(&self) -> &[u32] {
        &self.demands
    }

    /// Worker endpoint of an edge.
    #[inline]
    pub fn worker_of(&self, e: EdgeId) -> WorkerId {
        WorkerId::new(self.edge_worker[e.index()])
    }

    /// Task endpoint of an edge.
    #[inline]
    pub fn task_of(&self, e: EdgeId) -> TaskId {
        TaskId::new(self.edge_task[e.index()])
    }

    /// Requester benefit of an edge (expected quality), in `[0, 1]`.
    #[inline]
    pub fn rb(&self, e: EdgeId) -> f64 {
        self.edge_rb[e.index()]
    }

    /// Worker benefit of an edge (worker utility), in `[0, 1]`.
    #[inline]
    pub fn wb(&self, e: EdgeId) -> f64 {
        self.edge_wb[e.index()]
    }

    /// Raw edge→task endpoint array, indexed by edge id.
    #[inline]
    pub fn edge_tasks(&self) -> &[u32] {
        &self.edge_task
    }

    /// Degree (number of eligible tasks) of a worker.
    #[inline]
    pub fn worker_degree(&self, w: WorkerId) -> usize {
        (self.w_off[w.index() + 1] - self.w_off[w.index()]) as usize
    }

    /// Degree (number of eligible workers) of a task.
    #[inline]
    pub fn task_degree(&self, t: TaskId) -> usize {
        (self.t_off[t.index() + 1] - self.t_off[t.index()]) as usize
    }

    /// Iterates the edge ids incident to a worker (in increasing task order
    /// of insertion).
    #[inline]
    pub fn worker_edges(&self, w: WorkerId) -> impl Iterator<Item = EdgeId> + '_ {
        (self.w_off[w.index()]..self.w_off[w.index() + 1]).map(EdgeId::new)
    }

    /// Iterates the edge ids incident to a task.
    #[inline]
    pub fn task_edges(&self, t: TaskId) -> impl Iterator<Item = EdgeId> + '_ {
        self.t_edges[self.t_off[t.index()] as usize..self.t_off[t.index() + 1] as usize]
            .iter()
            .map(|&e| EdgeId::new(e))
    }

    /// Iterates all worker ids.
    #[inline]
    pub fn workers(&self) -> impl Iterator<Item = WorkerId> {
        (0..self.n_workers() as u32).map(WorkerId::new)
    }

    /// Iterates all task ids.
    #[inline]
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> {
        (0..self.n_tasks() as u32).map(TaskId::new)
    }

    /// Iterates all edge ids.
    #[inline]
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.n_edges() as u32).map(EdgeId::new)
    }

    /// Looks up the edge between `w` and `t`, if any (O(deg(w)) scan —
    /// fine off the hot path; algorithms never need point lookups).
    pub fn find_edge(&self, w: WorkerId, t: TaskId) -> Option<EdgeId> {
        self.worker_edges(w).find(|&e| self.task_of(e) == t)
    }

    /// Total capacity over all workers (an upper bound on assignment size).
    pub fn total_capacity(&self) -> u64 {
        self.capacities.iter().map(|&c| u64::from(c)).sum()
    }

    /// Total demand over all tasks (the other upper bound).
    pub fn total_demand(&self) -> u64 {
        self.demands.iter().map(|&d| u64::from(d)).sum()
    }

    /// Destructures into `(capacities, demands, edge list)` triples — used by
    /// the serializer and by tests that want to rebuild a permuted instance.
    pub fn to_edge_list(&self) -> EdgeListParts {
        let edges = (0..self.n_edges())
            .map(|e| {
                (
                    self.edge_worker[e],
                    self.edge_task[e],
                    self.edge_rb[e],
                    self.edge_wb[e],
                )
            })
            .collect();
        (self.capacities.clone(), self.demands.clone(), edges)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::{TaskId, WorkerId};

    fn diamond() -> crate::BipartiteGraph {
        // 2 workers x 2 tasks, all 4 edges.
        let mut b = GraphBuilder::new();
        let ws = b.add_workers(2, 1);
        let ts = b.add_tasks(2, 1);
        for (i, &w) in ws.iter().enumerate() {
            for (j, &t) in ts.iter().enumerate() {
                b.add_edge(w, t, 0.1 * (i + 1) as f64, 0.2 * (j + 1) as f64)
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn adjacency_is_consistent_both_sides() {
        let g = diamond();
        for e in g.edges() {
            let w = g.worker_of(e);
            let t = g.task_of(e);
            assert!(g.worker_edges(w).any(|x| x == e));
            assert!(g.task_edges(t).any(|x| x == e));
        }
        assert_eq!(g.worker_degree(WorkerId::new(0)), 2);
        assert_eq!(g.task_degree(TaskId::new(1)), 2);
    }

    #[test]
    fn find_edge() {
        let g = diamond();
        let e = g.find_edge(WorkerId::new(1), TaskId::new(0)).unwrap();
        assert_eq!(g.worker_of(e), WorkerId::new(1));
        assert_eq!(g.task_of(e), TaskId::new(0));
        // Exhaustive graph: every pair present.
        assert!(g.find_edge(WorkerId::new(0), TaskId::new(1)).is_some());
    }

    #[test]
    fn totals() {
        let mut b = GraphBuilder::new();
        b.add_worker(3);
        b.add_worker(2);
        b.add_task(4);
        let g = b.build().unwrap();
        assert_eq!(g.total_capacity(), 5);
        assert_eq!(g.total_demand(), 4);
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = diamond();
        let (caps, dems, edges) = g.to_edge_list();
        let mut b = GraphBuilder::new();
        for c in caps {
            b.add_worker(c);
        }
        for d in dems {
            b.add_task(d);
        }
        for (w, t, rb, wb) in edges {
            b.add_edge(WorkerId::new(w), TaskId::new(t), rb, wb)
                .unwrap();
        }
        let g2 = b.build().unwrap();
        assert_eq!(g, g2);
    }
}
