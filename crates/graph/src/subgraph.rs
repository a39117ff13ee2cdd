//! Induced subgraphs with id mappings.
//!
//! Several layers need to solve on a *restriction* of the market — the
//! batch-online engine solves each arrival batch against remaining demand,
//! the incremental maintainer reasons about the active sub-market — and
//! hand-rolling the node/edge remapping at each call site is exactly the
//! kind of off-by-one factory this module exists to close. A
//! [`SubgraphSpec`] selects workers (with capacity overrides), tasks (with
//! demand overrides) and an edge predicate; [`induce`] builds the small
//! graph plus the maps back to the parent's ids.

use crate::builder::GraphBuilder;
use crate::{BipartiteGraph, EdgeId, TaskId, WorkerId};
use std::sync::Arc;

/// Selection for [`induce`].
pub struct SubgraphSpec<'a> {
    /// Selected workers (parent ids) with the capacity each should have in
    /// the subgraph (e.g. remaining capacity). Zero-capacity entries are
    /// dropped (the builder rejects them, and they cannot matter).
    pub workers: &'a [(WorkerId, u32)],
    /// Selected tasks (parent ids) with subgraph demands; zero-demand
    /// entries are dropped.
    pub tasks: &'a [(TaskId, u32)],
}

/// An induced subgraph plus the maps back to parent ids.
pub struct Subgraph {
    /// The induced graph, shared: a solver thread may hold it past the
    /// borrow of its owner.
    pub graph: Arc<BipartiteGraph>,
    /// Subgraph worker id → parent worker id.
    pub worker_back: Vec<WorkerId>,
    /// Subgraph task id → parent task id.
    pub task_back: Vec<TaskId>,
    /// Subgraph edge id → parent edge id.
    pub edge_back: Vec<EdgeId>,
}

impl Subgraph {
    /// Maps a subgraph edge back to the parent edge.
    pub fn parent_edge(&self, e: EdgeId) -> EdgeId {
        self.edge_back[e.index()]
    }

    /// Extracts parent-edge weights for the subgraph's edges.
    pub fn project_weights(&self, parent_weights: &[f64]) -> Vec<f64> {
        self.edge_back
            .iter()
            .map(|e| parent_weights[e.index()])
            .collect()
    }
}

/// Builds the subgraph induced by the spec: it contains every parent edge
/// whose endpoints are both selected (with positive capacity/demand) and
/// which passes `edge_filter`.
///
/// # Panics
/// Panics if a worker or task id appears twice in the spec, or is out of
/// range for the parent graph.
pub fn induce(
    parent: &BipartiteGraph,
    spec: &SubgraphSpec<'_>,
    mut edge_filter: impl FnMut(EdgeId) -> bool,
) -> Subgraph {
    // Parent-id → subgraph-id maps (u32::MAX = not selected).
    const NONE: u32 = u32::MAX;
    let mut w_map = vec![NONE; parent.n_workers()];
    let mut t_map = vec![NONE; parent.n_tasks()];

    // Sized for every edge of the selected workers: the builder's duplicate
    // check would otherwise rehash as the subgraph grows.
    let degree = |&(w, _): &(WorkerId, u32)| parent.worker_degree(w);
    let n_edges = spec.workers.iter().map(degree).sum();
    let mut b = GraphBuilder::with_capacity(spec.workers.len(), spec.tasks.len(), n_edges);
    let mut worker_back = Vec::new();
    for &(w, cap) in spec.workers {
        if cap == 0 {
            continue;
        }
        assert!(
            w_map[w.index()] == NONE,
            "worker {w} selected twice in subgraph spec"
        );
        let sub = b.add_worker(cap);
        w_map[w.index()] = sub.raw();
        worker_back.push(w);
    }
    let mut task_back = Vec::new();
    for &(t, dem) in spec.tasks {
        if dem == 0 {
            continue;
        }
        assert!(
            t_map[t.index()] == NONE,
            "task {t} selected twice in subgraph spec"
        );
        let sub = b.add_task(dem);
        t_map[t.index()] = sub.raw();
        task_back.push(t);
    }

    let mut edge_back = Vec::new();
    // Iterate in the *selected worker* order so subgraph edge ids follow
    // the builder's forward-CSR order deterministically.
    for &w in &worker_back {
        for e in parent.worker_edges(w) {
            let t = parent.task_of(e);
            if t_map[t.index()] == NONE || !edge_filter(e) {
                continue;
            }
            b.add_edge(
                WorkerId::new(w_map[w.index()]),
                TaskId::new(t_map[t.index()]),
                parent.rb(e),
                parent.wb(e),
            )
            .expect("parent edges are duplicate-free");
            edge_back.push(e);
        }
    }
    Subgraph {
        graph: Arc::new(b.build().expect("induced graph is valid")),
        worker_back,
        task_back,
        edge_back,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::from_edges;

    fn parent() -> BipartiteGraph {
        from_edges(
            &[2, 1, 1],
            &[1, 2],
            &[
                (0, 0, 0.1, 0.2),
                (0, 1, 0.3, 0.4),
                (1, 0, 0.5, 0.6),
                (2, 1, 0.7, 0.8),
            ],
        )
    }

    #[test]
    fn induces_selected_portion() {
        let g = parent();
        let sub = induce(
            &g,
            &SubgraphSpec {
                workers: &[(WorkerId::new(0), 1), (WorkerId::new(2), 1)],
                tasks: &[(TaskId::new(1), 2)],
            },
            |_| true,
        );
        // Edges (0,1) and (2,1) survive.
        assert_eq!(sub.graph.n_workers(), 2);
        assert_eq!(sub.graph.n_tasks(), 1);
        assert_eq!(sub.graph.n_edges(), 2);
        // Weights carried over; back-maps correct.
        let e0 = EdgeId::new(0);
        assert_eq!(sub.graph.rb(e0), 0.3);
        assert_eq!(sub.parent_edge(e0), EdgeId::new(1));
        assert_eq!(sub.worker_back, vec![WorkerId::new(0), WorkerId::new(2)]);
        assert_eq!(sub.task_back, vec![TaskId::new(1)]);
        // Capacity override applied (parent had 2, we asked for 1).
        assert_eq!(sub.graph.capacity(WorkerId::new(0)), 1);
    }

    #[test]
    fn zero_capacity_entries_dropped() {
        let g = parent();
        let sub = induce(
            &g,
            &SubgraphSpec {
                workers: &[(WorkerId::new(0), 0), (WorkerId::new(1), 1)],
                tasks: &[(TaskId::new(0), 1), (TaskId::new(1), 0)],
            },
            |_| true,
        );
        assert_eq!(sub.graph.n_workers(), 1);
        assert_eq!(sub.graph.n_tasks(), 1);
        assert_eq!(sub.graph.n_edges(), 1); // only (1, 0)
        assert_eq!(sub.parent_edge(EdgeId::new(0)), EdgeId::new(2));
    }

    #[test]
    fn edge_filter_applies() {
        let g = parent();
        let sub = induce(
            &g,
            &SubgraphSpec {
                workers: &[(WorkerId::new(0), 2)],
                tasks: &[(TaskId::new(0), 1), (TaskId::new(1), 2)],
            },
            |e| g.rb(e) > 0.2,
        );
        assert_eq!(sub.graph.n_edges(), 1); // (0,1) with rb 0.3
    }

    #[test]
    fn project_weights_follows_edge_back() {
        let g = parent();
        let sub = induce(
            &g,
            &SubgraphSpec {
                workers: &[(WorkerId::new(1), 1), (WorkerId::new(2), 1)],
                tasks: &[(TaskId::new(0), 1), (TaskId::new(1), 1)],
            },
            |_| true,
        );
        let parent_weights = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(sub.project_weights(&parent_weights), vec![30.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "selected twice")]
    fn duplicate_selection_panics() {
        let g = parent();
        induce(
            &g,
            &SubgraphSpec {
                workers: &[(WorkerId::new(0), 1), (WorkerId::new(0), 1)],
                tasks: &[],
            },
            |_| true,
        );
    }

    #[test]
    fn empty_spec_gives_empty_graph() {
        let g = parent();
        let sub = induce(
            &g,
            &SubgraphSpec {
                workers: &[],
                tasks: &[],
            },
            |_| true,
        );
        assert_eq!(sub.graph.n_workers(), 0);
        assert_eq!(sub.graph.n_edges(), 0);
    }
}
