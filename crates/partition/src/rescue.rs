//! The boundary-rescue market: the cross-shard edges of a plan.
//!
//! Cross-shard edges are unassignable by the shard solvers. Together they
//! form a second-stage matching market, built once per plan epoch
//! ([`epoch_market`]), that the service keeps as one more shard state and
//! re-solves every batch: each node offers the units its home shard leaves
//! it, and every unit the overlay holds is ceded by that shard. The ceding itself lives
//! in the service, which owns the shard states, their carried networks and
//! the deadline policy (DESIGN.md §13.2). [`validate_rescue`] re-checks a
//! proposed overlay against the residuals the shards leave: keeping the
//! instance algebra here makes it testable without a running service.

use mbta_graph::subgraph::{induce, Subgraph, SubgraphSpec};
use mbta_graph::{BipartiteGraph, EdgeId, TaskId, WorkerId};

/// The boundary market of one plan epoch: every edge of `g` that
/// `is_cross`, with both endpoints at their universe capacity. Nodes and
/// edges keep the universe's order, so `edge_back` ascends and a sorted
/// list of market edges maps to a sorted list of universe edges.
pub fn epoch_market(g: &BipartiteGraph, is_cross: impl Fn(EdgeId) -> bool) -> Subgraph {
    let mut w_in = vec![false; g.n_workers()];
    let mut t_in = vec![false; g.n_tasks()];
    for e in g.edges().filter(|&e| is_cross(e)) {
        w_in[g.worker_of(e).index()] = true;
        t_in[g.task_of(e).index()] = true;
    }
    let workers = g.workers().filter(|w| w_in[w.index()]);
    let workers: Vec<_> = workers.map(|w| (w, g.capacity(w))).collect();
    let tasks = g.tasks().filter(|t| t_in[t.index()]);
    let tasks: Vec<_> = tasks.map(|t| (t, g.demand(t))).collect();
    let spec = SubgraphSpec {
        workers: &workers,
        tasks: &tasks,
    };
    let sub = induce(g, &spec, is_cross);
    debug_assert!(sub.edge_back.windows(2).all(|p| p[0] < p[1]));
    sub
}

/// Counts violations of a proposed rescue assignment `chosen`, ascending
/// (as an overlay is): a chosen edge that is not cross-shard, chosen twice,
/// or a worker or task whose load exceeds its residual. Zero means the
/// union (shards + rescue) is feasible. Loads are counted over the
/// overlay's own nodes, in the pooled `ends` (empty between calls), so a
/// check costs the overlay, not the universe, and allocates nothing once
/// `ends` has grown.
pub fn validate_rescue(
    g: &BipartiteGraph,
    mut is_cross: impl FnMut(EdgeId) -> bool,
    w_residual: impl Fn(WorkerId) -> u32,
    t_residual: impl Fn(TaskId) -> u32,
    chosen: impl IntoIterator<Item = EdgeId>,
    ends: &mut (Vec<WorkerId>, Vec<TaskId>),
) -> usize {
    let (mut faults, mut last) = (0, None);
    for e in chosen {
        debug_assert!(last <= Some(e), "the overlay is not sorted");
        faults += usize::from(!is_cross(e)) + usize::from(last == Some(e));
        last = Some(e);
        ends.0.push(g.worker_of(e));
        ends.1.push(g.task_of(e));
    }
    faults + overloaded(&mut ends.0, w_residual) + overloaded(&mut ends.1, t_residual)
}

/// How many distinct nodes of `ends` — one entry per chosen edge at the
/// node — occur more often than `residual` allows; `ends` is left empty.
fn overloaded<N: Ord + Copy>(ends: &mut Vec<N>, residual: impl Fn(N) -> u32) -> usize {
    ends.sort_unstable();
    let load = ends.chunk_by(|a, b| a == b);
    let over = load.filter(|run| run.len() > residual(run[0]) as usize);
    let n = over.count();
    ends.clear();
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::from_edges;
    use mbta_graph::{TaskId, WorkerId};

    /// Two workers, two tasks, cross edges marked by parity.
    fn tiny() -> (BipartiteGraph, Vec<f64>) {
        let g = from_edges(
            &[1, 2],
            &[1, 1],
            &[
                (0, 0, 0.9, 0.9),
                (0, 1, 0.8, 0.8),
                (1, 0, 0.7, 0.7),
                (1, 1, 0.6, 0.6),
            ],
        );
        let w = vec![0.9, 0.8, 0.7, 0.6];
        (g, w)
    }

    fn ids(raw: &[u32]) -> Vec<EdgeId> {
        raw.iter().map(|&e| EdgeId::new(e)).collect()
    }

    #[test]
    fn epoch_market_is_the_cross_edges_at_universe_capacity() {
        let (g, _) = tiny();
        // Only worker 1's edges are cross.
        let sub = epoch_market(&g, |e| e.index() >= 2);
        assert_eq!(sub.edge_back, ids(&[2, 3]));
        assert_eq!(sub.worker_back, vec![WorkerId::new(1)]);
        assert_eq!(sub.task_back, vec![TaskId::new(0), TaskId::new(1)]);
        assert_eq!(sub.graph.capacities(), [2]);
        assert_eq!(sub.graph.demands(), [1, 1]);
        // A plan that cuts nothing has an empty market, not a panic.
        assert_eq!(epoch_market(&g, |_| false).graph.n_edges(), 0);
    }

    #[test]
    fn validator_counts_each_failure_mode() {
        let ((g, _), mut pool) = (tiny(), Default::default());
        // Edge 0 is intra (not cross) and chosen twice (two not-cross
        // hits plus one duplicate), and worker 0's residual is 0: four
        // violations in all.
        let v = validate_rescue(
            &g,
            |e| e.index() != 0,
            |w| [0, 2][w.index()],
            |_| 2,
            [EdgeId::new(0), EdgeId::new(0)],
            &mut pool,
        );
        assert_eq!(v, 4);
        // A clean rescue passes.
        let v = validate_rescue(&g, |_| true, |_| 1, |_| 1, [EdgeId::new(3)], &mut pool);
        assert_eq!(v, 0);
    }

    #[test]
    fn validator_counts_a_duplicate_once_per_repeat() {
        let ((g, _), mut pool) = (tiny(), Default::default());
        let v = validate_rescue(&g, |_| true, |_| 4, |_| 4, ids(&[1, 3, 3, 3]), &mut pool);
        assert_eq!(v, 2);
    }

    #[test]
    fn validator_counts_each_non_cross_edge() {
        let ((g, _), mut pool) = (tiny(), Default::default());
        let v = validate_rescue(
            &g,
            |e| e.index() == 3,
            |_| 2,
            |_| 2,
            ids(&[0, 2, 3]),
            &mut pool,
        );
        assert_eq!(v, 2);
    }

    #[test]
    fn validator_counts_each_overloaded_node_once() {
        let ((g, _), mut pool) = (tiny(), Default::default());
        // Worker 1 takes both its edges on a residual of 1; tasks 0 and 1
        // take one each. One violation, however far over.
        let v = validate_rescue(&g, |_| true, |_| 1, |_| 1, ids(&[2, 3]), &mut pool);
        assert_eq!(v, 1);
        // Task 0 takes edges 0 and 2 on a residual of 1: one more.
        let v = validate_rescue(&g, |_| true, |_| 2, |_| 1, ids(&[0, 2]), &mut pool);
        assert_eq!(v, 1);
        // A residual of 0 is overloaded by a single edge, at both ends.
        let v = validate_rescue(&g, |_| true, |_| 0, |_| 0, ids(&[1]), &mut pool);
        assert_eq!(v, 2);
    }
}
