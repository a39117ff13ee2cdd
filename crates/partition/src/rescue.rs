//! The boundary-rescue market: residual capacity vs cross-shard edges.
//!
//! After the per-shard solves of a batch merge, each worker/task may
//! have *residual* capacity (its universe capacity minus the load its
//! home shard assigned). Cross-shard edges — unassignable by the shard
//! solvers — whose endpoints both have residual capacity form a small
//! second-stage matching market: anything matched there is pure
//! recovered cut weight, and the union with the intra-shard assignments
//! stays feasible because the rescue instance's capacities *are* the
//! residuals.
//!
//! For one plan the cross-edge set is fixed — only residuals, liveness
//! and weights move between batches — so the market is built once per plan
//! epoch ([`epoch_market`]) and re-solved every batch under that batch's
//! residuals as node capacities, from a seed that is the previous overlay
//! cut down to what still fits and refilled greedily ([`rescue_seed`]).
//! [`validate_rescue`] re-checks a proposed overlay. The solve itself
//! lives in the service (it owns the carried solver and the deadline
//! policy); keeping the instance algebra here makes it testable without a
//! running service.

use mbta_graph::subgraph::{induce, Subgraph, SubgraphSpec};
use mbta_graph::{BipartiteGraph, EdgeId};

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

/// The feasible matching one batch's re-solve of the epoch market starts
/// from, as ascending market edge ids, or `None` when no edge has capacity
/// left at both ends (nothing to solve; the overlay empties).
///
/// `w_left` / `t_left` hold each market node's capacity for this batch on
/// entry — its residual, 0 for a node that is not live — and what the seed
/// leaves of it on return. `prev` (the previous overlay, ascending) is
/// first trimmed, in order, to the edges that still fit; the rest of the
/// capacity is then filled greedily, heaviest positive-weight edge first
/// (ties to the lower id), so the exact solve starts a few augmentations
/// from its optimum instead of from the trimmed overlay alone.
pub fn rescue_seed(
    market: &BipartiteGraph,
    weights: &[f64],
    prev: &[EdgeId],
    w_left: &mut [u32],
    t_left: &mut [u32],
) -> Option<Vec<EdgeId>> {
    let open = |w_left: &[u32], t_left: &[u32], e: EdgeId| {
        w_left[market.worker_of(e).index()] > 0 && t_left[market.task_of(e).index()] > 0
    };
    let mut fill: Vec<_> = market
        .edges()
        .filter(|&e| open(w_left, t_left, e))
        .collect();
    if fill.is_empty() {
        return None;
    }
    let mut take = |e: EdgeId| {
        let fits = open(w_left, t_left, e);
        if fits {
            w_left[market.worker_of(e).index()] -= 1;
            t_left[market.task_of(e).index()] -= 1;
        }
        fits
    };
    let mut seed: Vec<EdgeId> = prev.iter().copied().filter(|&e| take(e)).collect();
    fill.retain(|e| weights[e.index()] > 0.0 && seed.binary_search(e).is_err());
    fill.sort_unstable_by(|a, b| {
        let by_weight = weights[b.index()].total_cmp(&weights[a.index()]);
        by_weight.then(a.cmp(b))
    });
    seed.extend(fill.into_iter().filter(|&e| take(e)));
    seed.sort_unstable();
    Some(seed)
}

/// Counts violations of a proposed rescue assignment: a chosen edge that
/// is not cross-shard, chosen twice, or endpoint load exceeding the
/// residual. Zero means the union (shards + rescue) is feasible.
pub fn validate_rescue(
    g: &BipartiteGraph,
    mut is_cross: impl FnMut(EdgeId) -> bool,
    w_residual: &[u32],
    t_residual: &[u32],
    chosen: &[EdgeId],
) -> usize {
    let mut violations = 0usize;
    let mut seen = vec![false; g.n_edges()];
    let mut w_load = vec![0u32; g.n_workers()];
    let mut t_load = vec![0u32; g.n_tasks()];
    for &e in chosen {
        if !is_cross(e) {
            violations += 1;
        }
        if std::mem::replace(&mut seen[e.index()], true) {
            violations += 1;
        }
        w_load[g.worker_of(e).index()] += 1;
        t_load[g.task_of(e).index()] += 1;
    }
    violations += g
        .workers()
        .filter(|&w| w_load[w.index()] > w_residual[w.index()])
        .count();
    violations += g
        .tasks()
        .filter(|&t| t_load[t.index()] > t_residual[t.index()])
        .count();
    violations
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
    fn seed_trims_the_previous_overlay_then_fills_heaviest_first() {
        let (g, w) = tiny();
        // Everything open: nothing carried, so the fill is plain greedy —
        // 0.9 (w0–t0) exhausts worker 0 and task 0, 0.6 (w1–t1) still fits.
        let (mut wl, mut tl) = (vec![1, 2], vec![1, 1]);
        let seed = rescue_seed(&g, &w, &[], &mut wl, &mut tl);
        assert_eq!(seed, Some(ids(&[0, 3])));
        assert_eq!((wl, tl), (vec![0, 1], vec![0, 0]));
        // A carried edge that still fits is kept ahead of a heavier rival
        // (edge 2 holds task 0 against edge 0), one on a node that left the
        // market is dropped (edge 3: task 1 has nothing left), and a
        // zero-weight edge is never filled in.
        let (mut wl, mut tl) = (vec![1, 2], vec![1, 0]);
        let seed = rescue_seed(&g, &[0.9, 0.8, 0.7, 0.0], &ids(&[2, 3]), &mut wl, &mut tl);
        assert_eq!(seed, Some(ids(&[2])));
        assert_eq!((wl, tl), (vec![1, 1], vec![0, 0]));
    }

    #[test]
    fn no_open_edge_means_no_seed() {
        let (g, w) = tiny();
        // Worker 0 is out and worker 1's tasks are exhausted.
        let (mut wl, mut tl) = (vec![0, 2], vec![0, 0]);
        assert_eq!(rescue_seed(&g, &w, &ids(&[0]), &mut wl, &mut tl), None);
        assert_eq!((wl, tl), (vec![0, 2], vec![0, 0]));
    }

    #[test]
    fn validator_counts_each_failure_mode() {
        let (g, _) = tiny();
        // Edge 0 is intra (not cross) and chosen twice (two not-cross
        // hits plus one duplicate), and worker 0's residual is 0: four
        // violations in all.
        let v = validate_rescue(
            &g,
            |e| e.index() != 0,
            &[0, 2],
            &[2, 2],
            &[EdgeId::new(0), EdgeId::new(0)],
        );
        assert_eq!(v, 4);
        // A clean rescue passes.
        let v = validate_rescue(&g, |_| true, &[1, 1], &[1, 1], &[EdgeId::new(3)]);
        assert_eq!(v, 0);
    }
}
