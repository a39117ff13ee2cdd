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

/// The feasible matching one batch's re-solve of the epoch market starts
/// from, as ascending market edge ids, or `None` when no edge has capacity
/// left at both ends (nothing to solve; the overlay empties).
///
/// `w_cap` / `t_cap` hold each market node's capacity for this batch — its
/// residual, 0 for a node that is not live — and `open` the market edges
/// with capacity at both ends, ascending, as the market's solver lists
/// them (`WarmSolver::open_edges`).
/// `prev` (the previous overlay, ascending) is first trimmed, in order, to
/// the edges that still fit; the rest of the capacity is then filled
/// greedily from `open`, heaviest positive-weight edge first (ties to the
/// lower id), so the exact solve starts a few augmentations from its
/// optimum instead of from the trimmed overlay alone. The seed draws on
/// the capacities as it goes and hands them back before it returns: what
/// it costs is the overlay and the open edges, not the market.
pub fn rescue_seed(
    market: &BipartiteGraph,
    weights: &[f64],
    open: &[EdgeId],
    prev: &[EdgeId],
    w_cap: &mut [u32],
    t_cap: &mut [u32],
) -> Option<Vec<EdgeId>> {
    let fits = |w_cap: &[u32], t_cap: &[u32], e: EdgeId| {
        w_cap[market.worker_of(e).index()] > 0 && t_cap[market.task_of(e).index()] > 0
    };
    debug_assert!(open.iter().all(|&e| fits(w_cap, t_cap, e)));
    if open.is_empty() {
        return None;
    }
    let mut take = |e: EdgeId| {
        let fits = fits(w_cap, t_cap, e);
        if fits {
            w_cap[market.worker_of(e).index()] -= 1;
            t_cap[market.task_of(e).index()] -= 1;
        }
        fits
    };
    let mut seed: Vec<EdgeId> = prev.iter().copied().filter(|&e| take(e)).collect();
    let candidate = |e: &EdgeId| weights[e.index()] > 0.0 && seed.binary_search(e).is_err();
    let mut fill: Vec<EdgeId> = open.iter().copied().filter(candidate).collect();
    fill.sort_unstable_by(|a, b| {
        let by_weight = weights[b.index()].total_cmp(&weights[a.index()]);
        by_weight.then(a.cmp(b))
    });
    seed.extend(fill.into_iter().filter(|&e| take(e)));
    for &e in &seed {
        w_cap[market.worker_of(e).index()] += 1;
        t_cap[market.task_of(e).index()] += 1;
    }
    seed.sort_unstable();
    Some(seed)
}

/// Counts violations of a proposed rescue assignment `chosen`, ascending
/// (as an overlay is): a chosen edge that is not cross-shard, chosen twice,
/// or a worker or task whose load exceeds its residual. Zero means the
/// union (shards + rescue) is feasible. Loads are counted over the
/// overlay's own nodes, so a check costs the overlay, not the universe.
pub fn validate_rescue(
    g: &BipartiteGraph,
    mut is_cross: impl FnMut(EdgeId) -> bool,
    w_residual: impl Fn(WorkerId) -> u32,
    t_residual: impl Fn(TaskId) -> u32,
    chosen: &[EdgeId],
) -> usize {
    debug_assert!(chosen.is_sorted(), "the overlay is not sorted");
    let not_cross = chosen.iter().filter(|&&e| !is_cross(e)).count();
    let repeated = chosen.windows(2).filter(|p| p[0] == p[1]).count();
    let workers = chosen.iter().map(|&e| g.worker_of(e)).collect();
    let tasks = chosen.iter().map(|&e| g.task_of(e)).collect();
    not_cross + repeated + overloaded(workers, w_residual) + overloaded(tasks, t_residual)
}

/// How many distinct nodes of `ends` — one entry per chosen edge at the
/// node — occur more often than `residual` allows.
fn overloaded<N: Ord + Copy>(mut ends: Vec<N>, residual: impl Fn(N) -> u32) -> usize {
    ends.sort_unstable();
    let load = ends.chunk_by(|a, b| a == b);
    load.filter(|run| run.len() > residual(run[0]) as usize)
        .count()
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

    /// The market edges open under `(w_cap, t_cap)`, ascending — what the
    /// market's solver lists after `set_capacities`.
    fn open_under(g: &BipartiteGraph, w_cap: &[u32], t_cap: &[u32]) -> Vec<EdgeId> {
        let open =
            |e: &EdgeId| w_cap[g.worker_of(*e).index()] > 0 && t_cap[g.task_of(*e).index()] > 0;
        g.edges().filter(open).collect()
    }

    #[test]
    fn seed_trims_the_previous_overlay_then_fills_heaviest_first() {
        let (g, w) = tiny();
        // Everything open: nothing carried, so the fill is plain greedy —
        // 0.9 (w0–t0) exhausts worker 0 and task 0, 0.6 (w1–t1) still fits.
        let (mut wl, mut tl) = (vec![1, 2], vec![1, 1]);
        let open = open_under(&g, &wl, &tl);
        let seed = rescue_seed(&g, &w, &open, &[], &mut wl, &mut tl);
        assert_eq!(seed, Some(ids(&[0, 3])));
        assert_eq!((wl, tl), (vec![1, 2], vec![1, 1]), "capacities handed back");
        // A carried edge that still fits is kept ahead of a heavier rival
        // (edge 2 holds task 0 against edge 0), one on a node that left the
        // market is dropped (edge 3: task 1 has nothing left), and a
        // zero-weight edge is never filled in.
        let (mut wl, mut tl) = (vec![1, 2], vec![1, 0]);
        let (w, open) = ([0.9, 0.8, 0.7, 0.0], open_under(&g, &wl, &tl));
        let seed = rescue_seed(&g, &w, &open, &ids(&[2, 3]), &mut wl, &mut tl);
        assert_eq!(seed, Some(ids(&[2])));
        assert_eq!((wl, tl), (vec![1, 2], vec![1, 0]));
    }

    #[test]
    fn no_open_edge_means_no_seed() {
        let (g, w) = tiny();
        // Worker 0 is out and worker 1's tasks are exhausted.
        let (mut wl, mut tl) = (vec![0, 2], vec![0, 0]);
        assert_eq!(rescue_seed(&g, &w, &[], &ids(&[0]), &mut wl, &mut tl), None);
        assert_eq!((wl, tl), (vec![0, 2], vec![0, 0]));
    }

    /// The reference seed: every market edge scanned for capacity at both
    /// ends, with the capacities left as the seed leaves them.
    fn seed_by_scan(
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

    /// Over random residual patterns — most nodes closed, weights with
    /// ties and zeros, the previous seed carried — the seed filled from
    /// the open edges alone is the one the scan of every edge builds.
    #[test]
    fn open_only_seed_equals_the_all_edges_scan() {
        use mbta_graph::random::{random_bipartite, RandomGraphSpec};
        let spec = RandomGraphSpec {
            n_workers: 60,
            n_tasks: 40,
            avg_degree: 5.0,
            capacity: 2,
            demand: 2,
        };
        let mut seeded = 0;
        for round in 0..200u64 {
            let g = random_bipartite(&spec, round % 10);
            let hash = |i: usize, salt: u64| {
                let h = (i as u64 ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(round.wrapping_mul(0xBF58_476D_1CE4_E5B9));
                (h >> 33) as u32
            };
            // About a third of the nodes open, with 1–3 units each.
            let caps = |n: usize, salt| -> Vec<u32> {
                let cap = |i| match hash(i, salt) % 6 {
                    c @ 0..=1 => c + 1,
                    5 if round % 2 == 0 => 3,
                    _ => 0,
                };
                (0..n).map(cap).collect()
            };
            let (mut wl, mut tl) = (caps(g.n_workers(), 1), caps(g.n_tasks(), 2));
            // Four weight levels, zero among them, so ties are common.
            let w: Vec<f64> = (0..g.n_edges())
                .map(|e| f64::from(hash(e, 3) % 4) / 4.0)
                .collect();
            let prev: Vec<EdgeId> = g.edges().filter(|e| hash(e.index(), 4) % 5 == 0).collect();
            let open = open_under(&g, &wl, &tl);
            let (mut ws, mut ts) = (wl.clone(), tl.clone());
            let expected = seed_by_scan(&g, &w, &prev, &mut ws, &mut ts);
            let before = (wl.clone(), tl.clone());
            let seed = rescue_seed(&g, &w, &open, &prev, &mut wl, &mut tl);
            assert_eq!(seed, expected, "round {round}");
            assert_eq!(
                (wl, tl),
                before,
                "round {round}: capacities not handed back"
            );
            seeded += usize::from(seed.is_some_and(|s| !s.is_empty()));
        }
        assert!(seeded > 150, "only {seeded} rounds seeded anything");
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
            |w| [0, 2][w.index()],
            |_| 2,
            &[EdgeId::new(0), EdgeId::new(0)],
        );
        assert_eq!(v, 4);
        // A clean rescue passes.
        let v = validate_rescue(&g, |_| true, |_| 1, |_| 1, &[EdgeId::new(3)]);
        assert_eq!(v, 0);
    }

    #[test]
    fn validator_counts_a_duplicate_once_per_repeat() {
        let (g, _) = tiny();
        let v = validate_rescue(&g, |_| true, |_| 4, |_| 4, &ids(&[1, 3, 3, 3]));
        assert_eq!(v, 2);
    }

    #[test]
    fn validator_counts_each_non_cross_edge() {
        let (g, _) = tiny();
        let v = validate_rescue(&g, |e| e.index() == 3, |_| 2, |_| 2, &ids(&[0, 2, 3]));
        assert_eq!(v, 2);
    }

    #[test]
    fn validator_counts_each_overloaded_node_once() {
        let (g, _) = tiny();
        // Worker 1 takes both its edges on a residual of 1; tasks 0 and 1
        // take one each. One violation, however far over.
        let v = validate_rescue(&g, |_| true, |_| 1, |_| 1, &ids(&[2, 3]));
        assert_eq!(v, 1);
        // Task 0 takes edges 0 and 2 on a residual of 1: one more.
        let v = validate_rescue(&g, |_| true, |_| 2, |_| 1, &ids(&[0, 2]));
        assert_eq!(v, 1);
        // A residual of 0 is overloaded by a single edge, at both ends.
        let v = validate_rescue(&g, |_| true, |_| 0, |_| 0, &ids(&[1]));
        assert_eq!(v, 2);
    }
}
