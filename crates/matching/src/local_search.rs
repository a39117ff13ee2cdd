//! Swap-based local-search improvement (`LocalSearch` baseline).
//!
//! Takes any feasible matching and repeatedly applies two move types until a
//! full pass yields no improvement (or a pass budget is exhausted):
//!
//! 1. **Add** — a non-chosen edge whose endpoints both have slack.
//! 2. **Swap** — replace a chosen edge at a saturated endpoint with a
//!    heavier non-chosen edge; at most one eviction per endpoint, and the
//!    eviction chosen is the *lightest* chosen edge at that endpoint.
//! 3. **Split** (1-out-2-in) — drop one chosen edge `(w, t)` and insert the
//!    best non-chosen edge at `w` *and* the best non-chosen edge at `t`
//!    whose other endpoints have slack. This is the move that escapes the
//!    classic greedy trap (`0.9` blocking `0.8 + 0.7`).
//!
//! Each accepted move strictly increases the objective by at least `EPS`,
//! so termination is guaranteed. Local search closes most of the gap
//! between `GreedyMB` and `ExactMB` at a fraction of the exact solver's
//! cost — the classic quality/runtime midpoint the evaluation plots.

use crate::solution::Matching;
use mbta_graph::{BipartiteGraph, EdgeId};
use mbta_util::SolveCtl;

/// Minimal gain for a move to be accepted (guards float-noise livelock).
const EPS: f64 = 1e-12;

/// Outcome statistics of a [`local_search`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSearchStats {
    /// Completed improvement passes (including the final no-op pass).
    pub passes: u32,
    /// Accepted add moves.
    pub adds: u64,
    /// Accepted swap moves.
    pub swaps: u64,
    /// Accepted split (1-out-2-in) moves.
    pub splits: u64,
}

/// Improves `start` in place by add/swap moves; returns the improved
/// matching and move statistics. `max_passes` bounds the number of sweeps
/// over the edge list (each sweep is O(m · deg)).
pub fn local_search(
    g: &BipartiteGraph,
    weights: &[f64],
    start: Matching,
    max_passes: u32,
) -> (Matching, LocalSearchStats) {
    let (m, stats, _) = local_search_ctl(g, weights, start, max_passes, &SolveCtl::unlimited());
    (m, stats)
}

/// [`local_search`] with cooperative cancellation.
///
/// Every accepted move preserves feasibility, so the search can stop after
/// any move and return a valid matching no worse than `start` (objective
/// never decreases). Non-finite weights are tolerated: edges with NaN/±inf
/// weight are never inserted, and a NaN gain is treated as "not an
/// improvement". The returned `bool` is `false` iff the search was
/// interrupted before converging or exhausting `max_passes`.
pub fn local_search_ctl(
    g: &BipartiteGraph,
    weights: &[f64],
    start: Matching,
    max_passes: u32,
    ctl: &SolveCtl,
) -> (Matching, LocalSearchStats, bool) {
    assert_eq!(weights.len(), g.n_edges(), "weight slice length mismatch");
    debug_assert!(start.validate(g).is_ok());

    let m = g.n_edges();
    let mut in_matching = vec![false; m];
    for &e in &start.edges {
        in_matching[e.index()] = true;
    }
    let mut w_load = start.worker_loads(g);
    let mut t_load = start.task_loads(g);

    // Edges heaviest-first: heavy candidates settle early, so later passes
    // converge quickly.
    let mut order: Vec<u32> = (0..m as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        weights[b as usize]
            .total_cmp(&weights[a as usize])
            .then(a.cmp(&b))
    });

    let mut stats = LocalSearchStats {
        passes: 0,
        adds: 0,
        swaps: 0,
        splits: 0,
    };

    // Lightest chosen edge at a worker (by weight, tie on id), if any.
    let lightest_at_worker = |g: &BipartiteGraph, in_m: &[bool], w: mbta_graph::WorkerId| {
        g.worker_edges(w)
            .filter(|e| in_m[e.index()])
            .min_by(|&a, &b| {
                weights[a.index()]
                    .total_cmp(&weights[b.index()])
                    .then(a.cmp(&b))
            })
    };
    let lightest_at_task = |g: &BipartiteGraph, in_m: &[bool], t: mbta_graph::TaskId| {
        g.task_edges(t)
            .filter(|e| in_m[e.index()])
            .min_by(|&a, &b| {
                weights[a.index()]
                    .total_cmp(&weights[b.index()])
                    .then(a.cmp(&b))
            })
    };

    let mut completed = true;
    'passes: while stats.passes < max_passes {
        stats.passes += 1;
        let mut improved = false;
        for &eid in &order {
            if ctl.should_stop() {
                completed = false;
                break 'passes;
            }
            let e = EdgeId::new(eid);
            // Skip chosen, worthless, and poisoned (NaN/±inf) edges alike.
            let we = weights[e.index()];
            if in_matching[e.index()] || !we.is_finite() || we <= EPS {
                continue;
            }
            let w = g.worker_of(e);
            let t = g.task_of(e);
            let w_slack = w_load[w.index()] < g.capacity(w);
            let t_slack = t_load[t.index()] < g.demand(t);

            // Candidate evictions (None = endpoint has slack).
            let evict_w = if w_slack {
                None
            } else {
                lightest_at_worker(g, &in_matching, w)
            };
            let evict_t = if t_slack {
                None
            } else {
                lightest_at_task(g, &in_matching, t)
            };
            // A saturated endpoint with nothing to evict cannot happen
            // (saturated means load > 0 means some chosen edge exists).
            let mut cost = 0.0;
            if let Some(ev) = evict_w {
                cost += weights[ev.index()];
            }
            match (evict_w, evict_t) {
                (Some(a), Some(b)) if a == b => {
                    // Same edge blocks both endpoints (it IS edge e's
                    // parallel sibling — impossible since duplicates are
                    // rejected, but two endpoints can share a blocking edge
                    // only if that edge connects w and t, i.e. is e itself,
                    // which is not in the matching). Defensive: count once.
                    cost = weights[a.index()];
                }
                (_, Some(b)) => cost += weights[b.index()],
                _ => {}
            }
            // A NaN gain (poisoned evictee) is "not an improvement".
            let gain = weights[e.index()] - cost;
            if gain.is_nan() || gain <= EPS {
                continue;
            }
            // Apply the move.
            let mut evictions = 0;
            if let Some(ev) = evict_w {
                in_matching[ev.index()] = false;
                w_load[g.worker_of(ev).index()] -= 1;
                t_load[g.task_of(ev).index()] -= 1;
                evictions += 1;
            }
            if let Some(ev) = evict_t {
                if Some(ev) != evict_w {
                    in_matching[ev.index()] = false;
                    w_load[g.worker_of(ev).index()] -= 1;
                    t_load[g.task_of(ev).index()] -= 1;
                    evictions += 1;
                }
            }
            in_matching[e.index()] = true;
            w_load[w.index()] += 1;
            t_load[t.index()] += 1;
            if evictions == 0 {
                stats.adds += 1;
            } else {
                stats.swaps += 1;
            }
            improved = true;
        }

        // Split sweep: drop one chosen edge, insert the best replacement at
        // each freed endpoint.
        for &eid in &order {
            if ctl.should_stop() {
                completed = false;
                break 'passes;
            }
            let c = EdgeId::new(eid);
            if !in_matching[c.index()] {
                continue;
            }
            let w = g.worker_of(c);
            let t = g.task_of(c);
            // Best non-chosen edge at w whose task has slack. Its task is
            // never `t` (that would be edge `c` itself; duplicates are
            // rejected at build time).
            let best_at_w = g
                .worker_edges(w)
                .filter(|&e| {
                    !in_matching[e.index()]
                        && weights[e.index()] > EPS
                        && weights[e.index()].is_finite()
                        && t_load[g.task_of(e).index()] < g.demand(g.task_of(e))
                })
                .max_by(|&a, &b| {
                    weights[a.index()]
                        .total_cmp(&weights[b.index()])
                        .then(b.cmp(&a))
                });
            // Best non-chosen edge at t whose worker has slack (never `w`).
            let best_at_t = g
                .task_edges(t)
                .filter(|&e| {
                    !in_matching[e.index()]
                        && weights[e.index()] > EPS
                        && weights[e.index()].is_finite()
                        && w_load[g.worker_of(e).index()] < g.capacity(g.worker_of(e))
                })
                .max_by(|&a, &b| {
                    weights[a.index()]
                        .total_cmp(&weights[b.index()])
                        .then(b.cmp(&a))
                });
            let (Some(ew), Some(et)) = (best_at_w, best_at_t) else {
                continue; // single-replacement cases are the swap move's job
            };
            // A NaN gain (poisoned evictee `c`) is "not an improvement".
            let gain = weights[ew.index()] + weights[et.index()] - weights[c.index()];
            if gain.is_nan() || gain <= EPS {
                continue;
            }
            // Apply: remove c, add ew and et.
            in_matching[c.index()] = false;
            w_load[w.index()] -= 1;
            t_load[t.index()] -= 1;
            for e in [ew, et] {
                in_matching[e.index()] = true;
                w_load[g.worker_of(e).index()] += 1;
                t_load[g.task_of(e).index()] += 1;
            }
            stats.splits += 1;
            improved = true;
        }

        if !improved {
            break;
        }
    }

    mbta_telemetry::counter_add!(
        "mbta_matching_local_search_moves_total",
        stats.adds + stats.swaps + stats.splits,
    );
    let edges = (0..m as u32)
        .map(EdgeId::new)
        .filter(|e| in_matching[e.index()])
        .collect();
    (Matching::from_edges(edges), stats, completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_bmatching;
    use crate::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
    use mbta_graph::random::{from_edges, random_bipartite, RandomGraphSpec};

    #[test]
    fn fixes_the_greedy_trap() {
        // Greedy takes 0.9; the swap move replaces it to reach 1.5.
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8), (1, 0, 0.7, 0.7)],
        );
        let w: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
        let greedy = greedy_bmatching(&g, &w, 0.0);
        assert!((greedy.total_weight(&w) - 0.9).abs() < 1e-12);
        let (improved, stats) = local_search(&g, &w, greedy, 16);
        improved.validate(&g).unwrap();
        assert!((improved.total_weight(&w) - 1.5).abs() < 1e-9);
        assert_eq!(stats.splits, 1);
    }

    #[test]
    fn starts_from_empty() {
        let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.4, 0.4), (1, 1, 0.6, 0.6)]);
        let w: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
        let (m, stats) = local_search(&g, &w, Matching::empty(), 8);
        m.validate(&g).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(stats.adds, 2);
        assert_eq!(stats.swaps, 0);
    }

    #[test]
    fn never_decreases_objective_randomized() {
        for seed in 0..15 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 40,
                    n_tasks: 30,
                    avg_degree: 5.0,
                    capacity: 2,
                    demand: 2,
                },
                seed,
            );
            let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
            let greedy = greedy_bmatching(&g, &w, 0.0);
            let before = greedy.total_weight(&w);
            let (after_m, _) = local_search(&g, &w, greedy, 32);
            after_m.validate(&g).unwrap();
            let after = after_m.total_weight(&w);
            assert!(after >= before - 1e-9, "seed {seed}");
            // And still bounded by the optimum.
            let (opt, _) =
                max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
            assert!(after <= opt.total_weight(&w) + 1e-6, "seed {seed}");
        }
    }

    #[test]
    fn pass_budget_respected() {
        let g = random_bipartite(&RandomGraphSpec::default(), 3);
        let w: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
        let (_, stats) = local_search(&g, &w, Matching::empty(), 1);
        assert_eq!(stats.passes, 1);
    }

    #[test]
    fn terminates_on_converged_input() {
        let g = from_edges(&[1], &[1], &[(0, 0, 0.5, 0.5)]);
        let w = vec![0.5];
        let (m1, _) = local_search(&g, &w, Matching::empty(), 64);
        let (m2, stats) = local_search(&g, &w, m1.clone(), 64);
        assert_eq!(m1, m2);
        // One pass accepted the add (first run); second run's first pass is
        // a no-op and stops immediately.
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.adds + stats.swaps, 0);
    }

    #[test]
    fn ignores_worthless_edges() {
        let g = from_edges(&[1], &[1], &[(0, 0, 0.0, 0.0)]);
        let w = vec![0.0];
        let (m, _) = local_search(&g, &w, Matching::empty(), 8);
        assert!(m.is_empty());
    }

    #[test]
    fn poisoned_weights_never_inserted_and_never_panic() {
        let g = from_edges(
            &[1, 1, 1],
            &[1, 1, 1],
            &[(0, 0, 0.9, 0.9), (1, 1, 0.5, 0.5), (2, 2, 0.5, 0.5)],
        );
        let w = vec![f64::NAN, f64::INFINITY, 0.6];
        let (m, _) = local_search(&g, &w, Matching::empty(), 16);
        m.validate(&g).unwrap();
        assert_eq!(m.edges, vec![EdgeId::new(2)]);
    }

    #[test]
    fn cancelled_search_returns_start_or_better() {
        use mbta_util::{CancelToken, SolveCtl};
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 30,
                n_tasks: 30,
                avg_degree: 5.0,
                capacity: 1,
                demand: 1,
            },
            9,
        );
        let w: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
        let start = greedy_bmatching(&g, &w, 0.0);
        let before = start.total_weight(&w);
        let token = CancelToken::new();
        token.cancel();
        let ctl = SolveCtl::unlimited()
            .with_token(token)
            .with_check_interval(10);
        let (m, _, completed) = crate::local_search::local_search_ctl(&g, &w, start, 64, &ctl);
        assert!(!completed);
        m.validate(&g).unwrap();
        assert!(m.total_weight(&w) >= before - 1e-9);
    }
}
