//! Worker-proposing deferred acceptance (Gale–Shapley) under two-sided
//! preferences.
//!
//! The "both sides have stakes" reference point of the evaluation: workers
//! rank tasks by *worker benefit* `wb`, tasks rank workers by *requester
//! benefit* `rb`, and the deferred-acceptance procedure produces a pairwise
//! stable outcome — no worker–task pair prefers each other to (one of) their
//! current partners. With capacities on both sides this is the many-to-many
//! extension with responsive preferences (each side evicts its worst held
//! partner when a better proposal arrives), which is the standard
//! hospital-residents generalization.
//!
//! Stability and welfare are different axes: a stable assignment can lose a
//! lot of total mutual benefit to `ExactMB`, and the evaluation quantifies
//! exactly that gap (experiment F4/F11).

use crate::solution::Matching;
use mbta_graph::{BipartiteGraph, EdgeId, TaskId, WorkerId};

/// Worker-proposing deferred acceptance.
///
/// Workers propose along their eligibility edges in decreasing `wb` order;
/// each task tentatively holds up to `demand` proposals, evicting the
/// lowest-`rb` held worker when a better one proposes. Runs in
/// O(E log E) for the preference sort plus O(E · demand) for the holds.
pub fn deferred_acceptance(g: &BipartiteGraph) -> Matching {
    let n_w = g.n_workers();

    // Each worker's proposal list: its edges sorted by wb descending
    // (tie-break on edge id for determinism).
    let proposal_order: Vec<Vec<EdgeId>> = (0..n_w)
        .map(|w| {
            let mut edges: Vec<EdgeId> = g.worker_edges(WorkerId::from_index(w)).collect();
            edges.sort_unstable_by(|&a, &b| {
                g.wb(b)
                    .partial_cmp(&g.wb(a))
                    .expect("weights are finite")
                    .then(a.cmp(&b))
            });
            edges
        })
        .collect();
    // Cursor into each worker's proposal list.
    let mut next_proposal = vec![0usize; n_w];
    // How many tasks each worker currently holds.
    let mut held_count = vec![0u32; n_w];
    // Per task: currently held edges (≤ demand of the task).
    let mut holds: Vec<Vec<EdgeId>> = vec![Vec::new(); g.n_tasks()];

    // Workers with remaining capacity and remaining proposals.
    let mut active: Vec<u32> = (0..n_w as u32).rev().collect();
    while let Some(wi) = active.pop() {
        let w = wi as usize;
        // Propose until out of capacity or out of options.
        while held_count[w] < g.capacity(WorkerId::new(wi))
            && next_proposal[w] < proposal_order[w].len()
        {
            let e = proposal_order[w][next_proposal[w]];
            next_proposal[w] += 1;
            let t = g.task_of(e);
            let hold = &mut holds[t.index()];
            if (hold.len() as u32) < g.demand(t) {
                hold.push(e);
                held_count[w] += 1;
            } else {
                // Find the worst held edge by rb (tie: higher edge id is
                // worse, so established holds win ties — standard DA).
                let (worst_idx, &worst_edge) = hold
                    .iter()
                    .enumerate()
                    .min_by(|(_, &a), (_, &b)| {
                        g.rb(a)
                            .partial_cmp(&g.rb(b))
                            .expect("weights are finite")
                            .then(b.cmp(&a))
                    })
                    .expect("non-empty hold");
                if g.rb(e) > g.rb(worst_edge) {
                    hold[worst_idx] = e;
                    held_count[w] += 1;
                    let evicted_worker = g.worker_of(worst_edge).index();
                    held_count[evicted_worker] -= 1;
                    // The evicted worker may want to propose again.
                    active.push(evicted_worker as u32);
                } // else: rejected, keep proposing
            }
        }
    }

    let edges = holds.into_iter().flatten().collect();
    Matching::from_edges(edges)
}

/// Checks pairwise stability of a matching under the (wb, rb) preferences.
///
/// Returns the first blocking pair found as `(worker, task)`, or `None` if
/// stable. A pair `(w, t)` with edge `e` blocks iff:
/// * `w` would take `t`: it has spare capacity or holds an edge with lower
///   `wb` than `e`, **and**
/// * `t` would take `w`: it has spare demand or holds an edge with lower
///   `rb` than `e`.
pub fn find_blocking_pair(g: &BipartiteGraph, m: &Matching) -> Option<(WorkerId, TaskId)> {
    let mut in_matching = vec![false; g.n_edges()];
    for &e in &m.edges {
        in_matching[e.index()] = true;
    }
    let w_load = m.worker_loads(g);
    let t_load = m.task_loads(g);

    for e in g.edges() {
        if in_matching[e.index()] {
            continue;
        }
        let w = g.worker_of(e);
        let t = g.task_of(e);
        let worker_wants = w_load[w.index()] < g.capacity(w)
            || g.worker_edges(w)
                .any(|h| in_matching[h.index()] && g.wb(h) < g.wb(e));
        if !worker_wants {
            continue;
        }
        let task_wants = t_load[t.index()] < g.demand(t)
            || g.task_edges(t)
                .any(|h| in_matching[h.index()] && g.rb(h) < g.rb(e));
        if task_wants {
            return Some((w, t));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::{from_edges, random_bipartite, RandomGraphSpec};

    #[test]
    fn classic_two_by_two() {
        // Worker 0 prefers t0 (wb .9 > .1); worker 1 prefers t0 too (.8 > .2).
        // Task 0 prefers worker 0 (rb .7 > .6). Stable: (w0,t0), (w1,t1).
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[
                (0, 0, 0.7, 0.9),
                (0, 1, 0.5, 0.1),
                (1, 0, 0.6, 0.8),
                (1, 1, 0.5, 0.2),
            ],
        );
        let m = deferred_acceptance(&g);
        m.validate(&g).unwrap();
        assert_eq!(m.len(), 2);
        assert!(find_blocking_pair(&g, &m).is_none());
        let mut pairs: Vec<(u32, u32)> = m
            .edges
            .iter()
            .map(|&e| (g.worker_of(e).raw(), g.task_of(e).raw()))
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn eviction_cascade() {
        // t0 (demand 1) receives proposals from both workers; the later,
        // better one evicts, and the evicted worker falls through to t1.
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[
                (0, 0, 0.4, 0.9), // w0's favourite, but rb lower than w1's
                (0, 1, 0.5, 0.1),
                (1, 0, 0.8, 0.9),
            ],
        );
        let m = deferred_acceptance(&g);
        m.validate(&g).unwrap();
        assert!(find_blocking_pair(&g, &m).is_none());
        // w1 holds t0; w0 holds t1.
        let mut pairs: Vec<(u32, u32)> = m
            .edges
            .iter()
            .map(|&e| (g.worker_of(e).raw(), g.task_of(e).raw()))
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn output_is_stable_on_random_instances() {
        for seed in 0..20 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 40,
                    n_tasks: 25,
                    avg_degree: 6.0,
                    capacity: 2,
                    demand: 3,
                },
                seed,
            );
            let m = deferred_acceptance(&g);
            m.validate(&g).unwrap();
            assert!(
                find_blocking_pair(&g, &m).is_none(),
                "blocking pair at seed {seed}"
            );
        }
    }

    #[test]
    fn blocking_pair_detector_finds_planted_instability() {
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[
                (0, 0, 0.7, 0.9),
                (0, 1, 0.5, 0.1),
                (1, 0, 0.6, 0.8),
                (1, 1, 0.5, 0.2),
            ],
        );
        // The anti-stable matching: (w0,t1), (w1,t0). Edge ids: 1 and 2.
        let m = Matching::from_edges(vec![EdgeId::new(1), EdgeId::new(2)]);
        let blocking = find_blocking_pair(&g, &m);
        assert_eq!(blocking, Some((WorkerId::new(0), TaskId::new(0))));
    }

    #[test]
    fn capacities_fill_greedily_but_stably() {
        // One worker with capacity 2 and two tasks: both get held.
        let g = from_edges(&[2], &[1, 1], &[(0, 0, 0.5, 0.9), (0, 1, 0.5, 0.8)]);
        let m = deferred_acceptance(&g);
        assert_eq!(m.len(), 2);
        assert!(find_blocking_pair(&g, &m).is_none());
    }

    #[test]
    fn empty_graph() {
        let g = from_edges(&[], &[], &[]);
        assert!(deferred_acceptance(&g).is_empty());
    }
}
