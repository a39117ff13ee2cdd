//! Warm-started exact re-solves for long-lived markets.
//!
//! A serving shard re-solves exactly again and again — every batch that
//! touches it, every online drift fallback — on a market that differs from
//! the last solve's by a batch worth of events. Rebuilding the flow network
//! from scratch there wastes the one thing a long-lived shard has plenty
//! of: prior state. So every serving exact solve repairs a kept
//! [`mbta_matching::warm::WarmNet`], carrying its node potentials across
//! calls, where they are repaired locally instead of recomputed.
//!
//! The network is carried by the market's state: a
//! [`crate::incremental::IncrementalAssignment`] — a shard's, or the
//! boundary market's over a plan's cut — owns it and writes every
//! assignment change, weight and capacity to it as it happens, so the flow
//! on it is the assignment. A solve is [`resolve`] on the lent network, on
//! whichever thread, and
//! [`IncrementalAssignment::settle`](crate::incremental::IncrementalAssignment::settle)
//! reads the result back. Nothing is copied in. [`WarmSolver`] is the
//! same repair for a caller that keeps no state of its own: it seeds each
//! solve with its previous result. No serving path is such a caller.
//!
//! Telemetry (`mbta_core_warm_solves_total` / `mbta_core_warm_hits_total`)
//! counts every serving exact solve — batch shard solves on the service's
//! pool threads, online fallbacks and rescue solves alike — and how many of
//! them completed from carried prices: every one but a network's first,
//! which repairs from zero prices, less the ones a deadline cut short. A
//! cut solve's flow is no result — the seed comes back — but its prices
//! stay, so the next one resumes from them.

use mbta_graph::BipartiteGraph;
use mbta_matching::warm::{WarmNet, WarmStats};
use mbta_matching::Matching;
use mbta_util::SolveCtl;

/// Lifetime counters of one kept network: a [`WarmSolver`]'s, or a
/// market state's carried one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmSolverStats {
    /// Exact re-solves performed.
    pub solves: u64,
    /// Solves that completed by repairing the carried potentials around
    /// the seeded flow (not a first solve, not interrupted).
    pub warm_hits: u64,
    /// Total shortest-path searches that pushed flow, across all solves.
    pub iterations: u64,
}

impl WarmSolverStats {
    /// Counts one solve.
    pub fn add(&mut self, s: &WarmStats) {
        self.solves += 1;
        self.warm_hits += u64::from(s.warm);
        self.iterations += s.iterations;
    }
}

/// One solve of a market state's carried network
/// ([`IncrementalAssignment::lend_net`](crate::incremental::IncrementalAssignment::lend_net)):
/// the repair of the flow the state wrote, in place, counted like every
/// serving solve. The state settles it.
pub fn resolve(net: &mut WarmNet, ctl: &SolveCtl) -> WarmStats {
    let stats = net.resolve(ctl);
    record(&stats);
    stats
}

/// Counts one serving exact solve in telemetry.
fn record(s: &WarmStats) {
    mbta_telemetry::counter_add!("mbta_core_warm_solves_total", 1);
    mbta_telemetry::counter_add!("mbta_core_warm_hits_total", u64::from(s.warm));
}

/// A reusable exact solver bound to one topology, seeded with its own
/// previous result.
///
/// # Example
/// ```
/// use mbta_core::warm::WarmSolver;
/// use mbta_graph::random::from_edges;
/// use mbta_util::SolveCtl;
///
/// let g = from_edges(
///     &[1, 1],
///     &[1, 1],
///     &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8), (1, 0, 0.7, 0.7)],
/// );
/// let (mut solver, ctl) = (WarmSolver::new(&g), SolveCtl::unlimited());
/// // A first solve repairs from zero prices; it picks the 0.8 + 0.7
/// // pairing over the 0.9.
/// let (m, completed) = solver.solve(&g, &[0.9, 0.8, 0.7], &ctl);
/// assert!(completed && m.len() == 2);
/// // Drifted weights re-solve warm, seeded with the previous matching.
/// let (m, _) = solver.solve(&g, &[0.95, 0.79, 0.71], &ctl);
/// assert_eq!(m.len(), 2);
/// assert_eq!(solver.stats().warm_hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct WarmSolver {
    net: WarmNet,
    /// The last result of [`WarmSolver::solve`], its next seed.
    prev: Matching,
    stats: WarmSolverStats,
}

impl WarmSolver {
    /// Builds the solver for `g`'s topology (done once per market per
    /// plan epoch; the graph must not change shape afterwards).
    pub fn new(g: &BipartiteGraph) -> WarmSolver {
        WarmSolver {
            net: WarmNet::new(g),
            prev: Matching::empty(),
            stats: WarmSolverStats::default(),
        }
    }

    /// Exact free-cardinality maximum-weight matching under `weights`,
    /// repaired from this method's previous result and the carried
    /// potentials; and whether it ran to completion (`false`: `ctl` cut it
    /// short, the matching is the seed and not optimal, and the next solve
    /// resumes from the prices the cut left). The result is filtered to
    /// strictly positive weights. The signature is what `mbta-bench`'s
    /// `core.warm_solve_ms` probe calls.
    pub fn solve(
        &mut self,
        g: &BipartiteGraph,
        weights: &[f64],
        ctl: &SolveCtl,
    ) -> (Matching, bool) {
        let mut m = std::mem::take(&mut self.prev);
        let stats = self.net.solve_in_place(g, weights, &mut m, ctl);
        self.stats.add(&stats);
        record(&stats);
        m.edges.retain(|e| weights[e.index()] > 0.0);
        self.prev = m.clone();
        (m, stats.completed)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WarmSolverStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::{random_bipartite, RandomGraphSpec};
    use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
    use mbta_util::Deadline;

    #[test]
    fn warm_solver_tracks_cold_objective_through_drift() {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 60,
                n_tasks: 40,
                avg_degree: 6.0,
                capacity: 2,
                demand: 2,
            },
            11,
        );
        let mut w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        let mut solver = WarmSolver::new(&g);
        // A twin under a deadline that never bites: the clock it races
        // changes nothing, round by round and in the lifetime counters.
        let mut budgeted = WarmSolver::new(&g);
        let ample = SolveCtl::unlimited().with_deadline(Deadline::after_ms(3_600_000));
        for round in 0..8u64 {
            let (m, completed) = solver.solve(&g, &w, &SolveCtl::unlimited());
            assert!(completed);
            m.validate(&g).unwrap();
            assert_eq!(budgeted.solve(&g, &w, &ample), (m.clone(), true));
            let (cold, _) =
                max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
            assert!(
                (m.total_weight(&w) - cold.total_weight(&w)).abs() < 1e-6,
                "round {round}: warm {} vs cold {}",
                m.total_weight(&w),
                cold.total_weight(&w)
            );
            // Deterministic small drift.
            for (i, wt) in w.iter_mut().enumerate() {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(round);
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                *wt = (*wt * (0.96 + 0.08 * unit)).clamp(0.0, 1.0);
            }
        }
        let s = solver.stats();
        assert_eq!(
            (s.solves, s.warm_hits),
            (8, 7),
            "only the first solve starts from zero prices"
        );
        assert_eq!(budgeted.stats(), s);
    }

    #[test]
    fn zero_weight_edges_are_filtered_for_reseed() {
        use crate::incremental::IncrementalAssignment;
        use mbta_graph::random::from_edges;
        use mbta_graph::WorkerId;
        let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.9, 0.9), (1, 1, 0.5, 0.5)]);
        let mut inc = IncrementalAssignment::new(&g, vec![0.9, 0.5]);
        inc.deactivate_worker(WorkerId::new(1));
        // Active-subgraph weights zero out the deactivated worker's edge.
        let aw = inc.active_weights();
        assert_eq!(aw, vec![0.9, 0.0]);
        let (m, _) = WarmSolver::new(&g).solve(&g, &aw, &SolveCtl::unlimited());
        // The filtered result must be adoptable despite the inactive node.
        inc.reseed(&m).unwrap();
        inc.check_invariants();
        assert_eq!(inc.len(), 1);
    }

    /// `solve` keeps no caller matching: it seeds itself with its previous
    /// result, so re-solving unchanged weights routes nothing.
    #[test]
    fn solve_seeds_itself_with_its_previous_result() {
        let g = random_bipartite(&RandomGraphSpec::default(), 3);
        let w: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
        let mut solver = WarmSolver::new(&g);
        let (first, _) = solver.solve(&g, &w, &SolveCtl::unlimited());
        let routed = solver.stats().iterations;
        let (again, _) = solver.solve(&g, &w, &SolveCtl::unlimited());
        assert_eq!(again, first);
        let stats = solver.stats();
        assert_eq!((stats.warm_hits, stats.iterations), (1, routed));
    }
}
