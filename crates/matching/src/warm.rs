//! Warm-started min-cost max-flow for repeated solves on a fixed topology.
//!
//! When the same shard is re-solved many times with drifting weights —
//! the online fallback path — almost all of a cold solve's work is
//! redundant: the node set and arc arena never change, only costs move and
//! the previous solution is usually *nearly* optimal. [`WarmNet`] is the
//! [`crate::mcmf`] solver plus carried state: it keeps one bipartite
//! network (arena, arc layout, scratch and Johnson potentials) alive across
//! solves and runs the same successive-shortest-path loop and the same
//! Bellman–Ford on it. A first solve, a solve after [`WarmNet::invalidate`]
//! and every fallback below *are* the cold solve of
//! [`crate::mcmf::max_weight_bmatching`], on the kept network. What this
//! module adds is only what is genuinely warm:
//!
//! 1. **Seeded flow.** The previous matching is applied as a feasible
//!    flow before augmentation starts, so the successive-shortest-path
//!    loop only has to route the *difference* to optimality.
//! 2. **Carried potentials.** The dual prices from the previous solve
//!    seed the reduced costs. An O(E) verification pass checks that every
//!    residual arc still has non-negative reduced cost under the carried
//!    potentials; when drift broke the invariant (common — optimality
//!    leaves many inequalities tight) the potentials are *refit* with a
//!    Bellman–Ford pass over the seeded residual graph, which is sound
//!    whenever no negative residual cycle exists. Its path-length guard
//!    finds the cycles that do exist; each is cancelled (a strict
//!    improvement at constant flow value) and the pass repeats. A seed
//!    that needs more than `MAX_CYCLE_CANCELS` cancellations
//!    falls back to the cold solve — correctness never depends on the
//!    warm state being usable.
//! 3. **De-augmentation audit.** A warm-seeded flow can carry *more*
//!    flow than the free-cardinality optimum (the drifted weights may
//!    make part of the seeded assignment unprofitable), and the forward
//!    augmentation loop can only add flow. One Bellman–Ford pass from the
//!    sink checks for a negative-true-cost sink → source residual path;
//!    if one exists the solve restarts cold, which is immune by convexity
//!    of the flow-cost curve. In practice drift is small and the audit
//!    passes.
//!
//! Every pass consults the caller's [`SolveCtl`]: an interrupted refit or
//! audit ends the solve like an interrupted augmentation loop does — the
//! feasible flow reached so far is returned, `completed` is `false` and no
//! state is carried.
//!
//! The result is bit-identical in objective to a cold
//! [`crate::mcmf::max_weight_bmatching`] solve — the warm path is purely
//! a latency optimization, checked by the `warm_matches_cold_*` tests.

use crate::mcmf::{BellmanFord, BipartiteNet, FlowMode, PathAlgo};
use crate::solution::Matching;
use mbta_graph::BipartiteGraph;
use mbta_util::SolveCtl;

/// The objective of every warm solve: the free-cardinality optimum, by
/// Dijkstra on the carried potentials.
const MODE: FlowMode = FlowMode::FreeCardinality;
const ALGO: PathAlgo = PathAlgo::Dijkstra;

/// Counters describing one [`WarmNet::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStats {
    /// `true` when the solve reused the carried potentials and seeded
    /// flow; `false` when it restarted cold (first solve, or drift broke
    /// the reduced-cost invariant).
    pub warm: bool,
    /// `true` when the post-solve de-augmentation audit failed and the
    /// solve had to redo its work cold. Always `false` on cold solves.
    pub audited_cold: bool,
    /// Augmenting-path iterations performed (including any cold redo).
    pub iterations: u64,
    /// Total fixed-point profit of the returned matching.
    pub profit: i64,
    /// `false` when `ctl` interrupted the solve; the returned matching is
    /// feasible but optimality is forfeited and no state is carried.
    pub completed: bool,
}

/// A reusable min-cost-flow network for one fixed bipartite topology.
///
/// Build once per shard (or per plan epoch), then call
/// [`WarmNet::solve`] every time the shard needs an exact re-solve. See
/// the [module docs](self) for the warm-start contract.
#[derive(Debug, Clone)]
pub struct WarmNet {
    /// The network; `bn.sc.pi` holds the carried potentials.
    bn: BipartiteNet,
    has_prior: bool,
}

/// `ctl` interrupted a warm pass.
#[derive(Debug, PartialEq, Eq)]
struct Stopped;

impl WarmNet {
    /// Builds the network for `g`'s topology. Costs are set per solve.
    pub fn new(g: &BipartiteGraph) -> WarmNet {
        WarmNet {
            bn: BipartiteNet::new(g),
            has_prior: false,
        }
    }

    /// Discards the carried potentials; the next solve starts cold.
    pub fn invalidate(&mut self) {
        self.has_prior = false;
    }

    /// Whether the next solve will attempt a warm start.
    pub fn has_prior(&self) -> bool {
        self.has_prior
    }

    /// Exact free-cardinality maximum-weight b-matching on the fixed
    /// topology, warm-started from `seed` (the previous matching) when
    /// the carried dual state is still valid.
    ///
    /// `weights` must be finite and non-negative; `seed` must be
    /// feasible on `g` (edges within capacity/demand). Returns the
    /// optimal matching and [`WarmStats`]. On `ctl` interruption the
    /// matching is a feasible prefix and `completed` is `false`.
    pub fn solve(
        &mut self,
        g: &BipartiteGraph,
        weights: &[f64],
        seed: &Matching,
        ctl: &SolveCtl,
    ) -> (Matching, WarmStats) {
        assert_eq!(g.n_edges(), self.bn.n_edges(), "graph topology changed");
        self.bn.set_costs(weights);
        let mut stats = WarmStats {
            warm: false,
            audited_cold: false,
            iterations: 0,
            profit: 0,
            completed: true,
        };
        let warm = self.solve_warm(g, seed, ctl, &mut stats);
        stats.warm = warm != Ok(false);
        stats.completed = match warm {
            Ok(true) => true,
            Err(Stopped) => false,
            Ok(false) => {
                let (r, completed) = self.bn.solve_cold(MODE, ALGO, ctl);
                stats.iterations += r.iterations;
                completed
            }
        };
        self.has_prior = stats.completed;
        let (m, profit) = self.bn.matching(g);
        stats.profit = profit;
        (m, stats)
    }

    /// The warm attempt: seed the previous matching as flow, keep the
    /// carried potentials if the reduced-cost invariant survived the
    /// weight drift (refit them otherwise), route the difference to
    /// optimality and audit the flow value. `Ok(true)` when the network
    /// holds the optimum, `Ok(false)` when the solve has to run cold.
    fn solve_warm(
        &mut self,
        g: &BipartiteGraph,
        seed: &Matching,
        ctl: &SolveCtl,
        stats: &mut WarmStats,
    ) -> Result<bool, Stopped> {
        // An infeasible seed only happens on a caller bug; the warm path
        // then degrades to cold rather than panicking.
        if !(self.has_prior && self.bn.apply(g, seed)) {
            return Ok(false);
        }
        if !self.bn.net.reduced_costs_ok(&self.bn.sc.pi) && !self.refit_potentials(ctl)? {
            return Ok(false);
        }
        let bn = &mut self.bn;
        let (r, completed) = bn
            .net
            .shortest_paths(bn.source, bn.sink, MODE, ALGO, &mut bn.sc, ctl);
        stats.iterations += r.iterations;
        if !completed {
            return Err(Stopped);
        }
        // A warm seed can over-commit flow the drifted weights no longer
        // justify, and forward augmentation cannot retract it; a cold
        // redo (immune by convexity) repairs it.
        stats.audited_cold = !self.deaugmentation_audit(ctl)?;
        Ok(!stats.audited_cold)
    }

    /// Pushes flow around the negative residual cycle that the parent
    /// chain of `trigger` leads into, removing it from the graph. Each
    /// cancellation strictly improves the flow's cost at constant value.
    fn cancel_cycle(&mut self, trigger: usize) {
        let (head, cap) = (&self.bn.net.head, &mut self.bn.net.cap);
        let (parent, seen) = (&self.bn.sc.parent, &mut self.bn.sc.in_queue);
        let tail_of = |a: u32| head[(a ^ 1) as usize] as usize;
        // Walk the parent chain until a node repeats: that node is on
        // the cycle (the chain can have a tail leading into it). The
        // queue marks are free between passes; the next pass resets them.
        seen.fill(false);
        let mut u = trigger;
        while !seen[u] {
            seen[u] = true;
            u = tail_of(parent[u]);
        }
        // Two laps from there: find the bottleneck, then push it.
        let start = u;
        let mut bottleneck = u32::MAX;
        loop {
            bottleneck = bottleneck.min(cap[parent[u] as usize]);
            u = tail_of(parent[u]);
            if u == start {
                break;
            }
        }
        loop {
            let a = parent[u] as usize;
            cap[a] -= bottleneck;
            cap[a ^ 1] += bottleneck;
            u = tail_of(parent[u]);
            if u == start {
                break;
            }
        }
    }

    /// How many negative-cycle cancellations a warm start will attempt
    /// before giving up and going cold. Small drift produces zero to a
    /// handful of cycles; a seed that needs more repair than this is
    /// cheaper to re-solve from scratch.
    const MAX_CYCLE_CANCELS: usize = 16;

    /// Repairs the seeded flow to min-cost-for-its-value and recomputes
    /// globally valid potentials: cancel negative residual cycles until
    /// none remain, then adopt the converged Bellman–Ford labels as
    /// potentials. Returns `Ok(false)` (caller goes cold) when the seed
    /// needs more repair than [`Self::MAX_CYCLE_CANCELS`] allows.
    fn refit_potentials(&mut self, ctl: &SolveCtl) -> Result<bool, Stopped> {
        for _ in 0..=Self::MAX_CYCLE_CANCELS {
            match self.bn.net.bellman_ford(None, &mut self.bn.sc, ctl) {
                BellmanFord::Converged => {
                    self.bn.sc.pi.copy_from_slice(&self.bn.sc.dist);
                    return Ok(true);
                }
                BellmanFord::Interrupted => return Err(Stopped),
                BellmanFord::NegativeCycle(node) => self.cancel_cycle(node),
            }
        }
        Ok(false)
    }

    /// Post-solve audit: is there a sink → source residual path with
    /// negative true cost (i.e. would *removing* flow increase profit)?
    /// Runs Bellman–Ford on raw residual costs so it is sound without
    /// trusting the potentials; a detected negative cycle also fails the
    /// audit (the flow is not min-cost for its value). Returns `Ok(true)`
    /// when the flow value is certified optimal.
    fn deaugmentation_audit(&mut self, ctl: &SolveCtl) -> Result<bool, Stopped> {
        let bn = &mut self.bn;
        match bn.net.bellman_ford(Some(bn.sink), &mut bn.sc, ctl) {
            BellmanFord::Converged => Ok(bn.sc.dist[bn.source] >= 0),
            BellmanFord::NegativeCycle(_) => Ok(false),
            BellmanFord::Interrupted => Err(Stopped),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcmf::{max_weight_bmatching, verify_certificate, Certificate};
    use mbta_graph::random::{random_bipartite, RandomGraphSpec};
    use mbta_util::fixed::objectives_close;

    /// The exact cold solve `net` must agree with, and — through the
    /// independent verifier — proof that the potentials `net` carries
    /// certify the matching it just returned.
    fn cold_and_certified(
        net: &WarmNet,
        g: &BipartiteGraph,
        w: &[f64],
        m: &Matching,
    ) -> (Matching, i64) {
        let cert = Certificate {
            potentials: net.bn.sc.pi.clone(),
        };
        assert!(
            verify_certificate(g, w, m, &cert),
            "carried potentials do not certify the returned matching"
        );
        let (cold, stats) = max_weight_bmatching(g, w, MODE, ALGO);
        (cold, stats.profit)
    }

    fn weights_of(g: &BipartiteGraph, lambda: f64) -> Vec<f64> {
        g.edges()
            .map(|e| lambda * g.rb(e) + (1.0 - lambda) * g.wb(e))
            .collect()
    }

    /// Deterministic weight drift: scales each weight by a factor in
    /// [1-mag, 1+mag] derived from the edge id and round.
    fn drift(weights: &mut [f64], round: u64, mag: f64) {
        for (i, w) in weights.iter_mut().enumerate() {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(round.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            *w = (*w * (1.0 - mag + 2.0 * mag * unit)).clamp(0.0, 1.0);
        }
    }

    #[test]
    fn warm_matches_cold_across_drift_rounds() {
        for seed in 0..8 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 40,
                    n_tasks: 25,
                    avg_degree: 5.0,
                    capacity: 2,
                    demand: 2,
                },
                seed,
            );
            let mut w = weights_of(&g, 0.5);
            let mut net = WarmNet::new(&g);
            let mut prev = Matching::from_edges(Vec::new());
            let mut warm_hits = 0;
            for round in 0..6 {
                let (m, stats) = net.solve(&g, &w, &prev, &SolveCtl::unlimited());
                m.validate(&g).unwrap();
                assert!(stats.completed);
                let (cold, cold_profit) = cold_and_certified(&net, &g, &w, &m);
                assert_eq!(
                    stats.profit, cold_profit,
                    "seed {seed} round {round}: warm profit diverged from cold"
                );
                if round == 0 {
                    assert_eq!(m, cold, "seed {seed}: a first solve is the cold solve");
                }
                warm_hits += u32::from(stats.warm);
                prev = m;
                drift(&mut w, round, 0.05);
            }
            assert!(
                warm_hits >= 1,
                "seed {seed}: small drift never produced a warm hit"
            );
        }
    }

    #[test]
    fn large_drift_still_exact() {
        // Violent drift defeats the carried potentials constantly; the
        // result must stay exact via the cold fallback.
        for seed in 0..5 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 25,
                    n_tasks: 20,
                    avg_degree: 4.0,
                    capacity: 1,
                    demand: 2,
                },
                seed,
            );
            let mut w = weights_of(&g, 0.5);
            let mut net = WarmNet::new(&g);
            let mut prev = Matching::from_edges(Vec::new());
            for round in 0..5 {
                drift(&mut w, round * 31 + seed, 0.9);
                let (m, stats) = net.solve(&g, &w, &prev, &SolveCtl::unlimited());
                m.validate(&g).unwrap();
                let (_, cold_profit) = cold_and_certified(&net, &g, &w, &m);
                assert_eq!(stats.profit, cold_profit, "seed {seed} round {round}");
                prev = m;
            }
        }
    }

    #[test]
    fn deaugmentation_is_detected() {
        // Seed a matching that becomes unprofitable: after the drift the
        // optimal matching is *smaller* than the seed, which forward
        // augmentation alone cannot reach.
        use mbta_graph::random::from_edges;
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8), (1, 0, 0.7, 0.7)],
        );
        let mut net = WarmNet::new(&g);
        // Round 1: all edges valuable; optimum takes the 0.8+0.7 pair.
        let w1 = vec![0.9, 0.8, 0.7];
        let paths = mbta_telemetry::global().counter("mbta_matching_mcmf_augmenting_paths_total");
        let counted = paths.get();
        let (m1, s1) = net.solve(
            &g,
            &w1,
            &Matching::from_edges(Vec::new()),
            &SolveCtl::unlimited(),
        );
        assert_eq!(m1.len(), 2);
        assert!(s1.completed);
        // `>=`: other tests in this binary bump the same process-wide counter.
        assert!(s1.iterations > 0 && paths.get() >= counted + s1.iterations);
        // Round 2: the pair collapses to zero weight; only edge 0 is
        // worth keeping, so the optimum has fewer edges than the seed.
        let w2 = vec![0.9, 0.0, 0.0];
        let (m2, s2) = net.solve(&g, &w2, &m1, &SolveCtl::unlimited());
        m2.validate(&g).unwrap();
        assert!(s2.completed);
        let (_, cold_profit) = cold_and_certified(&net, &g, &w2, &m2);
        assert_eq!(s2.profit, cold_profit, "zero-drift optimum not recovered");
        // Weight, not cardinality, is what must match the cold solve:
        let chosen: f64 = m2.edges.iter().map(|e| w2[e.index()]).sum();
        assert!(objectives_close(chosen, 0.9, 4));
    }

    #[test]
    fn infeasible_seed_degrades_to_cold() {
        use mbta_graph::random::from_edges;
        let g = from_edges(&[1], &[1, 1], &[(0, 0, 0.5, 0.5), (0, 1, 0.6, 0.6)]);
        let w = vec![0.5, 0.6];
        let mut net = WarmNet::new(&g);
        // Prime the carried state so the warm path is attempted.
        let (m, _) = net.solve(
            &g,
            &w,
            &Matching::from_edges(Vec::new()),
            &SolveCtl::unlimited(),
        );
        assert_eq!(m.len(), 1);
        // An over-capacity seed (both edges on the cap-1 worker).
        let bad = Matching::from_edges(g.edges().collect());
        let (m2, stats) = net.solve(&g, &w, &bad, &SolveCtl::unlimited());
        m2.validate(&g).unwrap();
        assert!(!stats.warm, "over-capacity seed must not warm-start");
        assert!(objectives_close(
            m2.edges.iter().map(|e| w[e.index()]).sum::<f64>(),
            0.6,
            4
        ));
    }

    #[test]
    fn empty_topology_solves() {
        use mbta_graph::random::from_edges;
        let g = from_edges(&[], &[], &[]);
        let mut net = WarmNet::new(&g);
        let (m, stats) = net.solve(
            &g,
            &[],
            &Matching::from_edges(Vec::new()),
            &SolveCtl::unlimited(),
        );
        assert!(m.is_empty());
        assert_eq!(stats.profit, 0);
        assert!(stats.completed);
    }

    #[test]
    fn interruption_is_reported_and_state_invalidated() {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 30,
                n_tasks: 20,
                avg_degree: 5.0,
                capacity: 2,
                demand: 2,
            },
            7,
        );
        let w = weights_of(&g, 0.5);
        let mut net = WarmNet::new(&g);
        let token = mbta_util::CancelToken::new();
        token.cancel();
        let ctl = SolveCtl::unlimited().with_token(token);
        let (_, stats) = net.solve(&g, &w, &Matching::from_edges(Vec::new()), &ctl);
        assert!(!stats.completed);
        assert!(!net.has_prior(), "interrupted solve must not carry state");
    }

    #[test]
    fn interrupted_refit_returns_the_seeded_flow() {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 40,
                n_tasks: 40,
                avg_degree: 6.0,
                capacity: 2,
                demand: 2,
            },
            11,
        );
        let mut w = weights_of(&g, 0.5);
        let mut net = WarmNet::new(&g);
        let (prev, _) = net.solve(&g, &w, &Matching::empty(), &SolveCtl::unlimited());
        // Enough drift that the carried potentials need a refit with cycle
        // cancelling (an uninterrupted solve moves off the seed).
        drift(&mut w, 1, 0.2);
        let (free, stats) = net.clone().solve(&g, &w, &prev, &SolveCtl::unlimited());
        assert!(stats.warm && stats.completed);
        assert_ne!(free, prev);
        // The refit sees the cancelled token at its first node and stops:
        // no cycle is cancelled, so what comes back is exactly the seed.
        let token = mbta_util::CancelToken::new();
        token.cancel();
        let ctl = SolveCtl::unlimited().with_token(token);
        let (m, stats) = net.solve(&g, &w, &prev, &ctl);
        m.validate(&g).unwrap();
        assert_eq!(m, prev);
        assert!(!stats.completed);
        assert!(!net.has_prior(), "interrupted refit must not carry state");
    }
}
