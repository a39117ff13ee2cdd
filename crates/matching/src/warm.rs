//! Warm-started min-cost flow for repeated solves on a fixed topology.
//!
//! When the same shard is re-solved many times with drifting weights —
//! every exact solve of a serving shard, batch or online — almost all of a
//! cold solve's work is redundant: the node set and arc arena never change,
//! only costs move and the previous solution is usually *nearly* optimal.
//! [`WarmNet`] is the [`crate::mcmf`] solver plus carried state: it keeps
//! one bipartite network (arena, arc layout, scratch and node potentials)
//! alive across solves. Every solve is the textbook re-optimisation of a
//! min-cost flow after a cost change — repair the duals where they broke,
//! not everywhere — and a first solve is no exception: it repairs from zero
//! prices. No solve runs the successive-shortest-path loop or Bellman–Ford
//! of [`crate::mcmf::max_weight_bmatching`]: from zero prices and an empty
//! seed, step 3 saturates every profitable arc and step 4 routes back what
//! does not fit (on a 1000 × 500 market, ~1 ms where that cold solve takes
//! ~150 ms).
//!
//! 1. **Seed.** New costs are written and the caller's matching is applied
//!    as flow. Together with the carried potentials that is a *pseudoflow
//!    candidate*: feasible, but some residual arcs may now have a negative
//!    reduced cost.
//! 2. **Re-price.** One O(E) pass moves each worker's and task's potential
//!    into the interval its own residual in- and out-arcs allow, when that
//!    interval is not empty. Prices move only where demand changed; about
//!    half of the violated arcs are mended here, for free.
//! 3. **Saturate.** One O(E) pass pushes every residual arc whose reduced
//!    cost is still negative to its capacity, booking the units as excess
//!    at its head and deficit at its tail. Now every residual arc has a
//!    non-negative reduced cost — for *any* seed and *any* carried
//!    potentials, so nothing is ever "too drifted" to repair.
//! 4. **Route.** While a node holds excess: one Dijkstra on reduced costs
//!    ([`crate::mcmf`]'s own) from one excess node — the lowest-index one —
//!    to the nearest deficit, the usual potential update, one unit pushed.
//!    Then, while the hub owes (below): the same Dijkstra over the
//!    *transposed* residual graph, from one deficit back to the nearest hub
//!    end, the mirrored update, one unit pushed from that end. Each search
//!    is local, there is at most one per unit of excess and of deficit, and
//!    it resets and lifts only the labels it wrote: a unit costs what its
//!    search settles, not O(n) and not O(imbalances).
//!
//! Free cardinality is what makes step 4 uniform: flow value is free, so
//! source and sink are one **hub** joined by a zero-cost return arc, and the
//! carried potentials are kept normalised to `π[sink] == π[source]`. The
//! hub absorbs any excess that reaches either of its ends (that is how
//! flow the drifted weights no longer justify is retracted) and, once no
//! inner node holds excess, hands the remaining deficits what they are
//! owed. Those units are searched from the deficit side: the hub is
//! adjacent to every worker and every task, so a search started there
//! settled ~60 % of the market before it met a deficit, where one started
//! at a deficit meets a hub end within a few nodes
//! ([`FlowResult::settled`] counts them). Any single imbalance may be the
//! next one routed — the potentials stay valid whichever it is — so a
//! search never starts from more than one: seeded with every imbalance, a
//! search re-scanned all their neighbourhoods for each unit. When the
//! imbalances are gone the flow is a circulation through the hub with no
//! negative residual arc: the optimum, with the carried potentials as its
//! certificate.
//!
//! Capacities may move between solves as well as costs
//! ([`WarmNet::set_capacities`] — the boundary-rescue market of a plan
//! epoch is one topology whose node capacities are each batch's residuals).
//! They are rewritten on the emptied network, before the seed is applied,
//! so steps 1–4 never see the change as such: a seed that fits the new
//! capacities is a feasible flow, the carried potentials are *some*
//! potentials, and an arc a capacity opened or widened is saturated or left
//! alone by the same reduced-cost test as any other. A node given no
//! capacity is closed, and so is every edge at it: their arcs have no
//! capacity either way, so no search enters them, re-pricing a closed node
//! moves nothing, and saturating or resetting its arcs writes nothing.
//! Once capacities are set, then, a solve walks only the open part: the
//! net keeps the open workers, tasks and edges in ascending order, rewrites
//! only the arcs whose capacity or open state changed, and its cost write,
//! flow reset, re-price, saturate, imbalance scan and read-out visit the
//! open set alone — in the order the whole-network passes would, so flow,
//! potentials and routing are theirs. An edge's cost is written when it is
//! open, so one that reopens carries the weight of the solve it reopens
//! in. A net that never calls `set_capacities` keeps the whole-network
//! loops.
//!
//! Every search consults the caller's [`SolveCtl`]. Mid-repair the network
//! holds a pseudoflow, not a matching, so an interrupted repair hands the
//! seed back (`completed` is `false`), but it keeps the prices its routed
//! units left: the next repair accepts any potentials, so a cut solve
//! becomes "finish next time". That is progress only where something
//! primal is kept too, in the caller's next seed: a deadline that cuts
//! every solve of an empty seed short never finishes, while one that cuts
//! solves seeded with a greedy matching does
//! (`cut_solves_finish_from_a_greedy_seed`). No search moves a hub end, so
//! the prices stay based at the hub, cut or not.
//!
//! The result is bit-identical in objective to a cold
//! [`crate::mcmf::max_weight_bmatching`] solve — the warm path is purely
//! a latency optimization, checked by the `warm_matches_cold_*` tests.

use crate::mcmf::{self, BipartiteNet, Certificate, CostFlow, FlowResult, Open, Scratch, Search};
use crate::solution::Matching;
use mbta_graph::{BipartiteGraph, EdgeId};
use mbta_util::SolveCtl;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Counters describing one [`WarmNet::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStats {
    /// `true` when the solve completed starting from carried prices and
    /// the caller's seed; `false` for a net's first solve (from zero
    /// prices), for a seed that did not fit (repaired from the empty flow)
    /// and for an interrupted solve.
    pub warm: bool,
    /// Units the repair routed, one shortest-path search each.
    pub iterations: u64,
    /// Nodes those searches settled ([`FlowResult::settled`]).
    pub settled: u64,
    /// Total fixed-point profit of the returned matching.
    pub profit: i64,
    /// `false` when `ctl` interrupted the solve; the returned matching is
    /// the seed and optimality is forfeited, but the prices are kept.
    pub completed: bool,
}

/// A reusable min-cost-flow network for one fixed bipartite topology.
///
/// Build once per shard (or per plan epoch), then call
/// [`WarmNet::solve`] every time the shard needs an exact re-solve. See
/// the [module docs](self) for the warm-start contract.
#[derive(Debug, Clone)]
pub struct WarmNet {
    /// The network; `bn.sc.pi` holds the carried potentials, normalised to
    /// `pi[source] == pi[sink] == 0` between solves.
    bn: BipartiteNet,
    has_prior: bool,
    /// The repair's two imbalance worklists, pooled across solves.
    lists: [VecDeque<usize>; 2],
}

impl WarmNet {
    /// Builds the network for `g`'s topology. Costs are set per solve.
    pub fn new(g: &BipartiteGraph) -> WarmNet {
        WarmNet {
            bn: BipartiteNet::new(g),
            has_prior: false,
            lists: Default::default(),
        }
    }

    /// Whether the net carries the prices of an earlier solve, completed or
    /// cut: every solve but the first starts from them.
    pub fn has_prior(&self) -> bool {
        self.has_prior
    }

    /// Replaces the capacities `g` was built with for every later solve:
    /// worker `w` may take `workers[w]` edges, task `t` `tasks[t]`, and a
    /// node given 0 is out of the market (its edges are closed to every
    /// search). Carried potentials survive — to the repair a capacity
    /// change is one more way the seed and the duals stopped agreeing — but
    /// each seed must fit the capacities in force, or its solve repairs
    /// from the empty flow.
    ///
    /// # Panics
    /// If a slice does not have one entry per worker / per task.
    pub fn set_capacities(&mut self, workers: &[u32], tasks: &[u32]) {
        self.bn.set_capacities(workers, tasks);
    }

    /// The carried potentials, based at the hub: after a completed solve,
    /// the proof that the matching it returned is optimal, for
    /// [`crate::mcmf::verify_certificate`]; after a cut one, only where the
    /// next repair starts.
    pub fn certificate(&self) -> Certificate {
        Certificate {
            potentials: self.bn.sc.pi.clone(),
        }
    }

    /// The edges the capacities in force leave open — both endpoints have
    /// capacity — ascending; `None` before the first
    /// [`set_capacities`](Self::set_capacities), when every edge is.
    pub fn open_edges(&self) -> Option<&[EdgeId]> {
        self.bn.open_edges()
    }

    /// Exact free-cardinality maximum-weight b-matching on the fixed
    /// topology: the repair of the [module docs](self) from `seed` (the
    /// previous matching, or any other feasible one) and the carried
    /// potentials, zero on a first solve.
    ///
    /// `weights` must be finite and non-negative; `seed` must be
    /// feasible on `g` (edges within the capacities in force). Returns the
    /// optimal matching and [`WarmStats`]. On `ctl` interruption the
    /// matching is the seed, `completed` is `false`, and the potentials the
    /// cut left are kept for the next solve.
    pub fn solve(
        &mut self,
        g: &BipartiteGraph,
        weights: &[f64],
        seed: &Matching,
        ctl: &SolveCtl,
    ) -> (Matching, WarmStats) {
        // Edge count alone would let a same-sized shard of another plan in.
        let shape = [g.n_workers(), g.n_tasks(), g.n_edges()];
        assert_eq!(shape, self.bn.shape(), "graph topology changed");
        self.bn.set_costs(weights);
        // An infeasible seed only happens on a caller bug; the repair then
        // starts from the empty flow rather than panicking.
        let (empty, seeded) = (Matching::empty(), self.bn.apply(g, seed));
        let start = if seeded { seed } else { &empty };
        let (r, completed) = self.repair(ctl);
        if !completed {
            // Mid-repair the network holds a pseudoflow: hand back the
            // start. The prices stay, valid or not — the next repair
            // accepts any.
            self.bn.apply(g, start);
        }
        // No search moves a hub end: both are targets, so the one a search
        // stops at is its cap and the other one is no nearer, and an update
        // moves only the nodes settled below its cap. The potentials stay
        // based at the hub, where the first solve started them.
        let (pi, source, sink) = (&self.bn.sc.pi, self.bn.source, self.bn.sink);
        debug_assert_eq!((pi[source], pi[sink]), (0, 0), "a hub end moved");
        let warm = std::mem::replace(&mut self.has_prior, true) && seeded && completed;
        let (m, profit) = self.bn.matching(g);
        let stats = WarmStats {
            warm,
            iterations: r.iterations,
            settled: r.settled,
            profit,
            completed,
        };
        (m, stats)
    }

    /// Steps 2–4 of the [module docs](self) on the seeded network: re-price,
    /// saturate, route. Returns `(tallies, completed)` like the cold loop.
    fn repair(&mut self, ctl: &SolveCtl) -> (FlowResult, bool) {
        let mut excess = self.saturate();
        let bn = &mut self.bn;
        let (net, sc, source, sink) = (&mut bn.net, &mut bn.sc, bn.source, bn.sink);
        let hub = |v: usize| v == source || v == sink;
        // The inner nodes holding excess and those holding a deficit, each
        // ascending, in the pooled worklists. An inner imbalance only moves
        // towards zero, so these only lose entries; a settled one is
        // dropped when it reaches the front.
        let [surplus, owed] = &mut self.lists;
        surplus.clear();
        owed.clear();
        for v in inner(source, sink, &bn.open) {
            match excess[v].cmp(&0) {
                Ordering::Greater => surplus.push_back(v),
                Ordering::Less => owed.push_back(v),
                Ordering::Equal => {}
            }
        }
        // Inner excess goes first, and to it the hub is always a target;
        // what the inner deficits are still owed once no inner node holds
        // any is the hub's, searched for from the deficits. Each search
        // starts at the lowest-index imbalance of its kind.
        let mut r = mcmf::NO_FLOW;
        let completed = loop {
            for list in [&mut *surplus, &mut *owed] {
                while list.front().is_some_and(|&v| excess[v] == 0) {
                    list.pop_front();
                }
            }
            debug_assert!(
                {
                    let scan = || inner(source, sink, &bn.open);
                    let surplus_scan = scan().filter(|&v| excess[v] > 0);
                    let owed_scan = scan().filter(|&v| excess[v] < 0);
                    let pending = owed.iter().copied().filter(|&v| excess[v] != 0);
                    surplus.iter().copied().eq(surplus_scan) && pending.eq(owed_scan)
                },
                "a worklist disagrees with a scan of the excess"
            );
            let unit = if let Some(&v) = surplus.front() {
                route::<false>(net, sc, v, |v| hub(v) || excess[v] < 0, ctl, &mut r)
            } else if let Some(&v) = owed.front() {
                route::<true>(net, sc, v, hub, ctl, &mut r)
            } else {
                debug_assert_eq!(excess[source] + excess[sink], 0);
                break true;
            };
            let Some((from, to)) = unit else {
                break false;
            };
            excess[from] -= 1;
            excess[to] += 1;
        };
        mcmf::record_solve(&r);
        (r, completed)
    }

    /// Steps 2–3 of the [module docs](self) on the seeded network: re-price,
    /// saturate. Returns every node's excess (negative: deficit). On a
    /// capacity-restricted network both walk the open set: a closed node
    /// has no arc with capacity either way, so re-pricing it moves nothing
    /// and none of its arcs saturates.
    fn saturate(&mut self) -> Vec<i64> {
        let n_arcs = self.bn.net.head.len();
        let bn = &mut self.bn;
        let (net, pi) = (&mut bn.net, &mut bn.sc.pi);
        match &bn.open {
            None => {
                reprice(net, pi, bn.source + 1..bn.sink);
                saturate(net, pi, 0..n_arcs)
            }
            Some(open) => {
                reprice(net, pi, open.nodes.iter().map(|&v| v as usize));
                // Each open arc, then its twin: arc order.
                let arcs = open.arcs.iter().map(|&a| a as usize);
                saturate(net, pi, arcs.flat_map(|a| [a, a ^ 1]))
            }
        }
    }
}

/// Step 2, re-price: both bounds an arc pair puts on `pi[v]` are
/// `pi[other end] − cost`, a floor while the out-arc has capacity left and
/// a ceiling while its twin (the in-arc) has. Each of `nodes` moves into
/// its interval when that is not empty.
fn reprice(net: &CostFlow, pi: &mut [i64], nodes: impl Iterator<Item = usize>) {
    for v in nodes {
        let (mut lo, mut hi) = (i64::MIN, i64::MAX);
        let mut a = net.first[v];
        while a != mcmf::NONE {
            let ai = a as usize;
            let bound = pi[net.head[ai] as usize] - net.cost[ai];
            if net.cap[ai] > 0 {
                lo = lo.max(bound);
            }
            if net.cap[ai ^ 1] > 0 {
                hi = hi.min(bound);
            }
            a = net.next[ai];
        }
        if lo <= hi {
            pi[v] = pi[v].clamp(lo, hi);
        }
    }
}

/// Step 3, saturate: pushes each of `arcs` whose reduced cost is still
/// negative to its capacity, in the order given. Returns every node's
/// excess.
fn saturate(net: &mut CostFlow, pi: &[i64], arcs: impl Iterator<Item = usize>) -> Vec<i64> {
    let mut excess = vec![0i64; net.n_nodes];
    for a in arcs {
        let units = net.cap[a];
        if units > 0 && net.reduced_cost(a, pi) < 0 {
            net.cap[a] = 0;
            net.cap[a ^ 1] += units;
            excess[net.head[a] as usize] += i64::from(units);
            excess[net.head[a ^ 1] as usize] -= i64::from(units);
        }
    }
    excess
}

/// The worker and task nodes in ascending order: all of them, or on a
/// capacity-restricted network the open ones — a closed node's arcs carry
/// nothing either way, so it never holds excess.
fn inner(source: usize, sink: usize, open: &Option<Open>) -> impl Iterator<Item = usize> + '_ {
    let (all, open) = match open {
        None => (source + 1..sink, &[][..]),
        Some(open) => (0..0, &open.nodes[..]),
    };
    all.chain(open.iter().map(|&v| v as usize))
}

/// Routes one unit: a search from `start` to the nearest node that
/// `is_target` — over the transposed residual graph when `REV` — the
/// matching potential update, and one unit pushed along the path. Returns
/// the nodes the unit left and reached, or `None` when `ctl` stopped the
/// search.
fn route<const REV: bool>(
    net: &mut CostFlow,
    sc: &mut Scratch,
    start: usize,
    is_target: impl Fn(usize) -> bool,
    ctl: &SolveCtl,
    r: &mut FlowResult,
) -> Option<(usize, usize)> {
    let (end, settled) = net.dijkstra::<REV>(start, is_target, sc, ctl);
    r.settled += settled;
    let reached = match end {
        Search::Reached(v) => v,
        Search::Interrupted => return None,
        Search::Exhausted => unreachable!("every imbalance reaches the hub"),
    };
    r.potential_updates += sc.lift::<REV>(sc.dist[reached]);
    let (start, ..) = net.augment::<REV>(reached, &sc.parent, 1);
    r.iterations += 1;
    Some(if REV {
        (reached, start)
    } else {
        (start, reached)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcmf::{max_weight_bmatching, verify_certificate, FlowMode, PathAlgo};
    use mbta_graph::random::{random_bipartite, RandomGraphSpec};
    use mbta_graph::subgraph::{induce, Subgraph, SubgraphSpec};
    use mbta_graph::TaskId;
    use mbta_util::fixed::objectives_close;
    use mbta_util::SplitMix64;

    /// The objective every solve reaches: the cold free-cardinality optimum.
    const MODE: FlowMode = FlowMode::FreeCardinality;
    const ALGO: PathAlgo = PathAlgo::Dijkstra;

    /// The exact cold solve `net` must agree with, and — through the
    /// independent verifier — proof that the potentials `net` carries
    /// certify the matching it just returned, normalised at the hub.
    fn cold_and_certified(
        net: &WarmNet,
        g: &BipartiteGraph,
        w: &[f64],
        m: &Matching,
    ) -> (Matching, i64) {
        let cert = net.certificate();
        assert!(
            hub_based(net),
            "carried potentials are not based at the hub"
        );
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
                    assert_eq!(m, cold, "seed {seed}: a first solve is the cold optimum");
                }
                assert_eq!(stats.warm, round > 0, "only a first solve starts at zero");
                prev = m;
                drift(&mut w, round, 0.05);
            }
        }
    }

    #[test]
    fn large_drift_still_exact() {
        // Violent drift breaks the carried potentials almost everywhere;
        // nothing is too drifted to repair, and the result stays exact.
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
                assert_eq!(stats.warm, round > 0, "seed {seed} round {round}");
                prev = m;
            }
        }
    }

    #[test]
    fn overcommitted_flow_is_retracted() {
        // Seed a matching that becomes unprofitable: after the drift the
        // optimal matching is *smaller* than the seed, so the repair has to
        // send flow back through the hub.
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
        assert!(s2.completed && s2.warm);
        let (_, cold_profit) = cold_and_certified(&net, &g, &w2, &m2);
        assert_eq!(s2.profit, cold_profit, "zero-drift optimum not recovered");
        // Weight, not cardinality, is what must match the cold solve:
        let chosen: f64 = m2.edges.iter().map(|e| w2[e.index()]).sum();
        assert!(objectives_close(chosen, 0.9, 4));
    }

    #[test]
    fn infeasible_seed_repairs_from_the_empty_flow() {
        use mbta_graph::random::from_edges;
        let g = from_edges(&[1], &[1, 1], &[(0, 0, 0.5, 0.5), (0, 1, 0.6, 0.6)]);
        let w = vec![0.5, 0.6];
        let mut net = WarmNet::new(&g);
        let (m, _) = net.solve(&g, &w, &Matching::empty(), &SolveCtl::unlimited());
        assert_eq!(m.len(), 1);
        // An over-capacity seed (both edges on the cap-1 worker).
        let bad = Matching::from_edges(g.edges().collect());
        let (m2, stats) = net.solve(&g, &w, &bad, &SolveCtl::unlimited());
        m2.validate(&g).unwrap();
        assert!(
            stats.completed && !stats.warm,
            "an unfit seed counts as no hit"
        );
        let (_, cold_profit) = cold_and_certified(&net, &g, &w, &m2);
        assert_eq!(stats.profit, cold_profit);
        assert!(objectives_close(
            m2.edges.iter().map(|e| w[e.index()]).sum::<f64>(),
            0.6,
            4
        ));
        // Cut, it hands back the empty flow it started from, not the seed.
        let (m3, stats) = net.solve(&g, &w, &bad, &cut_after(1));
        assert!(!stats.completed && m3.is_empty());
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

    /// A net is bound to the shape it was built for — node counts too: a
    /// shard of another plan can have this one's edge count.
    #[test]
    #[should_panic(expected = "topology changed")]
    fn solving_another_topology_with_the_same_edge_count_panics() {
        use mbta_graph::random::from_edges;
        let built = from_edges(&[1, 1], &[2], &[(0, 0, 0.5, 0.5), (1, 0, 0.4, 0.4)]);
        let other = from_edges(&[2], &[1, 1], &[(0, 0, 0.5, 0.5), (0, 1, 0.4, 0.4)]);
        let mut net = WarmNet::new(&built);
        let ctl = SolveCtl::unlimited();
        net.solve(&other, &[0.5, 0.4], &Matching::empty(), &ctl);
    }

    /// A control block that stops the solve it is handed at that solve's
    /// `polls`-th poll. Each needs its own: the countdown carries across
    /// solves.
    fn cut_after(polls: u32) -> SolveCtl {
        let token = mbta_util::CancelToken::new();
        let ctl = SolveCtl::unlimited()
            .with_token(token.clone())
            .with_check_interval(polls);
        // The first `should_stop` is a real check; spend it before the
        // token is cancelled.
        assert!(!ctl.should_stop());
        token.cancel();
        ctl
    }

    /// Whether `net`'s carried potentials are based at the hub.
    fn hub_based(net: &WarmNet) -> bool {
        let pi = &net.bn.sc.pi;
        (pi[net.bn.source], pi[net.bn.sink]) == (0, 0)
    }

    #[test]
    fn interruption_is_reported_and_prices_kept() {
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
        let (m, stats) = net.solve(&g, &w, &Matching::empty(), &ctl);
        assert!(!stats.completed && !stats.warm);
        assert!(m.is_empty(), "a cut hands back its seed");
        assert!(net.has_prior() && hub_based(&net), "a cut keeps its prices");
        let (next, stats) = net.solve(&g, &w, &m, &SolveCtl::unlimited());
        assert!(stats.completed && stats.warm);
        let (_, cold_profit) = cold_and_certified(&net, &g, &w, &next);
        assert_eq!(stats.profit, cold_profit);
    }

    /// Stops `primed`'s solve of `(g, w, seed)` at its first, second, …
    /// poll until one runs to the end. Every stopped solve hands back the
    /// seed and keeps hub-based prices, and the unlimited solve after it
    /// starts from those, is `optimum` again and `fits`. Returns how many
    /// poll counts stopped the repair and how many units it routes when
    /// left alone.
    fn interrupt_at_every_poll(
        primed: &WarmNet,
        g: &BipartiteGraph,
        w: &[f64],
        seed: &Matching,
        optimum: i64,
        fits: impl Fn(&WarmNet, &Matching) -> bool,
    ) -> (u64, u64) {
        let (free, stats) = primed.clone().solve(g, w, seed, &SolveCtl::unlimited());
        assert!(stats.warm && stats.iterations > 0 && stats.profit == optimum);
        assert_ne!(&free, seed, "the repair must move off the seed");
        let mut interrupted = 0;
        for polls in 1.. {
            let mut net = primed.clone();
            let (m, stats) = net.solve(g, w, seed, &cut_after(polls));
            if stats.completed {
                assert_eq!(m, free, "{polls} polls");
                break;
            }
            interrupted += 1;
            // Never the half-routed pseudoflow: the seed, and the prices.
            assert_eq!(&m, seed, "{polls} polls");
            assert!(!stats.warm && hub_based(&net), "{polls} polls");
            let (next, stats) = net.solve(g, w, &m, &SolveCtl::unlimited());
            assert!(fits(&net, &next), "{polls} polls");
            assert_eq!(
                (stats.completed, stats.warm, stats.profit),
                (true, true, optimum),
                "{polls} polls"
            );
        }
        (interrupted, stats.iterations)
    }

    #[test]
    fn interrupted_repair_returns_the_seed_at_every_poll_count() {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 24,
                n_tasks: 24,
                avg_degree: 5.0,
                capacity: 2,
                demand: 2,
            },
            11,
        );
        let mut w = weights_of(&g, 0.5);
        let mut primed = WarmNet::new(&g);
        let (prev, _) = primed.solve(&g, &w, &Matching::empty(), &SolveCtl::unlimited());
        // Enough drift that an uninterrupted repair saturates arcs, routes
        // their excess and moves off the seed.
        drift(&mut w, 1, 0.2);
        let optimum = max_weight_bmatching(&g, &w, MODE, ALGO).1.profit;
        let certified =
            |net: &WarmNet, m: &Matching| verify_certificate(&g, &w, m, &net.certificate());
        let (interrupted, units) =
            interrupt_at_every_poll(&primed, &g, &w, &prev, optimum, certified);
        assert!(interrupted > units, "polls are per node, not per search");
    }

    /// The same on a repair that routes units from the deficit side: the
    /// nodes a first solve left out of the market are reopened.
    #[test]
    fn interrupted_repair_with_hub_owed_units_returns_the_seed() {
        let (g, base) = market(24, 24, 11);
        let mut primed = WarmNet::new(&g);
        let closed = closing(&g, &base, 1);
        let ctl = SolveCtl::unlimited();
        let (prev, _) = primed.solve(&g, &closed, &Matching::empty(), &ctl);
        assert!(hub_owed(&primed, &g, &base, &prev) > 0);
        let optimum = max_weight_bmatching(&g, &base, MODE, ALGO).1.profit;
        let certified =
            |net: &WarmNet, m: &Matching| verify_certificate(&g, &base, m, &net.certificate());
        let (interrupted, units) =
            interrupt_at_every_poll(&primed, &g, &base, &prev, optimum, certified);
        assert!(interrupted > units, "polls are per node, not per search");
    }

    /// A random market with capacities and demands of 2, and its weights.
    fn market(n_workers: usize, n_tasks: usize, seed: u64) -> (BipartiteGraph, Vec<f64>) {
        let spec = RandomGraphSpec {
            n_workers,
            n_tasks,
            avg_degree: 5.0,
            capacity: 2,
            demand: 2,
        };
        let g = random_bipartite(&spec, seed);
        let w = weights_of(&g, 0.5);
        (g, w)
    }

    /// `w` with every edge of about a quarter of the workers and tasks
    /// (chosen by `round`) priced at 0: those nodes are out of the market,
    /// and free in its optimum until a later solve reopens them.
    fn closing(g: &BipartiteGraph, w: &[f64], round: u64) -> Vec<f64> {
        let (wc, tc) = (
            capacities(g.n_workers(), round, 1),
            capacities(g.n_tasks(), round, 2),
        );
        let open = |e| wc[g.worker_of(e).index()] > 0 && tc[g.task_of(e).index()] > 0;
        g.edges()
            .map(|e| if open(e) { w[e.index()] } else { 0.0 })
            .collect()
    }

    /// How many of the units `net`'s repair of `seed` under `w` routes are
    /// owed by the hub, i.e. searched for from the deficit side. The rest
    /// are the inner excess that re-pricing and saturating leave, routed
    /// forward one search per unit; nothing creates inner excess later.
    fn hub_owed(net: &WarmNet, g: &BipartiteGraph, w: &[f64], seed: &Matching) -> u64 {
        let (_, stats) = net.clone().solve(g, w, seed, &SolveCtl::unlimited());
        assert!(stats.warm, "not a repair");
        let mut net = net.clone();
        net.bn.set_costs(w);
        net.bn.apply(g, seed);
        let excess = net.saturate();
        let (source, sink) = (net.bn.source, net.bn.sink);
        let forward: i64 = excess[source + 1..sink].iter().filter(|&&x| x > 0).sum();
        stats.iterations - forward as u64
    }

    /// The search for a unit the hub owes starts at the deficits, not at
    /// the hub, which reaches every worker and task: when a 240 × 120
    /// market's capacities and demands grow from 1 to 2, the repair settles
    /// at most an eighth of the nodes per routed unit (searched for from
    /// the hub, the owed units settled over half of them each).
    #[test]
    fn hub_owed_units_are_searched_locally() {
        let (g, base) = market(240, 120, 3);
        let mut net = WarmNet::new(&g);
        let ctl = SolveCtl::unlimited();
        let of = |c: u32| (vec![c; g.n_workers()], vec![c; g.n_tasks()]);
        let (wc, tc) = of(1);
        net.set_capacities(&wc, &tc);
        let (prev, _) = net.solve(&g, &base, &Matching::empty(), &ctl);
        // Back to the market's own.
        let (wc, tc) = of(2);
        net.set_capacities(&wc, &tc);
        let owed = hub_owed(&net, &g, &base, &prev);
        let (m, stats) = net.solve(&g, &base, &prev, &ctl);
        let units = stats.iterations;
        assert!(owed * 3 > units, "{owed} of {units} units owed");
        let (_, cold_profit) = cold_and_certified(&net, &g, &base, &m);
        assert_eq!(stats.profit, cold_profit);
        let n = net.bn.net.n_nodes as u64;
        assert!(
            stats.settled * 8 <= stats.iterations * n,
            "{} nodes settled for {} units on {n} nodes",
            stats.settled,
            stats.iterations
        );
    }

    /// A repair's search starts at one imbalance and resets and lifts only
    /// the labels it wrote, so what a routed unit costs does not grow with
    /// the market: on a 10 502-node one, under small, medium and large
    /// drift, a unit settles at most 8 nodes (2.8–3.5 measured; seeded
    /// with every imbalance, a search settled ~400).
    #[test]
    fn repair_work_does_not_grow_with_the_market() {
        let spec = RandomGraphSpec {
            n_workers: 7000,
            n_tasks: 3500,
            avg_degree: 8.0,
            capacity: 2,
            demand: 2,
        };
        let g = random_bipartite(&spec, 9);
        let mut w = weights_of(&g, 0.5);
        let mut net = WarmNet::new(&g);
        let ctl = SolveCtl::unlimited();
        let greedy = crate::greedy::greedy_bmatching(&g, &w, 0.0);
        let (mut prev, _) = net.solve(&g, &w, &greedy, &ctl);
        for (round, mag) in [0.01, 0.05, 0.2].into_iter().enumerate() {
            drift(&mut w, round as u64, mag);
            let (m, stats) = net.solve(&g, &w, &prev, &ctl);
            assert!(stats.warm && stats.iterations > 0, "drift {mag}: no repair");
            assert!(verify_certificate(&g, &w, &m, &net.certificate()));
            assert!(
                stats.settled <= 8 * stats.iterations,
                "drift {mag}: {} nodes settled for {} units",
                stats.settled,
                stats.iterations
            );
            prev = m;
        }
    }

    /// Each round reopens the nodes the last one closed and closes others,
    /// so every repair owes units from the hub; every one is exact,
    /// certified and re-based at the hub.
    #[test]
    fn reopened_nodes_resolve_exact_and_certified() {
        for seed in 0..8 {
            let (g, base) = market(40, 25, 60 + seed);
            let mut net = WarmNet::new(&g);
            let mut prev = Matching::empty();
            for round in 0..8 {
                let w = closing(&g, &base, round);
                let owed = (round > 0).then(|| hub_owed(&net, &g, &w, &prev));
                assert_ne!(owed, Some(0), "seed {seed} round {round}");
                let (m, stats) = net.solve(&g, &w, &prev, &SolveCtl::unlimited());
                assert_eq!((stats.completed, stats.warm), (true, round > 0));
                let (_, cold_profit) = cold_and_certified(&net, &g, &w, &m);
                assert_eq!(stats.profit, cold_profit, "seed {seed} round {round}");
                prev = m;
            }
        }
    }

    /// Deterministic capacities in `0..=3`, about a quarter of them 0 — on
    /// the capacity-2 graphs below that is nodes leaving the market, nodes
    /// shrinking under the flow they carried, and nodes growing.
    fn capacities(n: usize, round: u64, salt: u64) -> Vec<u32> {
        (0..n as u64)
            .map(|i| {
                let h = (i ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(round.wrapping_mul(0xBF58_476D_1CE4_E5B9));
                (h >> 40) as u32 % 4
            })
            .collect()
    }

    /// `m` cut down, in edge order, to what fits `caps = (workers, tasks)`.
    fn trim(g: &BipartiteGraph, m: &Matching, caps: (&[u32], &[u32])) -> Matching {
        let (mut wc, mut tc) = (caps.0.to_vec(), caps.1.to_vec());
        let fits = |e: &mbta_graph::EdgeId| {
            let (w, t) = (g.worker_of(*e).index(), g.task_of(*e).index());
            let ok = wc[w] > 0 && tc[t] > 0;
            if ok {
                wc[w] -= 1;
                tc[t] -= 1;
            }
            ok
        };
        Matching::from_edges(m.edges.iter().copied().filter(fits).collect())
    }

    /// `g` induced with `caps = (workers, tasks)`: the market a solve after
    /// `set_capacities(caps)` sees, its closed nodes left out.
    fn restricted(g: &BipartiteGraph, caps: (&[u32], &[u32])) -> Subgraph {
        let workers: Vec<_> = g.workers().map(|x| (x, caps.0[x.index()])).collect();
        let tasks: Vec<_> = g.tasks().map(|x| (x, caps.1[x.index()])).collect();
        let spec = SubgraphSpec {
            workers: &workers,
            tasks: &tasks,
        };
        induce(g, &spec, |_| true)
    }

    /// The cold optimum's profit on `g` induced with `caps` — what a solve
    /// after `set_capacities(caps)` must reach.
    fn cold_profit_under(g: &BipartiteGraph, w: &[f64], caps: (&[u32], &[u32])) -> i64 {
        let sub = restricted(g, caps);
        max_weight_bmatching(&sub.graph, &sub.project_weights(w), MODE, ALGO)
            .1
            .profit
    }

    /// Whether the potentials `net` carries, read on `g` induced with
    /// `caps`, certify `m` there.
    fn certified_under(
        net: &WarmNet,
        g: &BipartiteGraph,
        w: &[f64],
        m: &Matching,
        caps: (&[u32], &[u32]),
    ) -> bool {
        let sub = restricted(g, caps);
        let full = net.certificate().potentials;
        let task = |t: &TaskId| full[1 + g.n_workers() + t.index()];
        let mut pi = vec![full[0]];
        pi.extend(sub.worker_back.iter().map(|x| full[1 + x.index()]));
        pi.extend(sub.task_back.iter().map(task));
        pi.push(full[full.len() - 1]);
        let local = |e: &EdgeId| EdgeId::from_index(sub.edge_back.binary_search(e).unwrap());
        let m = Matching::from_edges(m.edges.iter().map(local).collect());
        let cert = Certificate { potentials: pi };
        verify_certificate(&sub.graph, &sub.project_weights(w), &m, &cert)
    }

    /// One round of capacity churn: an open node closes with probability
    /// 0.2 or else is resized with probability 0.2, a closed one opens with
    /// probability 0.05 — about a fifth of the nodes open at any time.
    fn churn(caps: &mut [u32], rng: &mut SplitMix64) {
        for c in caps {
            let size = |rng: &mut SplitMix64| 1 + rng.next_below(3) as u32;
            *c = match *c {
                0 if rng.next_bool(0.05) => size(rng),
                0 => 0,
                _ if rng.next_bool(0.2) => 0,
                _ if rng.next_bool(0.2) => size(rng),
                open => open,
            };
        }
    }

    /// A rescue-shaped market: about 4 % of the edges open, nodes closing
    /// and reopening every round while every weight drifts, so an edge
    /// that reopens carries a weight written while it was closed. Each of
    /// 240 solves is the cold optimum of the restricted market, certified
    /// there by hub-based potentials, and equal — matching, counters and
    /// every node's potential — to the same solve by a net whose passes
    /// walk the whole network.
    #[test]
    fn capacity_churn_resolves_exact_on_the_open_market() {
        const ROUNDS: u64 = 240;
        let (g, mut w) = market(600, 300, 21);
        let mut rng = SplitMix64::new(5);
        let mut open = |n| (0..n).map(|_| u32::from(rng.next_bool(0.2)) * 2).collect();
        let (mut wc, mut tc): (Vec<u32>, Vec<u32>) = (open(g.n_workers()), open(g.n_tasks()));
        let (mut net, mut whole) = (WarmNet::new(&g), WarmNet::new(&g));
        let (mut prev, mut open_edges, ctl) = (Matching::empty(), 0, SolveCtl::unlimited());
        for round in 0..ROUNDS {
            let caps = (&wc[..], &tc[..]);
            net.set_capacities(&wc, &tc);
            whole.set_capacities(&wc, &tc);
            whole.bn.open = None;
            let seed = trim(&g, &prev, caps);
            let (m, stats) = net.solve(&g, &w, &seed, &ctl);
            assert!(stats.completed && hub_based(&net), "round {round}");
            let solved = (m, stats);
            assert_eq!(solved, whole.solve(&g, &w, &seed, &ctl), "round {round}");
            let (m, stats) = solved;
            let pi = net.certificate().potentials;
            assert_eq!(pi, whole.certificate().potentials, "round {round}");
            assert_eq!(
                stats.profit,
                cold_profit_under(&g, &w, caps),
                "round {round}"
            );
            assert!(certified_under(&net, &g, &w, &m, caps), "round {round}");
            open_edges += net.open_edges().unwrap().len();
            prev = m;
            drift(&mut w, round, 0.1);
            churn(&mut wc, &mut rng);
            churn(&mut tc, &mut rng);
        }
        let share = open_edges as f64 / (ROUNDS as usize * g.n_edges()) as f64;
        assert!(
            (0.02..0.08).contains(&share),
            "{share:.3} of the edges open"
        );
    }

    #[test]
    fn capacity_changes_resolve_warm_and_exact() {
        for seed in 0..8 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 36,
                    n_tasks: 28,
                    avg_degree: 5.0,
                    capacity: 2,
                    demand: 2,
                },
                40 + seed,
            );
            let mut w = weights_of(&g, 0.5);
            let mut net = WarmNet::new(&g);
            let mut prev = Matching::empty();
            for round in 0..8 {
                let wc = capacities(g.n_workers(), round, seed);
                let tc = capacities(g.n_tasks(), round, seed + 100);
                let caps = (&wc[..], &tc[..]);
                net.set_capacities(&wc, &tc);
                let start = trim(&g, &prev, caps);
                let (m, stats) = net.solve(&g, &w, &start, &SolveCtl::unlimited());
                assert_eq!(
                    trim(&g, &m, caps),
                    m,
                    "seed {seed} round {round}: over capacity"
                );
                assert_eq!(
                    stats.profit,
                    cold_profit_under(&g, &w, caps),
                    "seed {seed} round {round}: not the optimum under the new capacities"
                );
                assert_eq!(
                    (stats.completed, stats.warm),
                    (true, round > 0),
                    "seed {seed} round {round}"
                );
                prev = m;
                drift(&mut w, round, 0.1);
            }
        }
    }

    #[test]
    fn interrupted_repair_across_a_capacity_change_returns_the_seed() {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 24,
                n_tasks: 24,
                avg_degree: 5.0,
                capacity: 2,
                demand: 2,
            },
            11,
        );
        let mut w = weights_of(&g, 0.5);
        let mut primed = WarmNet::new(&g);
        let (prev, _) = primed.solve(&g, &w, &Matching::empty(), &SolveCtl::unlimited());
        drift(&mut w, 1, 0.2);
        let (wc, tc) = (capacities(24, 1, 7), capacities(24, 1, 8));
        let caps = (&wc[..], &tc[..]);
        primed.set_capacities(&wc, &tc);
        let start = trim(&g, &prev, caps);
        assert!(
            start.len() < prev.len(),
            "no capacity shrank below its flow"
        );
        let optimum = cold_profit_under(&g, &w, caps);
        // The seed fits the *new* capacities, and so must every re-solve.
        let fits = |_: &WarmNet, m: &Matching| trim(&g, m, caps) == *m;
        let (interrupted, _) = interrupt_at_every_poll(&primed, &g, &w, &start, optimum, fits);
        assert!(interrupted > 0);
    }

    #[test]
    #[should_panic(expected = "capacity slice length mismatch")]
    fn capacities_of_the_wrong_length_panic() {
        use mbta_graph::random::from_edges;
        let g = from_edges(&[1, 1], &[2], &[(0, 0, 0.5, 0.5), (1, 0, 0.4, 0.4)]);
        WarmNet::new(&g).set_capacities(&[1], &[2]);
    }

    /// A cut keeps its prices, and those carry the cut's work into the next
    /// solve: re-solving one 1000 × 500 market from a greedy seed, each
    /// solve cut after a tenth of the nodes an uncut one settles, finishes
    /// within a bounded number of solves (11 measured), exact and certified.
    ///
    /// Progress needs a non-empty seed. A cut hands back its seed, so the
    /// prices are all an interrupted repair keeps; from the empty matching,
    /// every solve has to re-route all of the optimum's flow, and cuts
    /// below about a quarter of a solve never finish (0 of 200 did at a
    /// tenth). Serving seeds are a shard's greedy-repaired assignment,
    /// which is non-empty after its first event.
    #[test]
    fn cut_solves_finish_from_a_greedy_seed() {
        let spec = RandomGraphSpec {
            n_workers: 1000,
            n_tasks: 500,
            avg_degree: 8.0,
            capacity: 2,
            demand: 2,
        };
        let g = random_bipartite(&spec, 42);
        let w = weights_of(&g, 0.5);
        let greedy = crate::greedy::greedy_bmatching(&g, &w, 0.0);
        let ctl = SolveCtl::unlimited();
        let (_, uncut) = WarmNet::new(&g).solve(&g, &w, &greedy, &ctl);
        let polls = (uncut.settled / 10) as u32;
        let mut net = WarmNet::new(&g);
        let finished = (1..=CUT_SOLVES).find_map(|solves| {
            let (m, stats) = net.solve(&g, &w, &greedy, &cut_after(polls));
            stats.completed.then_some((solves, m, stats))
        });
        let Some((solves, m, stats)) = finished else {
            panic!("{CUT_SOLVES} solves cut at {polls} polls did not finish");
        };
        assert!(solves > 1, "the cut did not bite");
        let (_, cold_profit) = cold_and_certified(&net, &g, &w, &m);
        assert_eq!(stats.profit, cold_profit);
        // The empty seed at the same cut: nothing primal is kept.
        let mut net = WarmNet::new(&g);
        for _ in 0..CUT_SOLVES {
            let (_, stats) = net.solve(&g, &w, &Matching::empty(), &cut_after(polls));
            assert!(!stats.completed, "an empty seed finished under the cut");
        }
    }

    /// How many cut solves [`cut_solves_finish_from_a_greedy_seed`] allows.
    const CUT_SOLVES: usize = 20;

    #[test]
    fn potentials_stay_bounded_in_a_long_lived_net() {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 14,
                n_tasks: 10,
                avg_degree: 3.0,
                capacity: 2,
                demand: 2,
            },
            5,
        );
        let base = weights_of(&g, 0.5);
        let mut net = WarmNet::new(&g);
        let mut prev = Matching::empty();
        let bound = net.bn.net.n_nodes as i64 * mbta_util::fixed::SCALE;
        for round in 0..10_000u64 {
            // Drift around the base weights, with one worker switched off
            // (all its weights 0) in two rounds of three.
            let mut w = base.clone();
            drift(&mut w, round, 0.3);
            let off = (round % 3 < 2).then_some((round / 3) as usize % g.n_workers());
            for e in g.edges() {
                if Some(g.worker_of(e).index()) == off {
                    w[e.index()] = 0.0;
                }
            }
            // Every seventh solve is cut a few polls in, keeping its prices.
            let cut = round % 7 == 6;
            let ctl = match cut {
                true => cut_after(1 + (round / 7) as u32 % 8),
                false => SolveCtl::unlimited(),
            };
            let (m, stats) = net.solve(&g, &w, &prev, &ctl);
            if stats.completed {
                assert_eq!(stats.warm, round > 0, "round {round}");
            } else {
                assert!(cut && m == prev, "round {round}");
            }
            assert!(hub_based(&net), "round {round}");
            let max = net.bn.sc.pi.iter().map(|p| p.abs()).max().unwrap();
            assert!(max < bound, "round {round}: |pi| reached {max}");
            if round % 1000 == 999 && stats.completed {
                m.validate(&g).unwrap();
                let (_, cold_profit) = cold_and_certified(&net, &g, &w, &m);
                assert_eq!(stats.profit, cold_profit, "round {round}");
            }
            prev = m;
        }
    }
}
