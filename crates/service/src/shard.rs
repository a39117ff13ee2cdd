//! Market sharding: routing keys and the induced per-shard subgraphs.
//!
//! The dispatcher never solves the whole market at once — it routes each
//! micro-batch to a *shard*, a node-disjoint slice of the universe keyed by
//! task routing key (skill/region in a real deployment; deterministic
//! hash- or range-of-id here, since the synthetic universe carries no
//! region labels). Workers are placed on their **home shard**, the shard
//! holding the plurality of their eligible tasks — the same
//! locality-maximizing heuristic gig platforms use when they pin a courier
//! to a zone.
//!
//! Node-disjoint sharding is what makes cross-shard capacity reconciliation
//! tractable: a worker's capacity lives on exactly one shard, so the union
//! of per-shard assignments is feasible on the universe graph *by
//! construction*, and the service's reconciler only has to verify the
//! invariant (catching bugs) rather than arbitrate grants between shards.
//! The price is the **cross-shard edges**: an eligibility edge whose worker
//! homed elsewhere is never assignable. [`ShardPlan`] counts those edges
//! and reports the retained-weight fraction so the operator can see what
//! the shard count costs in matching quality (the bench harness sweeps
//! exactly this trade-off).

use crate::event::ServiceEvent;
use mbta_graph::subgraph::{induce, Subgraph, SubgraphSpec};
use mbta_graph::{BipartiteGraph, EdgeId, TaskId, WorkerId};
use mbta_util::fxhash::hash_u64;

/// How tasks are mapped to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// `fxhash(task id) % shards` — spreads hot id ranges uniformly.
    HashId,
    /// Contiguous id ranges — preserves locality when ids encode
    /// region/skill adjacency (as the synthetic generators do).
    Range,
    /// Edge-cut-aware: capacity-balanced label propagation over the whole
    /// worker–task graph (see `mbta-partition`). Unlike the key-based
    /// routings there is no closed-form per-task rule — the assignment is
    /// computed jointly for both node sides by [`ShardPlan::build`].
    MinCut,
}

impl Routing {
    /// Shard of a task under a *key-based* routing.
    ///
    /// # Panics
    /// Panics for [`Routing::MinCut`]: min-cut task placement is decided
    /// jointly with worker placement by the partitioner and has no
    /// per-task formula.
    pub fn task_shard(&self, t: u32, n_tasks: usize, shards: usize) -> usize {
        match self {
            Routing::HashId => (hash_u64(t as u64) % shards as u64) as usize,
            Routing::Range => {
                debug_assert!((t as usize) < n_tasks);
                ((t as usize) * shards / n_tasks.max(1)).min(shards - 1)
            }
            Routing::MinCut => panic!("min-cut routing has no per-task rule; use ShardPlan::build"),
        }
    }

    /// Stable parse keyword.
    pub fn name(&self) -> &'static str {
        match self {
            Routing::HashId => "hash",
            Routing::Range => "range",
            Routing::MinCut => "min-cut",
        }
    }

    /// Stable byte tag for the serialized placement format.
    pub fn tag(&self) -> u8 {
        match self {
            Routing::HashId => 0,
            Routing::Range => 1,
            Routing::MinCut => 2,
        }
    }

    /// Inverse of [`Routing::tag`]; unknown tags fall back to hash (the
    /// tag is display metadata — the placement maps are authoritative).
    pub fn from_tag(tag: u8) -> Routing {
        match tag {
            1 => Routing::Range,
            2 => Routing::MinCut,
            _ => Routing::HashId,
        }
    }
}

/// Sentinel for "not mapped to any shard" in the forward maps.
pub const UNMAPPED: u32 = u32::MAX;

/// The full sharding of a market universe: per-shard subgraphs plus forward
/// maps from universe ids to `(shard, local id)`.
pub struct ShardPlan {
    /// Per-shard induced subgraphs with back-maps to universe ids, indexed
    /// by shard.
    pub shards: Vec<Subgraph>,
    /// Universe worker id → shard (every worker is homed somewhere).
    pub worker_shard: Vec<u32>,
    /// Universe worker id → local id within its shard.
    pub worker_local: Vec<u32>,
    /// Universe task id → shard.
    pub task_shard: Vec<u32>,
    /// Universe task id → local id within its shard.
    pub task_local: Vec<u32>,
    /// Universe edge id → shard, or [`UNMAPPED`] for cross-shard edges.
    pub edge_shard: Vec<u32>,
    /// Universe edge id → local edge id (valid only when mapped).
    pub edge_local: Vec<u32>,
    /// Number of universe edges not assignable under this plan.
    pub cross_edges: usize,
    /// Fraction of total universe edge weight retained by intra-shard
    /// edges (1.0 for a single shard).
    pub retained_weight: f64,
    /// The plan-time universe edge weights (the service seeds its live
    /// weights from these, cross-shard edges included).
    pub universe_weights: Vec<f64>,
    /// The routing that produced this plan.
    pub routing: Routing,
}

/// Where [`ShardPlan::route`] sends one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The shard that holds the event's worker, task or edge.
    Shard(usize),
    /// A well-formed benefit update for an edge that spans two shards, so
    /// no shard state holds it.
    CrossBenefit,
    /// An id outside the universe, or a weight that is not finite and
    /// non-negative.
    Invalid,
}

impl ShardPlan {
    /// Routes one event by the plan's maps — the one routing function:
    /// the dispatch service calls it to find the shard to apply an event
    /// to, the cluster router to find the owner to forward it to, so the
    /// two cannot disagree about a plan they share.
    pub fn route(&self, ev: &ServiceEvent) -> Route {
        let (map, id) = match *ev {
            ServiceEvent::WorkerJoin(w) | ServiceEvent::WorkerLeave(w) => (&self.worker_shard, w),
            ServiceEvent::TaskPost(t)
            | ServiceEvent::TaskCancel(t)
            | ServiceEvent::TaskComplete(t) => (&self.task_shard, t),
            // The solvers' input contract is finite non-negative weights;
            // a malformed update is rejected here, at the admission
            // boundary and nowhere else, instead of poisoning every later
            // solve of the shard.
            ServiceEvent::BenefitUpdate { weight, .. } if !weight.is_finite() || weight < 0.0 => {
                return Route::Invalid;
            }
            ServiceEvent::BenefitUpdate { edge, .. } => (&self.edge_shard, edge),
        };
        match map.get(id as usize) {
            None => Route::Invalid,
            // Only an edge can be unmapped: every worker and task is homed.
            Some(&UNMAPPED) => Route::CrossBenefit,
            Some(&s) => Route::Shard(s as usize),
        }
    }

    /// Builds the plan: tasks routed by `routing`, workers homed on the
    /// shard holding the plurality of their eligible tasks (ties to the
    /// lowest shard index — fully deterministic).
    pub fn build(
        g: &BipartiteGraph,
        weights: &[f64],
        n_shards: usize,
        routing: Routing,
    ) -> ShardPlan {
        assert!(n_shards >= 1, "need at least one shard");
        assert_eq!(weights.len(), g.n_edges(), "weight slice length mismatch");

        let (task_shard, worker_shard) = assign_nodes(g, weights, n_shards, routing);
        ShardPlan::from_assignment(g, weights, n_shards, routing, task_shard, worker_shard)
    }

    /// Rebuilds a plan from an exported placement (see
    /// `mbta_partition::placement`): same slices, same forward maps, no
    /// re-partitioning. Every process that imports the same map over the
    /// same universe reconstructs the identical plan.
    ///
    /// # Panics
    /// Panics when the map's dimensions do not match the universe — a
    /// placement for a different trace is a deployment error, not a
    /// recoverable condition.
    pub fn from_placement(
        g: &BipartiteGraph,
        weights: &[f64],
        map: &mbta_partition::PlacementMap,
    ) -> ShardPlan {
        assert_eq!(weights.len(), g.n_edges(), "weight slice length mismatch");
        assert_eq!(
            map.task_shard.len(),
            g.n_tasks(),
            "placement task count does not match the universe"
        );
        assert_eq!(
            map.worker_shard.len(),
            g.n_workers(),
            "placement worker count does not match the universe"
        );
        map.validate().expect("placement map failed validation");
        ShardPlan::from_assignment(
            g,
            weights,
            map.n_shards as usize,
            Routing::from_tag(map.routing_tag),
            map.task_shard.clone(),
            map.worker_shard.clone(),
        )
    }

    /// Exports this plan's node→shard maps for other processes to import
    /// via [`ShardPlan::from_placement`].
    pub fn placement(&self) -> mbta_partition::PlacementMap {
        mbta_partition::PlacementMap {
            n_shards: self.n_shards() as u32,
            routing_tag: self.routing.tag(),
            task_shard: self.task_shard.clone(),
            worker_shard: self.worker_shard.clone(),
        }
    }

    fn from_assignment(
        g: &BipartiteGraph,
        weights: &[f64],
        n_shards: usize,
        routing: Routing,
        task_shard: Vec<u32>,
        worker_shard: Vec<u32>,
    ) -> ShardPlan {
        // Induce one subgraph per shard. The edge filter keeps an edge iff
        // its worker homed on the task's shard; worker-side membership is
        // already enforced by the worker selection.
        let mut shards = Vec::with_capacity(n_shards);
        let mut worker_local = vec![UNMAPPED; g.n_workers()];
        let mut task_local = vec![UNMAPPED; g.n_tasks()];
        let mut edge_shard = vec![UNMAPPED; g.n_edges()];
        let mut edge_local = vec![UNMAPPED; g.n_edges()];
        for s in 0..n_shards {
            let sel_workers: Vec<(WorkerId, u32)> = g
                .workers()
                .filter(|w| worker_shard[w.index()] == s as u32)
                .map(|w| (w, g.capacity(w)))
                .collect();
            let sel_tasks: Vec<(TaskId, u32)> = g
                .tasks()
                .filter(|t| task_shard[t.index()] == s as u32)
                .map(|t| (t, g.demand(t)))
                .collect();
            let sub = induce(
                g,
                &SubgraphSpec {
                    workers: &sel_workers,
                    tasks: &sel_tasks,
                },
                |_| true,
            );
            for (local, &parent) in sub.worker_back.iter().enumerate() {
                worker_local[parent.index()] = local as u32;
            }
            for (local, &parent) in sub.task_back.iter().enumerate() {
                task_local[parent.index()] = local as u32;
            }
            for (local, &parent) in sub.edge_back.iter().enumerate() {
                edge_shard[parent.index()] = s as u32;
                edge_local[parent.index()] = local as u32;
            }
            shards.push(sub);
        }

        let cross_edges = edge_shard.iter().filter(|&&s| s == UNMAPPED).count();
        let total_w: f64 = weights.iter().sum();
        let retained: f64 = g
            .edges()
            .filter(|e| edge_shard[e.index()] != UNMAPPED)
            .map(|e| weights[e.index()])
            .sum();
        ShardPlan {
            shards,
            worker_shard,
            worker_local,
            task_shard,
            task_local,
            edge_shard,
            edge_local,
            cross_edges,
            retained_weight: if total_w > 0.0 {
                retained / total_w
            } else {
                1.0
            },
            universe_weights: weights.to_vec(),
            routing,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether shard `s` has nothing an exact solver could work with.
    pub(crate) fn degenerate(&self, s: usize) -> bool {
        let g = &self.shards[s].graph;
        g.n_edges() == 0 || g.n_workers() == 0 || g.n_tasks() == 0
    }
}

/// The one feasibility audit: counts what makes `edges` — universe edge
/// ids, e.g. the union of every shard's assignment — infeasible on the
/// universe `g`: an id outside the universe, an edge listed twice, a worker
/// over capacity, a task over demand (one violation each).
/// [`DispatchService::finish`](crate::DispatchService::finish) runs it over
/// the live state, `mbta recover` / `mbta follow` over a recovered one.
pub fn capacity_violations(g: &BipartiteGraph, edges: impl IntoIterator<Item = u32>) -> usize {
    let mut seen = vec![false; g.n_edges()];
    let mut w_load = vec![0u32; g.n_workers()];
    let mut t_load = vec![0u32; g.n_tasks()];
    let mut violations = 0usize;
    for e in edges {
        // `None`: outside the universe; `Some(true)`: listed twice.
        let listed = seen.get_mut(e as usize).map(|s| std::mem::replace(s, true));
        if listed != Some(false) {
            violations += 1;
            continue;
        }
        let edge = EdgeId::new(e);
        w_load[g.worker_of(edge).index()] += 1;
        t_load[g.task_of(edge).index()] += 1;
    }
    let over_w = g.workers().filter(|&w| w_load[w.index()] > g.capacity(w));
    let over_t = g.tasks().filter(|&t| t_load[t.index()] > g.demand(t));
    violations + over_w.count() + over_t.count()
}

/// Computes the task → shard and worker → shard assignments for `routing`.
///
/// Key-based routings place tasks by key and home each worker on the
/// shard holding the plurality *by edge weight* of its eligible tasks
/// (strictly-greater comparison over an ascending scan, so equal-weight
/// ties resolve to the lowest shard index — fully deterministic). Min-cut
/// routing delegates both sides to the label-propagation partitioner.
fn assign_nodes(
    g: &BipartiteGraph,
    weights: &[f64],
    n_shards: usize,
    routing: Routing,
) -> (Vec<u32>, Vec<u32>) {
    if routing == Routing::MinCut {
        let p =
            mbta_partition::partition(g, weights, &mbta_partition::PartitionConfig::new(n_shards));
        return (p.task_shard, p.worker_shard);
    }

    let task_shard: Vec<u32> = (0..g.n_tasks() as u32)
        .map(|t| routing.task_shard(t, g.n_tasks(), n_shards) as u32)
        .collect();

    let mut worker_shard = vec![0u32; g.n_workers()];
    let mut votes = vec![0.0f64; n_shards];
    for w in g.workers() {
        votes.iter_mut().for_each(|v| *v = 0.0);
        for e in g.worker_edges(w) {
            votes[task_shard[g.task_of(e).index()] as usize] += weights[e.index()];
        }
        let mut best = 0usize;
        for (i, &v) in votes.iter().enumerate() {
            if v > votes[best] {
                best = i;
            }
        }
        worker_shard[w.index()] = best as u32;
    }
    (task_shard, worker_shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::{random_bipartite, RandomGraphSpec};

    fn universe() -> (BipartiteGraph, Vec<f64>) {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 120,
                n_tasks: 90,
                avg_degree: 6.0,
                capacity: 2,
                demand: 2,
            },
            11,
        );
        let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        (g, w)
    }

    #[test]
    fn capacity_audit_counts_each_kind_of_violation_once() {
        use mbta_graph::random::from_edges;
        // Worker 0 (capacity 1) has two edges, task 2 (demand 1) has two.
        let g = from_edges(
            &[1, 2, 1],
            &[1, 1, 1],
            &[
                (0, 0, 0.5, 0.5),
                (0, 1, 0.5, 0.5),
                (1, 2, 0.5, 0.5),
                (2, 2, 0.5, 0.5),
            ],
        );
        let table: [(&str, &[u32], usize); 6] = [
            ("feasible", &[0, 2], 0),
            ("outside the universe", &[0, 4], 1),
            ("listed twice", &[0, 2, 2], 1),
            ("worker over capacity", &[0, 1], 1),
            ("task over demand", &[2, 3], 1),
            ("all four", &[0, 1, 2, 3, 3, 9], 4),
        ];
        for (what, edges, want) in table {
            let got = capacity_violations(&g, edges.iter().copied());
            assert_eq!(got, want, "{what}");
        }
    }

    #[test]
    fn single_shard_keeps_everything() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 1, Routing::HashId);
        assert_eq!(plan.n_shards(), 1);
        assert_eq!(plan.cross_edges, 0);
        assert!((plan.retained_weight - 1.0).abs() < 1e-12);
        assert_eq!(plan.shards[0].graph.n_edges(), g.n_edges());
    }

    #[test]
    fn route_follows_the_maps_and_rejects_what_they_cannot_hold() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        assert!(plan.cross_edges > 0 && plan.cross_edges < g.n_edges());
        for id in 0..g.n_workers() as u32 {
            let home = Route::Shard(plan.worker_shard[id as usize] as usize);
            assert_eq!(plan.route(&ServiceEvent::WorkerJoin(id)), home);
            assert_eq!(plan.route(&ServiceEvent::WorkerLeave(id)), home);
        }
        for id in 0..g.n_tasks() as u32 {
            let home = Route::Shard(plan.task_shard[id as usize] as usize);
            assert_eq!(plan.route(&ServiceEvent::TaskPost(id)), home);
            assert_eq!(plan.route(&ServiceEvent::TaskCancel(id)), home);
            assert_eq!(plan.route(&ServiceEvent::TaskComplete(id)), home);
        }
        for edge in 0..g.n_edges() as u32 {
            let update = |weight| plan.route(&ServiceEvent::BenefitUpdate { edge, weight });
            let expect = match plan.edge_shard[edge as usize] {
                UNMAPPED => Route::CrossBenefit,
                s => Route::Shard(s as usize),
            };
            assert_eq!(update(0.0), expect);
            assert_eq!(update(3.5), expect);
            for bad in [-1e-9, f64::NAN, f64::INFINITY] {
                assert_eq!(update(bad), Route::Invalid);
            }
        }
        // One past the end of each id space.
        let (nw, nt, ne) = (g.n_workers() as u32, g.n_tasks() as u32, g.n_edges() as u32);
        for ev in [
            ServiceEvent::WorkerJoin(nw),
            ServiceEvent::TaskPost(nt),
            ServiceEvent::TaskComplete(u32::MAX),
            ServiceEvent::BenefitUpdate {
                edge: ne,
                weight: 1.0,
            },
        ] {
            assert_eq!(plan.route(&ev), Route::Invalid, "{ev:?}");
        }
    }

    #[test]
    fn shards_partition_nodes_and_maps_are_consistent() {
        let (g, w) = universe();
        for routing in [Routing::HashId, Routing::Range] {
            let plan = ShardPlan::build(&g, &w, 4, routing);
            // Every node mapped exactly once; shard sizes sum to universe.
            let tot_w: usize = plan.shards.iter().map(|s| s.graph.n_workers()).sum();
            let tot_t: usize = plan.shards.iter().map(|s| s.graph.n_tasks()).sum();
            assert_eq!(tot_w, g.n_workers());
            assert_eq!(tot_t, g.n_tasks());
            // Forward and back maps invert each other.
            for wid in g.workers() {
                let s = plan.worker_shard[wid.index()] as usize;
                let l = plan.worker_local[wid.index()] as usize;
                assert_eq!(plan.shards[s].worker_back[l], wid);
                // Capacity preserved.
                assert_eq!(
                    plan.shards[s].graph.capacity(WorkerId::new(l as u32)),
                    g.capacity(wid)
                );
            }
            for tid in g.tasks() {
                let s = plan.task_shard[tid.index()] as usize;
                let l = plan.task_local[tid.index()] as usize;
                assert_eq!(plan.shards[s].task_back[l], tid);
            }
            // Edge maps: intra-shard edges round-trip; cross edges counted.
            let mut mapped = 0usize;
            for e in g.edges() {
                let s = plan.edge_shard[e.index()];
                if s == UNMAPPED {
                    continue;
                }
                mapped += 1;
                let l = plan.edge_local[e.index()] as usize;
                let sub = &plan.shards[s as usize];
                assert_eq!(sub.edge_back[l], e);
                assert_eq!(sub.project_weights(&w)[l], w[e.index()]);
            }
            assert_eq!(mapped + plan.cross_edges, g.n_edges());
            assert!(
                plan.retained_weight > 0.3,
                "{routing:?} retained too little"
            );
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let (g, w) = universe();
        let a = ShardPlan::build(&g, &w, 8, Routing::HashId);
        let b = ShardPlan::build(&g, &w, 8, Routing::HashId);
        assert_eq!(a.worker_shard, b.worker_shard);
        assert_eq!(a.task_shard, b.task_shard);
        assert_eq!(a.cross_edges, b.cross_edges);
    }

    #[test]
    fn worker_homing_is_weighted_with_lowest_index_ties() {
        use mbta_graph::random::from_edges;
        // Worker 0: shard 1 holds more *weight* (0.9) than shard 0
        // (0.3 + 0.3 = 0.6) despite fewer edges — weight wins.
        // Worker 1: shards 0 and 1 tie exactly (0.5 each) — the lowest
        // shard index must win.
        let g = from_edges(
            &[2, 2],
            &[1, 1, 1, 1],
            &[
                (0, 0, 0.3, 0.3),
                (0, 1, 0.3, 0.3),
                (0, 2, 0.9, 0.9),
                (1, 0, 0.5, 0.5),
                (1, 2, 0.5, 0.5),
            ],
        );
        let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        // Range routing over 4 tasks and 2 shards: tasks 0,1 → shard 0,
        // tasks 2,3 → shard 1.
        let plan = ShardPlan::build(&g, &w, 2, Routing::Range);
        assert_eq!(plan.task_shard, vec![0, 0, 1, 1]);
        assert_eq!(
            plan.worker_shard[0], 1,
            "weight plurality must win over edge count"
        );
        assert_eq!(
            plan.worker_shard[1], 0,
            "equal weight must tie-break to the lowest shard"
        );
    }

    #[test]
    fn placement_export_import_rebuilds_the_identical_plan() {
        let (g, w) = universe();
        for routing in [Routing::HashId, Routing::MinCut] {
            let plan = ShardPlan::build(&g, &w, 4, routing);
            let map = plan.placement();
            map.validate().unwrap();
            // Serialize through the file format too, not just the struct.
            let bytes = mbta_partition::encode_placements(&[map]);
            let decoded = mbta_partition::decode_placements(&bytes).unwrap();
            let rebuilt = ShardPlan::from_placement(&g, &w, &decoded[0]);
            assert_eq!(rebuilt.worker_shard, plan.worker_shard);
            assert_eq!(rebuilt.task_shard, plan.task_shard);
            assert_eq!(rebuilt.edge_shard, plan.edge_shard);
            assert_eq!(rebuilt.edge_local, plan.edge_local);
            assert_eq!(rebuilt.cross_edges, plan.cross_edges);
            assert_eq!(rebuilt.routing, plan.routing);
            assert!((rebuilt.retained_weight - plan.retained_weight).abs() < 1e-12);
            for (a, b) in rebuilt.shards.iter().zip(plan.shards.iter()) {
                assert_eq!(a.worker_back, b.worker_back);
                assert_eq!(a.task_back, b.task_back);
                assert_eq!(a.edge_back, b.edge_back);
                assert_eq!(a.project_weights(&w), b.project_weights(&w));
            }
        }
    }

    #[test]
    #[should_panic(expected = "placement task count")]
    fn placement_for_another_universe_is_refused() {
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 2, Routing::HashId);
        let mut map = plan.placement();
        map.task_shard.pop();
        let _ = ShardPlan::from_placement(&g, &w, &map);
    }

    #[test]
    fn min_cut_plan_retains_more_weight_than_hash() {
        let (g, w) = universe();
        for k in [4, 8] {
            let hash = ShardPlan::build(&g, &w, k, Routing::HashId);
            let mincut = ShardPlan::build(&g, &w, k, Routing::MinCut);
            assert!(
                mincut.retained_weight > hash.retained_weight,
                "k={k}: min-cut {} <= hash {}",
                mincut.retained_weight,
                hash.retained_weight
            );
            // Same structural invariants as the key routings.
            let tot_w: usize = mincut.shards.iter().map(|s| s.graph.n_workers()).sum();
            let tot_t: usize = mincut.shards.iter().map(|s| s.graph.n_tasks()).sum();
            assert_eq!(tot_w, g.n_workers());
            assert_eq!(tot_t, g.n_tasks());
        }
    }

    #[test]
    fn home_sharding_beats_random_on_retained_weight() {
        // Plurality homing must retain at least as much weight as the
        // worst-case 1/shards a random assignment would keep in
        // expectation... by a visible margin on a structured universe.
        let (g, w) = universe();
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        assert!(
            plan.retained_weight > 1.0 / 4.0 + 0.05,
            "retained {} — homing is not buying locality",
            plan.retained_weight
        );
    }
}
