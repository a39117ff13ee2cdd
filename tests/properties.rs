//! Property-based tests (proptest) over the core invariants.
//!
//! Strategy: generate small arbitrary-but-valid market instances (random
//! capacities, demands, edge sets and weights), then assert the algebraic
//! relationships between the solvers that must hold on *every* instance —
//! feasibility, optimality dominance, approximation bounds, monotonicity,
//! and cross-solver agreement.

use mbta::graph::{BipartiteGraph, EdgeId, GraphBuilder, TaskId, WorkerId};
use mbta::market::Combiner;
use mbta::matching::dinic::max_cardinality_bmatching;
use mbta::matching::greedy::greedy_bmatching;
use mbta::matching::hopcroft_karp::hopcroft_karp;
use mbta::matching::hungarian::hungarian_max_weight;
use mbta::matching::local_search::local_search;
use mbta::matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
use mbta::matching::online::{online_assign, OnlinePolicy};
use mbta::matching::stable::{deferred_acceptance, find_blocking_pair};
use mbta::service::{
    Arrival, BatchConfig, BudgetMode, DispatchService, Routing, ServiceConfig, ServiceReport,
    ShardPlan,
};
use mbta::util::fixed::objectives_close;
use proptest::prelude::*;
use reference::Reference;
use std::sync::{PoisonError, RwLock};

mod reference;

/// A generated instance: node attributes plus a duplicate-free edge list.
#[derive(Debug, Clone)]
struct Instance {
    caps: Vec<u32>,
    dems: Vec<u32>,
    edges: Vec<(u32, u32, f64, f64)>,
}

impl Instance {
    fn graph(&self) -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for &c in &self.caps {
            b.add_worker(c);
        }
        for &d in &self.dems {
            b.add_task(d);
        }
        for &(w, t, rb, wb) in &self.edges {
            b.add_edge(WorkerId::new(w), TaskId::new(t), rb, wb)
                .expect("strategy emits unique edges");
        }
        b.build().expect("strategy emits valid instances")
    }
}

/// Strategy for instances with bounded size and configurable capacities.
fn instance(max_side: usize, max_cap: u32) -> impl Strategy<Value = Instance> {
    (1..=max_side, 1..=max_side).prop_flat_map(move |(n_w, n_t)| {
        let caps = proptest::collection::vec(1..=max_cap, n_w);
        let dems = proptest::collection::vec(1..=max_cap, n_t);
        // Edge presence: one bool per (w, t) pair; weights per present edge.
        let pairs =
            proptest::collection::vec((any::<bool>(), 0.0f64..=1.0, 0.0f64..=1.0), n_w * n_t);
        (caps, dems, pairs).prop_map(move |(caps, dems, pairs)| {
            let edges = pairs
                .into_iter()
                .enumerate()
                .filter(|(_, (present, _, _))| *present)
                .map(|(i, (_, rb, wb))| ((i / n_t) as u32, (i % n_t) as u32, rb, wb))
                .collect();
            Instance { caps, dems, edges }
        })
    })
}

fn mb_weights(g: &BipartiteGraph) -> Vec<f64> {
    let c = Combiner::balanced();
    g.edges().map(|e| c.combine(g.rb(e), g.wb(e))).collect()
}

/// Orders this binary's service runs around the process-wide
/// `mbta_core_warm_hits_total` counter: a run that reads its warm hits off
/// it holds the lock alone, every other run shares it.
static SERVICE_RUN: RwLock<()> = RwLock::new(());

/// One batch run of `events` under `budget`, audited by the reference
/// market at every commit. Returns the decision bytes, the report and how
/// many of the run's exact solves were warm hits — a count that holds
/// only for a run `alone`.
fn audited_run(
    g: &BipartiteGraph,
    plan: &ShardPlan,
    events: &[Arrival],
    (threads, boundary_pass, alone): (usize, bool, bool),
    budget: BudgetMode,
) -> (Vec<u8>, ServiceReport, u64) {
    let cfg = ServiceConfig {
        batch: BatchConfig {
            max_events: 8,
            max_bytes: 1 << 20,
            flush_interval: 1.5,
        },
        budget,
        threads,
        boundary_pass,
        ..ServiceConfig::default()
    };
    let (_alone, _shared);
    if alone {
        _alone = SERVICE_RUN.write().unwrap_or_else(PoisonError::into_inner);
    } else {
        _shared = SERVICE_RUN.read().unwrap_or_else(PoisonError::into_inner);
    }
    let hits = mbta::telemetry::global().counter("mbta_core_warm_hits_total");
    let before = hits.get();
    let mut audit = Reference::new(g, plan, &cfg);
    let report = reference::drive(DispatchService::new(g, plan, cfg), &mut audit, events);
    (audit.log.into_inner(), report, hits.get() - before)
}

/// How many of `plan`'s shards an exact solver works on: every one with an
/// edge. [`reference::churn`] opens with every node, so each of them is solved
/// from the first batches on.
fn solving_shards(plan: &ShardPlan) -> u64 {
    plan.shards.iter().filter(|s| s.graph.n_edges() > 0).count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every solver's output is feasible, and the exact solver dominates.
    #[test]
    fn solvers_feasible_and_exact_dominates(inst in instance(6, 3)) {
        let g = inst.graph();
        let w = mb_weights(&g);
        let (exact, _) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        prop_assert!(exact.validate(&g).is_ok());
        let best = exact.total_weight(&w);

        let greedy = greedy_bmatching(&g, &w, 0.0);
        prop_assert!(greedy.validate(&g).is_ok());
        prop_assert!(greedy.total_weight(&w) <= best + 1e-6);
        // Greedy ½-approximation.
        prop_assert!(greedy.total_weight(&w) >= 0.5 * best - 1e-9);

        let (ls, _) = local_search(&g, &w, greedy.clone(), 16);
        prop_assert!(ls.validate(&g).is_ok());
        prop_assert!(ls.total_weight(&w) + 1e-9 >= greedy.total_weight(&w));
        prop_assert!(ls.total_weight(&w) <= best + 1e-6);

        let card = max_cardinality_bmatching(&g);
        prop_assert!(card.validate(&g).is_ok());
        prop_assert!(exact.len() <= card.len());
    }

    /// Dijkstra and SPFA variants compute the same optimal profit.
    #[test]
    fn mcmf_variants_agree(inst in instance(6, 3)) {
        let g = inst.graph();
        let w = mb_weights(&g);
        let (_, sd) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        let (_, ss) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Spfa);
        prop_assert_eq!(sd.profit, ss.profit);
    }

    /// On unit instances, Hopcroft–Karp, Dinic and the Hungarian solver
    /// agree on what's achievable.
    #[test]
    fn unit_matching_cross_validation(inst in instance(6, 1)) {
        let g = inst.graph();
        let hk = hopcroft_karp(&g);
        let dinic = max_cardinality_bmatching(&g);
        prop_assert_eq!(hk.len(), dinic.len());

        let w = mb_weights(&g);
        let hung = hungarian_max_weight(&g, &w);
        prop_assert!(hung.validate(&g).is_ok());
        let (flow, _) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        prop_assert!(
            objectives_close(hung.total_weight(&w), flow.total_weight(&w), g.n_edges().max(1)),
            "hungarian {} vs flow {}", hung.total_weight(&w), flow.total_weight(&w)
        );
    }

    /// Adding an edge never decreases the MaxSum optimum (monotonicity).
    #[test]
    fn maxsum_monotone_under_edge_addition(inst in instance(5, 2), rb in 0.0f64..=1.0, wb in 0.0f64..=1.0) {
        let g = inst.graph();
        let w = mb_weights(&g);
        let (before, _) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        // Find a missing pair to add, if any.
        let missing = g.workers().find_map(|wk| {
            g.tasks()
                .find(|&t| g.find_edge(wk, t).is_none())
                .map(|t| (wk, t))
        });
        if let Some((wk, t)) = missing {
            let (caps, dems, mut edges) = g.to_edge_list();
            edges.push((wk.raw(), t.raw(), rb, wb));
            let g2 = mbta::graph::random::from_edges(&caps, &dems, &edges);
            let w2 = mb_weights(&g2);
            let (after, _) = max_weight_bmatching(&g2, &w2, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
            prop_assert!(after.total_weight(&w2) >= before.total_weight(&w) - 1e-9);
        }
    }

    /// Deferred acceptance always produces a pairwise-stable outcome.
    #[test]
    fn deferred_acceptance_is_stable(inst in instance(6, 3)) {
        let g = inst.graph();
        let m = deferred_acceptance(&g);
        prop_assert!(m.validate(&g).is_ok());
        prop_assert!(find_blocking_pair(&g, &m).is_none());
    }

    /// No online policy ever beats the offline optimum, under any arrival
    /// permutation.
    #[test]
    fn online_bounded_by_offline(inst in instance(6, 2), seed in 0u64..1000) {
        let g = inst.graph();
        let w = mb_weights(&g);
        let (opt, _) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        let best = opt.total_weight(&w);
        let mut arrivals: Vec<WorkerId> = g.workers().collect();
        mbta::util::SplitMix64::new(seed).shuffle(&mut arrivals);
        for policy in [
            OnlinePolicy::Greedy,
            OnlinePolicy::Ranking { seed },
            OnlinePolicy::TwoPhase { sample_fraction: 0.5, threshold_quantile: 0.5 },
            OnlinePolicy::RandomThreshold { seed },
        ] {
            let m = online_assign(&g, &w, &arrivals, policy);
            prop_assert!(m.validate(&g).is_ok());
            prop_assert!(m.total_weight(&w) <= best + 1e-6);
        }
    }

    /// Combiners stay inside [min(rb,wb), max(rb,wb)] ⊆ [0,1].
    #[test]
    fn combiner_bounds(rb in 0.0f64..=1.0, wb in 0.0f64..=1.0, lambda in 0.0f64..=1.0) {
        for c in [Combiner::Linear { lambda }, Combiner::Harmonic, Combiner::Min] {
            let v = c.combine(rb, wb);
            prop_assert!((0.0..=1.0).contains(&v), "{c:?} -> {v}");
            prop_assert!(v <= rb.max(wb) + 1e-12);
            // Harmonic and Min lower-bound: 0; Linear lower-bound: min.
            if let Combiner::Linear { .. } = c {
                prop_assert!(v >= rb.min(wb) - 1e-12);
            }
        }
    }

    /// Push–relabel and Dinic agree on maximum cardinality everywhere.
    #[test]
    fn flow_engines_agree(inst in instance(7, 3)) {
        let g = inst.graph();
        let dinic = max_cardinality_bmatching(&g);
        let pr = mbta::matching::push_relabel::max_cardinality_bmatching_pr(&g);
        prop_assert!(pr.validate(&g).is_ok());
        prop_assert_eq!(dinic.len(), pr.len());
    }

    /// The incremental maintainer stays feasible and internally consistent
    /// (its assigned-edge count and change set included) under arbitrary
    /// churn sequences — activations, deactivations, finite and non-finite
    /// benefit updates, single-edge assigns and unassigns, reseeds from an
    /// exact re-solve and full deactivation storms — and never exceeds the
    /// exact optimum of the active sub-market. Its change set, drained at
    /// random points, is exactly the diff of the `matching()` snapshots
    /// taken at consecutive drains, ascending by edge id with no edge twice,
    /// and a non-draining read just before the drain agrees with it.
    #[test]
    fn incremental_churn_invariants(inst in instance(6, 2), ops in proptest::collection::vec((0u8..11, 0usize..6), 0..30)) {
        let g = inst.graph();
        let w = mb_weights(&g);
        let mut inc = mbta::core::incremental::IncrementalAssignment::new(&g, w.clone());
        // The active sub-market with non-finite edges zeroed: what an exact
        // solver may seed from, and what bounds the maintained total.
        let finite_active = |inc: &mbta::core::incremental::IncrementalAssignment<'_>| -> Vec<f64> {
            inc.active_weights().into_iter().map(|x| if x.is_finite() { x } else { 0.0 }).collect()
        };
        let edge = |idx: usize| EdgeId::new((idx % g.n_edges()) as u32);
        // The snapshot at the last drain; construction is the first.
        let mut drained_at = inc.matching().edges;
        for (kind, idx) in ops {
            match kind {
                0 if g.n_workers() > 0 => {
                    inc.deactivate_worker(WorkerId::from_index(idx % g.n_workers()));
                }
                1 if g.n_workers() > 0 => {
                    inc.activate_worker(WorkerId::from_index(idx % g.n_workers()));
                }
                2 if g.n_tasks() > 0 => {
                    inc.deactivate_task(TaskId::from_index(idx % g.n_tasks()));
                }
                3 if g.n_tasks() > 0 => {
                    inc.activate_task(TaskId::from_index(idx % g.n_tasks()));
                }
                4 if g.n_edges() > 0 => {
                    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][idx % 3];
                    inc.set_weight(EdgeId::new((idx % g.n_edges()) as u32), bad);
                }
                5 => {
                    let aw = finite_active(&inc);
                    let (m, _) = max_weight_bmatching(&g, &aw, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
                    prop_assert!(inc.reseed(&m).is_ok());
                    prop_assert_eq!(inc.len(), m.len());
                }
                6 => {
                    for i in 0..g.n_workers() {
                        inc.deactivate_worker(WorkerId::from_index(i));
                    }
                    prop_assert!(inc.is_empty());
                }
                7 if g.n_edges() > 0 => inc.set_weight(edge(idx), 0.25 * (idx + 1) as f64),
                8 if g.n_edges() > 0 => {
                    inc.try_assign(edge(idx));
                }
                9 if g.n_edges() > 0 => {
                    inc.unassign(edge(idx));
                }
                10 => {
                    let now = inc.matching().edges;
                    let left = drained_at.iter().filter(|e| !now.contains(e)).map(|&e| (e, false));
                    let came = now.iter().filter(|e| !drained_at.contains(e)).map(|&e| (e, true));
                    let mut want: Vec<(EdgeId, bool)> = left.chain(came).collect();
                    want.sort_unstable_by_key(|&(e, _)| e);
                    let read: Vec<(EdgeId, bool)> = inc.changes().collect();
                    let mut got = Vec::new();
                    inc.drain_changes(|e, assigned| got.push((e, assigned)));
                    prop_assert_eq!(&read, &got);
                    prop_assert_eq!(&got, &want);
                    prop_assert!(inc.changes().next().is_none(), "a drain resets the change set");
                    drained_at = now;
                }
                _ => {}
            }
            inc.check_invariants();
        }
        let aw = finite_active(&inc);
        let (opt, _) = max_weight_bmatching(&g, &aw, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        prop_assert!(inc.total_weight() <= opt.total_weight(&aw) + 1e-6);
    }

    /// Batched online assignment is feasible, never beats offline, and a
    /// single whole-market batch recovers the offline optimum.
    #[test]
    fn batched_online_invariants(inst in instance(6, 2), batch in 1usize..8) {
        let g = inst.graph();
        let out = mbta::core::online::run_batched(
            &g,
            Combiner::balanced(),
            mbta::core::online::ArrivalOrder::ById,
            batch,
        );
        prop_assert!(out.matching.validate(&g).is_ok());
        prop_assert!(out.online_value <= out.offline_value + 1e-6);
        if batch >= g.n_workers().max(1) {
            prop_assert!(
                mbta::util::fixed::objectives_close(out.online_value, out.offline_value, g.n_edges().max(1)),
                "single batch {} vs offline {}", out.online_value, out.offline_value
            );
        }
    }

    /// Budgeted solvers respect the budget and never beat the
    /// unconstrained optimum.
    #[test]
    fn budget_invariants(inst in instance(5, 2), budget in 0.0f64..10.0) {
        let g = inst.graph();
        let w = mb_weights(&g);
        // Deterministic pseudo-costs derived from edge ids.
        let costs: Vec<f64> = (0..g.n_edges()).map(|i| ((i * 7) % 5) as f64).collect();
        let (opt, _) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        for r in [
            mbta::core::budget::greedy_budgeted(&g, &w, &costs, budget),
            mbta::core::budget::lagrangian_budgeted(&g, &w, &costs, budget, 15),
        ] {
            prop_assert!(r.matching.validate(&g).is_ok());
            prop_assert!(r.total_cost <= budget + 1e-9);
            prop_assert!(r.total_weight <= opt.total_weight(&w) + 1e-6);
            prop_assert!((r.total_weight - r.matching.total_weight(&w)).abs() < 1e-9);
        }
    }

    /// The certified exact solver's certificate verifies on every instance,
    /// and refuses strictly lighter matchings, infeasible ones, and
    /// potentials that break a reduced-cost inequality.
    #[test]
    fn certificates_verify(inst in instance(6, 2)) {
        use mbta::matching::mcmf::{max_weight_bmatching_certified, verify_certificate};
        let g = inst.graph();
        let w = mb_weights(&g);
        let (m, _, mut cert) = max_weight_bmatching_certified(&g, &w);
        prop_assert!(m.validate(&g).is_ok());
        prop_assert!(verify_certificate(&g, &w, &m, &cert));
        // A strictly worse matching must be rejected with the same
        // certificate (the empty matching, when the optimum is non-empty).
        if m.total_weight(&w) > 1e-6 {
            let empty = mbta::matching::Matching::empty();
            prop_assert!(!verify_certificate(&g, &w, &empty, &cert));
        }
        // Every edge at once, whenever that overloads a node.
        let all = mbta::matching::Matching::from_edges(g.edges().collect());
        if all.validate(&g).is_err() {
            prop_assert!(!verify_certificate(&g, &w, &all, &cert));
        }
        // Pricing a matched worker far above every path length makes its
        // residual task → worker arc negative; a short vector is refused.
        if let Some(&e) = m.edges.first() {
            cert.potentials[1 + g.worker_of(e).index()] += 1 << 40;
            prop_assert!(!verify_certificate(&g, &w, &m, &cert));
        }
        cert.potentials.pop();
        prop_assert!(!verify_certificate(&g, &w, &m, &cert));
    }

    /// A long-lived `WarmNet` stays exact and certified through arbitrary
    /// churn (activation, deactivation, benefit drift), whatever feasible
    /// matching seeds each re-solve.
    #[test]
    fn warm_resolves_stay_exact_and_certified(
        inst in instance(6, 3),
        ops in proptest::collection::vec((0u8..6, 0usize..36, 0.0f64..=1.0, 0u8..5), 1..24),
    ) {
        use mbta::core::incremental::IncrementalAssignment;
        use mbta::matching::mcmf::verify_certificate;
        use mbta::matching::warm::WarmNet;
        use mbta::matching::Matching;
        use mbta::util::SolveCtl;
        let g = inst.graph();
        let exact = |w: &[f64]| max_weight_bmatching(&g, w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        let positive = |m: &Matching, w: &[f64]| {
            Matching::from_edges(m.edges.iter().copied().filter(|e| w[e.index()] > 0.0).collect())
        };
        let profit = |m: &Matching, w: &[f64]| -> i64 {
            m.edges.iter().map(|e| mbta::util::fixed::benefit_to_profit(w[e.index()])).sum()
        };
        let mut inc = IncrementalAssignment::new(&g, mb_weights(&g));
        let mut net = WarmNet::new(&g);
        let mut prev = Matching::empty();
        for (kind, idx, weight, seed_kind) in ops {
            match kind {
                0 => { inc.deactivate_worker(WorkerId::from_index(idx % g.n_workers())); }
                1 => inc.activate_worker(WorkerId::from_index(idx % g.n_workers())),
                2 => { inc.deactivate_task(TaskId::from_index(idx % g.n_tasks())); }
                3 => inc.activate_task(TaskId::from_index(idx % g.n_tasks())),
                _ if g.n_edges() > 0 => {
                    inc.set_weight(mbta::graph::EdgeId::from_index(idx % g.n_edges()), weight);
                }
                _ => {}
            }
            let w = inc.active_weights();
            let seed = match seed_kind {
                // The previous optimum, as `WarmSolver` hands it on.
                0 => positive(&prev, &w),
                // The greedy-evolved state the service seeds from.
                1 => inc.matching(),
                // A thinned seed: every third edge dropped.
                2 => Matching::from_edges(
                    prev.edges.iter().copied().enumerate().filter(|(k, _)| k % 3 != 2).map(|(_, e)| e).collect(),
                ),
                3 => Matching::empty(),
                // Inverted preferences: about the worst feasible matching.
                _ => exact(&w.iter().map(|x| 1.0 - x).collect::<Vec<_>>()).0,
            };
            let (m, stats) = net.solve(&g, &w, &seed, &SolveCtl::unlimited());
            prop_assert!(m.validate(&g).is_ok());
            prop_assert!(stats.completed);
            prop_assert_eq!(profit(&m, &w), exact(&w).1.profit);
            let cert = net.certificate();
            prop_assert!(verify_certificate(&g, &w, &m, &cert));
            prop_assert_eq!(cert.potentials[0], cert.potentials[cert.potentials.len() - 1]);
            // A reopening, on a copy: every edge at one worker and one task
            // priced at 0, then one edge between them raised from 0. Both
            // ends are free in the first optimum, so the second repair
            // saturates that edge, routes its task's unit into the sink and
            // owes its worker one from the hub. Each search settles just its
            // start and its end; searched for from the hub, the owed unit
            // would settle both hub ends and the worker at least.
            if g.n_edges() > 0 {
                let e = mbta::graph::EdgeId::from_index(idx % g.n_edges());
                let at = |f: &mbta::graph::EdgeId| {
                    g.worker_of(*f) == g.worker_of(e) || g.task_of(*f) == g.task_of(e)
                };
                let mut closed = w.clone();
                g.edges().filter(at).for_each(|f| closed[f.index()] = 0.0);
                let mut probe = net.clone();
                let (freed, _) = probe.solve(&g, &closed, &m, &SolveCtl::unlimited());
                if !freed.edges.iter().any(at) {
                    let mut raised = closed;
                    raised[e.index()] = 0.5;
                    let (reopened, stats) = probe.solve(&g, &raised, &freed, &SolveCtl::unlimited());
                    prop_assert_eq!(profit(&reopened, &raised), exact(&raised).1.profit);
                    prop_assert!(verify_certificate(&g, &raised, &reopened, &probe.certificate()));
                    prop_assert_eq!((stats.iterations, stats.settled), (2, 4));
                }
            }
            // The service adopts the solve into its incremental state.
            prev = positive(&m, &w);
            prop_assert!(inc.reseed(&prev).is_ok());
        }
    }

    /// Batch dispatch runs its exact tier on each shard's carried network:
    /// after every committed batch every shard holds the cold optimum of
    /// its active sub-market, the decision bytes do not depend on the
    /// thread count, and every exact solve but a shard's first is a warm
    /// hit.
    #[test]
    fn batch_service_stays_exact_on_carried_solvers(
        inst in instance(6, 3),
        ops in proptest::collection::vec((0u8..8, 0usize..36, 0.0f64..=1.0), 16..56),
    ) {
        let g = inst.graph();
        if g.n_edges() == 0 {
            return Ok(()); // no market to dispatch
        }
        let weights = mb_weights(&g);
        let events = reference::churn(&g, &ops);
        for shards in [1usize, 4] {
            let plan = ShardPlan::build(&g, &weights, shards, Routing::HashId);
            let mut logs = Vec::new();
            // Width 2 is the dispatching thread plus one helper.
            for threads in [1usize, 2, 4] {
                let deterministic = BudgetMode::Deterministic;
                let (log, report, warm) =
                    audited_run(&g, &plan, &events, (threads, false, true), deterministic);
                prop_assert_eq!(report.tier_exact, report.solves);
                // One whole-market shard is solved by every batch, and only
                // a shard's first solve has no duals to repair.
                prop_assert!(shards > 1 || report.solves >= 2);
                prop_assert_eq!(
                    warm,
                    report.solves - solving_shards(&plan),
                    "{} solves over {} shards", report.solves, shards
                );
                logs.push(log);
            }
            for log in &logs[1..] {
                prop_assert_eq!(&logs[0], log, "decisions depend on the thread count");
            }
        }
    }

    /// A wall-clock budget that covers every repair changes nothing:
    /// budgeted batch solves repair the carried duals as unbudgeted ones
    /// do, so the decision bytes are a `Deterministic` replay's — whether
    /// a shard ran on the dispatching thread or on a helper — and every
    /// exact solve but a shard's first is a warm hit.
    #[test]
    fn ample_wallclock_budget_replays_like_deterministic(
        inst in instance(6, 3),
        ops in proptest::collection::vec((0u8..8, 0usize..36, 0.0f64..=1.0), 16..56),
    ) {
        let g = inst.graph();
        if g.n_edges() == 0 {
            return Ok(()); // no market to dispatch
        }
        let weights = mb_weights(&g);
        let events = reference::churn(&g, &ops);
        for shards in [1usize, 4] {
            let plan = ShardPlan::build(&g, &weights, shards, Routing::HashId);
            let run = |threads, budget| audited_run(&g, &plan, &events, (threads, false, true), budget);
            let (log, ..) = run(1, BudgetMode::Deterministic);
            for threads in [1usize, 4] {
                let (budgeted, report, warm) = run(threads, BudgetMode::Wallclock(3_600_000));
                prop_assert_eq!(&log, &budgeted, "an ample budget moved a decision");
                prop_assert_eq!(report.tier_exact, report.solves);
                prop_assert_eq!(warm, report.solves - solving_shards(&plan));
            }
        }
    }

    /// The boundary rescue re-solves one carried market per plan under each
    /// batch's residual capacities: after every committed batch the overlay
    /// holds the cold optimum of the residual market built from scratch
    /// (and every shard still its own), nothing exceeds a capacity, and the
    /// decision bytes do not depend on the thread count.
    #[test]
    fn boundary_rescue_stays_exact_on_the_epoch_market(
        inst in instance(6, 3),
        ops in proptest::collection::vec((0u8..8, 0usize..36, 0.0f64..=1.0), 16..56),
    ) {
        let g = inst.graph();
        if g.n_edges() == 0 {
            return Ok(()); // no market to dispatch
        }
        let weights = mb_weights(&g);
        let events = reference::churn(&g, &ops);
        for shards in [2usize, 8] {
            let plan = ShardPlan::build(&g, &weights, shards, Routing::HashId);
            let run = |threads| audited_run(&g, &plan, &events, (threads, true, false), BudgetMode::Deterministic);
            let (log1, report, _) = run(1);
            prop_assert_eq!(report.cross_benefit_drops, 0);
            for threads in [2usize, 4] {
                let (log, ..) = run(threads);
                prop_assert_eq!(&log1, &log, "decisions depend on the thread count");
            }
        }
    }

    /// k-best enumeration: non-increasing order, all feasible, all distinct,
    /// first equals the exact optimum.
    #[test]
    fn kbest_invariants(inst in instance(4, 2)) {
        let g = inst.graph();
        let w = mb_weights(&g);
        let top = mbta::matching::kbest::k_best_bmatchings(&g, &w, 4);
        prop_assert!(!top.is_empty());
        let (opt, _) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        prop_assert!((top[0].weight - opt.total_weight(&w)).abs() < 1e-6);
        let mut seen = std::collections::BTreeSet::new();
        for pair in top.windows(2) {
            prop_assert!(pair[0].weight >= pair[1].weight - 1e-9);
        }
        for s in &top {
            prop_assert!(s.matching.validate(&g).is_ok());
            let mut canon: Vec<u32> = s.matching.edges.iter().map(|e| e.raw()).collect();
            canon.sort_unstable();
            prop_assert!(seen.insert(canon), "duplicate solution");
        }
    }

    /// Acceptance model: probability is monotone in wb and in [0, 1].
    #[test]
    fn acceptance_probability_sane(a in -5.0f64..5.0, b in 0.0f64..10.0, wb1 in 0.0f64..=1.0, wb2 in 0.0f64..=1.0) {
        let m = mbta::market::acceptance::AcceptanceModel { intercept: a, slope: b };
        let (p1, p2) = (m.p_accept(wb1), m.p_accept(wb2));
        prop_assert!((0.0..=1.0).contains(&p1));
        if wb1 <= wb2 {
            prop_assert!(p1 <= p2 + 1e-12);
        }
    }

    /// Rotation never increases total welfare relative to myopic and never
    /// shrinks participation; all round matchings stay feasible.
    #[test]
    fn rotation_invariants(inst in instance(5, 2), strength in 0.0f64..3.0, rounds in 1u32..5) {
        use mbta::core::rotation::{repeated_rounds, RotationPolicy};
        let g = inst.graph();
        let myopic = repeated_rounds(&g, Combiner::balanced(), RotationPolicy::Myopic, rounds);
        let rotated = repeated_rounds(
            &g,
            Combiner::balanced(),
            RotationPolicy::LoadDiscount { strength },
            rounds,
        );
        prop_assert!(rotated.total_welfare <= myopic.total_welfare + 1e-6);
        prop_assert!(rotated.workers_ever_used >= myopic.workers_ever_used);
        for m in rotated.rounds.iter().chain(myopic.rounds.iter()) {
            prop_assert!(m.validate(&g).is_ok());
        }
    }

    /// Binary serialization round-trips every generated instance exactly.
    #[test]
    fn serialization_roundtrip(inst in instance(7, 4)) {
        let g = inst.graph();
        let bytes = mbta::graph::serial::write_graph(&g);
        let g2 = mbta::graph::serial::read_graph(bytes).unwrap();
        prop_assert_eq!(g, g2);
    }

    /// The robust engine never returns an infeasible matching, no matter
    /// what fault is injected: poisoned weights are rejected with a typed
    /// error, tight deadlines degrade the tier, and every `Ok` matching
    /// validates against the graph.
    #[test]
    fn engine_never_infeasible_under_faults(
        inst in instance(6, 2),
        fault in 0u8..4,
        frac in 0.0f64..0.6,
        seed in any::<u64>(),
        bounded in any::<bool>(),
        deadline in 0u64..20,
    ) {
        use mbta::core::engine::{solve_robust, EngineConfig};
        use mbta::workload::faults::{poison_weights, FaultKind};
        let g = inst.graph();
        let mut w = mb_weights(&g);
        let poisoned = match fault {
            0 => poison_weights(&mut w, frac, FaultKind::NanWeights, seed),
            1 => poison_weights(&mut w, frac, FaultKind::InfiniteWeights, seed),
            2 => poison_weights(&mut w, frac, FaultKind::NegativeWeights, seed),
            _ => 0, // healthy control
        };
        let mut cfg = EngineConfig::new();
        if bounded {
            cfg = cfg.with_deadline_ms(deadline);
        }
        match solve_robust(&g, &w, &cfg) {
            Ok(sol) => {
                prop_assert_eq!(poisoned, 0, "poisoned weights must be rejected");
                prop_assert!(sol.matching.validate(&g).is_ok());
                prop_assert!(sol.value.is_finite());
            }
            Err(_) => {
                // A typed rejection is only legitimate when the instance
                // actually carries a fault (poison or a degenerate graph).
                prop_assert!(poisoned > 0 || g.n_edges() == 0);
            }
        }
    }

    /// Dropout storms from the fault harness preserve every capacity
    /// invariant of the incremental maintainer at each step.
    #[test]
    fn storm_churn_keeps_capacity_invariants(
        inst in instance(6, 2),
        storm_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        use mbta::core::incremental::IncrementalAssignment;
        use mbta::workload::faults::{dropout_storm, ChurnEvent};
        let g = inst.graph();
        let w = mb_weights(&g);
        let mut inc = IncrementalAssignment::new(&g, w);
        for ev in dropout_storm(g.n_workers(), g.n_tasks(), storm_frac, seed) {
            match ev {
                ChurnEvent::DeactivateWorker(i) => {
                    inc.deactivate_worker(WorkerId::new(i));
                }
                ChurnEvent::ActivateWorker(i) => {
                    inc.activate_worker(WorkerId::new(i));
                }
                ChurnEvent::DeactivateTask(i) => {
                    inc.deactivate_task(TaskId::new(i));
                }
                ChurnEvent::ActivateTask(i) => {
                    inc.activate_task(TaskId::new(i));
                }
            }
            inc.check_invariants();
        }
    }

    /// Degradation is monotone: the unbounded solve reaches the `Exact`
    /// tier, a cancelled solve never reports a higher tier or a higher
    /// value, and both orderings agree with `QualityTier`'s `Ord`.
    #[test]
    fn engine_degradation_is_monotone(inst in instance(6, 2)) {
        use mbta::core::engine::{solve_robust, EngineConfig, QualityTier};
        use mbta::util::CancelToken;
        let g = inst.graph();
        let w = mb_weights(&g);
        prop_assert!(QualityTier::Degraded < QualityTier::Approximate);
        prop_assert!(QualityTier::Approximate < QualityTier::Exact);
        let Ok(full) = solve_robust(&g, &w, &EngineConfig::new()) else {
            return Ok(()); // degenerate instance (no edges): typed rejection
        };
        prop_assert_eq!(full.tier, QualityTier::Exact);
        let token = CancelToken::new();
        token.cancel();
        let floor = solve_robust(&g, &w, &EngineConfig::new().with_cancel(token)).unwrap();
        prop_assert!(floor.tier <= full.tier);
        prop_assert!(floor.value <= full.value + 1e-6);
        prop_assert!(floor.matching.validate(&g).is_ok());
    }

    /// The bottleneck solver's floor is optimal: no feasible matching of
    /// maximum cardinality has a higher minimum edge (checked against the
    /// exact-sum and greedy solutions at equal cardinality).
    #[test]
    fn bottleneck_floor_dominates(inst in instance(5, 2)) {
        let g = inst.graph();
        let w = mb_weights(&g);
        let r = mbta::core::maxmin::maxmin_with_weights(&g, &w);
        prop_assert!(r.matching.validate(&g).is_ok());
        let (exact, _) = max_weight_bmatching(&g, &w, FlowMode::MaxFlow, PathAlgo::Dijkstra);
        if exact.len() == r.cardinality && !exact.is_empty() {
            let floor = mbta::core::maxmin::min_edge_weight(&exact, &w);
            prop_assert!(r.bottleneck >= floor - 1e-9);
        }
    }
}

/// On a small market shaped like the `sharded_rescue` benchmark — 8
/// min-cut shards, boundary pass, churn and benefit drift — the run's
/// mean union / unsharded optimum over its commits is at least the
/// residual rescue's (shard optima at full capacity plus a cold residual
/// rescue, rebuilt at every commit): ceding only adds. Every other check
/// of the reference passes on the same run, its shard check made below
/// the universe capacities at most commits.
#[test]
fn ceding_keeps_at_least_the_residual_rescue() {
    let (g, weights) = reference::universe(240, 120, 6.0, (2, 2), 42);
    let plan = ShardPlan::build(&g, &weights, 8, Routing::MinCut);
    let events = reference::churn(&g, &reference::random_ops(1200, 42));
    let cfg = ServiceConfig {
        batch: BatchConfig {
            max_events: 16,
            max_bytes: 1 << 20,
            flush_interval: 4.0,
        },
        budget: BudgetMode::Deterministic,
        threads: 1,
        boundary_pass: true,
        ..ServiceConfig::default()
    };
    let mut audit = Reference::new(&g, &plan, &cfg);
    let _shared = SERVICE_RUN.read().unwrap_or_else(PoisonError::into_inner);
    let report = reference::drive(DispatchService::new(&g, &plan, cfg), &mut audit, &events);
    assert!(
        2 * audit.ceded_checks > report.batches as usize,
        "{} of {} commits checked below the universe capacities",
        audit.ceded_checks,
        report.batches
    );
    let n = audit.ratios.len() as f64;
    let head = audit.ratios.iter().map(|r| r.0).sum::<f64>() / n;
    let rescue = audit.ratios.iter().map(|r| r.1).sum::<f64>() / n;
    assert!(
        head >= rescue,
        "mean union/optimum {head:.4} below the residual rescue's {rescue:.4}"
    );
    println!("mean union/optimum {head:.4}, residual rescue {rescue:.4}");
}

/// A unit the overlay lets go returns to its home shard at the next
/// batch, and that shard is solved in that batch, touched by its events
/// or not. Where the two sides hold as many units as each other (240
/// workers of capacity 1, 120 tasks of demand 2), a returned unit's
/// greedy refill is often not the shard's optimum, so the reference's
/// shard check sees a shard left unsolved: with `return_units` not adding
/// its shard to the touched set, it fails at batch 86.
#[test]
fn returned_units_are_solved_on_a_balanced_market() {
    let (g, weights) = reference::universe(240, 120, 6.0, (1, 2), 42);
    let plan = ShardPlan::build(&g, &weights, 8, Routing::MinCut);
    let events = reference::churn(&g, &reference::random_ops(400, 42));
    let deterministic = BudgetMode::Deterministic;
    let (_, report, _) = audited_run(&g, &plan, &events, (1, true, false), deterministic);
    assert!(report.batches > 86, "{} batches", report.batches);
}
