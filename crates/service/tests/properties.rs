//! Property tests for the worker pool's equivalence contract: for any
//! event trace, dispatching with a multi-threaded solve pool must be
//! indistinguishable from the sequential path — identical total matching
//! weight, zero capacity violations, and (under deterministic budgets)
//! byte-identical decision logs. This is the contract that makes
//! `--threads N` safe to flip in production and `replay --threads N`
//! byte-stable for every `N`.

use mbta_graph::random::{random_bipartite, RandomGraphSpec};
use mbta_graph::BipartiteGraph;
use mbta_service::{
    Arrival, BatchConfig, BenefitDrift, BudgetMode, DispatchService, DropPolicy, OfferOutcome,
    Routing, ServiceConfig, ServiceReport, ShardPlan, WriteSink,
};
use mbta_workload::trace::TraceSpec;
use proptest::prelude::*;

fn universe(seed: u64, n_workers: usize) -> (BipartiteGraph, Vec<f64>) {
    let g = random_bipartite(
        &RandomGraphSpec {
            n_workers,
            n_tasks: n_workers * 3 / 4,
            avg_degree: 4.0,
            capacity: 2,
            demand: 2,
        },
        seed,
    );
    let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
    (g, w)
}

fn events(g: &BipartiteGraph, seed: u64, drift: f64) -> Vec<Arrival> {
    let trace = TraceSpec {
        horizon: 40.0,
        mean_session: 8.0,
        mean_task_lifetime: 12.0,
        seed,
    }
    .generate(g.n_workers(), g.n_tasks());
    BenefitDrift::new(g, drift, seed).weave(trace.into_iter().map(Arrival::from_trace))
}

fn cfg(threads: usize, budget: BudgetMode) -> ServiceConfig {
    ServiceConfig {
        batch: BatchConfig {
            max_events: 24,
            max_bytes: 1 << 20,
            flush_interval: 4.0,
        },
        queue_cap: 2048,
        drop_policy: DropPolicy::Defer,
        budget,
        threads,
        boundary_pass: false,
        online: None,
    }
}

/// Replays the whole trace and returns the decision log bytes + report.
fn run(
    g: &BipartiteGraph,
    plan: &ShardPlan,
    evs: &[Arrival],
    config: ServiceConfig,
) -> (Vec<u8>, ServiceReport) {
    let mut svc = DispatchService::new(g, plan, config);
    let mut sink = WriteSink::new(Vec::new());
    for &a in evs {
        while let OfferOutcome::Deferred = svc.offer(a) {
            svc.pump(&mut sink);
        }
        svc.pump(&mut sink);
    }
    let report = svc.finish(&mut sink);
    assert!(sink.error.is_none());
    (sink.into_inner(), report)
}

proptest! {
    // Each case replays the same trace twice through a full service, so
    // keep the case count modest; the trace/universe randomization covers
    // the interesting shapes (shard skew, drift mix, defer pressure).
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Deterministic budgets: `threads = 4` must be byte-identical to
    /// `threads = 1` — same decision log, same adopted solves, same final
    /// matching weight — and both must reconcile with zero capacity
    /// violations.
    #[test]
    fn four_threads_replay_sequential_byte_for_byte(
        seed in 0u64..10_000,
        n_workers in 40usize..120,
        shards in 2usize..6,
        drift in 0.0f64..0.4,
    ) {
        let (g, w) = universe(seed, n_workers);
        let plan = ShardPlan::build(&g, &w, shards, Routing::HashId);
        let evs = events(&g, seed ^ 0x5eed, drift);

        let (log_seq, rep_seq) = run(&g, &plan, &evs, cfg(1, BudgetMode::Deterministic));
        let (log_par, rep_par) = run(&g, &plan, &evs, cfg(4, BudgetMode::Deterministic));

        prop_assert_eq!(rep_seq.capacity_violations, 0);
        prop_assert_eq!(rep_par.capacity_violations, 0);
        // Bit-identical arithmetic on both paths: the pool reorders
        // scheduling, never the merge, so even the floats must agree
        // exactly.
        prop_assert_eq!(rep_seq.final_value, rep_par.final_value);
        prop_assert_eq!(rep_seq.final_assignments, rep_par.final_assignments);
        prop_assert_eq!(rep_seq.reseeds, rep_par.reseeds);
        prop_assert_eq!(rep_seq.decisions, rep_par.decisions);
        prop_assert_eq!(log_seq, log_par);
    }

    /// Boundary rescue, for arbitrary universes and shard counts: the
    /// rescue pass must never violate capacity (the service folds rescue
    /// validation — including "chosen edge is actually cross-shard" —
    /// into `capacity_violations`), and shards + rescue must be worth at
    /// least as much as shards alone.
    #[test]
    fn boundary_rescue_is_feasible_and_never_worse(
        seed in 0u64..10_000,
        n_workers in 40usize..100,
        shards in 2usize..8,
        drift in 0.0f64..0.4,
    ) {
        let (g, w) = universe(seed, n_workers);
        let plan = ShardPlan::build(&g, &w, shards, Routing::HashId);
        let evs = events(&g, seed ^ 0xabcd, drift);

        let (_, rep_off) = run(&g, &plan, &evs, cfg(1, BudgetMode::Deterministic));
        let mut on = cfg(1, BudgetMode::Deterministic);
        on.boundary_pass = true;
        let (_, rep_on) = run(&g, &plan, &evs, on);

        prop_assert_eq!(rep_on.capacity_violations, 0);
        prop_assert!(rep_on.rescued_weight >= 0.0);
        prop_assert!(
            rep_on.final_value >= rep_off.final_value - 1e-9,
            "rescue made the assignment worse: {} < {}",
            rep_on.final_value, rep_off.final_value
        );
        prop_assert!(rep_on.effective_retained >= rep_on.retained_weight - 1e-12);
    }

    /// Wall-clock budgets: solve adoption may differ across thread counts
    /// (budget racing is timing-sensitive by design), but the safety
    /// invariants may not — every configuration must reconcile with zero
    /// capacity violations and closed ingress accounting.
    #[test]
    fn wallclock_budgets_stay_capacity_safe_at_any_width(
        seed in 0u64..10_000,
        n_workers in 40usize..100,
        threads in 1usize..5,
    ) {
        let (g, w) = universe(seed, n_workers);
        let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
        let evs = events(&g, seed ^ 0xbeef, 0.2);

        let (_, rep) = run(&g, &plan, &evs, cfg(threads, BudgetMode::Wallclock(25)));
        prop_assert_eq!(rep.capacity_violations, 0);
        prop_assert!(rep.events_processed > 0);
        prop_assert_eq!(
            rep.events_in,
            rep.events_processed
                + rep.invalid_events
                + rep.cross_benefit_drops
                + rep.dropped_newest
                + rep.dropped_oldest
        );
        prop_assert_eq!(rep.pool_threads, threads);
    }
}
