//! Concurrent shard solves.
//!
//! [`ShardPlan`](crate::ShardPlan) produces node-disjoint sub-markets
//! precisely so they can be solved independently; this module is where
//! that independence is cashed in. [`solve`] takes the batch's
//! touched-shard jobs and runs them on the dispatching thread plus
//! `std::thread::scope` helpers. A job is one re-solve on the shard's
//! **carried solver**
//! (`mbta_core::warm::WarmSolver`, lent to the job exclusively together
//! with the matching that seeds it): whichever thread runs the job repairs
//! the shard's kept network and duals, so a batch pays for what its events
//! moved. (The boundary rescue is not a job: its one market per batch
//! re-solves inline, on a solver of its own.) Three properties the
//! dispatch loop depends on:
//!
//! 1. **One queue, largest first, the caller as thread 0.** Jobs are
//!    sorted by sub-market edge count, descending, into one shared queue.
//!    The dispatching thread starts draining it at once, and the
//!    `min(threads, jobs) - 1` helpers take the next job whenever they are
//!    free — a helper only once it has woken, so no solve waits for a
//!    spawn. That is LPT list scheduling: the big solves start immediately
//!    and the small ones pack around them, so the makespan stays close to
//!    the `max(job)` lower bound. One thread is the same loop with no
//!    helper.
//! 2. **Deterministic merge.** Threads race, but their outcomes are
//!    re-sorted by shard index before they are handed back, so the caller
//!    applies them in shard order at every width.
//!    Under deterministic budgets every solve is a pure function of its
//!    inputs, which makes `--threads N` replay byte-identical to
//!    `--threads 1` for every `N`.
//! 3. **Shared budgets.** The pool never splits a batch budget: callers
//!    put one absolute [`Deadline`](mbta_util::Deadline) into every job's
//!    [`SolveCtl`], and all shards race that same instant — concurrently
//!    across threads, and on each thread with unused budget carrying
//!    forward to the jobs it takes later (largest first).
//!
//! Telemetry, only for batches that spawn a helper (width > 1 and ≥ 2
//! jobs): `mbta_service_pool_queue_depth` (jobs not yet claimed) and
//! per-thread `mbta_service_pool_thread_busy_ms{thread="i"}` histograms
//! (`thread="0"` is the dispatching thread) whose spread shows how well
//! the queue balanced the batch.

use mbta_core::incremental::IncrementalAssignment;
use mbta_core::warm::WarmSolver;
use mbta_graph::BipartiteGraph;
use mbta_matching::Matching;
use mbta_util::SolveCtl;
use std::time::Instant;
use std::{panic, sync::Mutex};

/// One shard's solve request: everything the solve needs, owned or
/// borrowed (the carried solver exclusively — jobs are per shard, so those
/// borrows are disjoint), so the job can move to a solver thread.
pub struct ShardJob<'g> {
    /// Shard index in the plan (merge key; results come back sorted by it).
    pub shard: usize,
    /// The shard's sub-market graph.
    pub graph: &'g BipartiteGraph,
    /// Active edge weights for the sub-market (inactive edges weigh 0).
    pub weights: Vec<f64>,
    /// The shard's carried solver.
    pub solver: &'g mut WarmSolver,
    /// The feasible matching that seeds the re-solve, and its floor: a cut
    /// solve hands it back.
    pub seed: Matching,
    /// The solve's budget: the batch's shared deadline, if any.
    pub ctl: SolveCtl,
}

impl<'g> ShardJob<'g> {
    /// The one way a shard solve is built, batch or online: shard `shard`'s
    /// carried solver (built here on first use, for `graph`), the active
    /// weights of its incremental `state`, and that state's matching as the
    /// seed, under `ctl`.
    pub fn new(
        shard: usize,
        graph: &'g BipartiteGraph,
        state: &IncrementalAssignment<'_>,
        solver: &'g mut Option<WarmSolver>,
        ctl: SolveCtl,
    ) -> Self {
        ShardJob {
            shard,
            graph,
            weights: state.active_weights(),
            solver: solver.get_or_insert_with(|| WarmSolver::new(graph)),
            seed: state.matching(),
            ctl,
        }
    }
}

/// One shard's solve result.
pub struct ShardOutcome {
    /// Shard index the result belongs to.
    pub shard: usize,
    /// The optimum, or the seed when the budget cut the solve short.
    pub matching: Matching,
    /// Total weight of `matching` under the job's weights.
    pub value: f64,
    /// Whether the solve ran to completion.
    pub completed: bool,
    /// Wall-clock milliseconds the solve took on its thread.
    pub solve_ms: f64,
}

/// The solver width `--threads` asks for: `0` means the host's available
/// parallelism.
pub fn width(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Solves every job and returns the outcomes sorted by shard index.
///
/// The calling thread drains one largest-first queue as thread 0, and
/// `min(threads, jobs) - 1` scoped helpers take whatever is left when they
/// wake. With one thread or one job no helper spawns: the caller runs
/// every job itself. A panicking solve reaches the caller with its own
/// payload, whichever thread ran it.
pub fn solve(threads: usize, mut jobs: Vec<ShardJob<'_>>) -> Vec<ShardOutcome> {
    // Ties by shard, so the schedule itself is deterministic even though
    // completion order is not.
    jobs.sort_by_key(|j| (std::cmp::Reverse(j.graph.n_edges()), j.shard));
    let n_jobs = jobs.len();
    let helpers = threads.min(n_jobs).saturating_sub(1);
    // Pool metrics only for batches that spawn a helper: a one-thread run
    // emits none.
    let metered = helpers > 0;
    let queue = Mutex::new(jobs.into_iter());
    // Captures only shared borrows, so it is `Copy`: every thread gets one.
    let drain = |me: usize| {
        let (mut done, mut busy) = (Vec::new(), 0.0f64);
        loop {
            // Claim in a statement of its own: the guard must drop before
            // the solve, or the solves serialise.
            let (job, left) = {
                let mut q = queue.lock().expect("no solve runs under the lock");
                (q.next(), q.len())
            };
            let Some(job) = job else { break };
            if metered {
                mbta_telemetry::gauge_set("mbta_service_pool_queue_depth", left as f64);
            }
            let outcome = run_job(job);
            busy += outcome.solve_ms;
            done.push(outcome);
        }
        // One observation per thread per batch: the spread across threads
        // is the load-balance signal.
        if metered && mbta_telemetry::enabled() {
            mbta_telemetry::observe(
                &format!("mbta_service_pool_thread_busy_ms{{thread=\"{me}\"}}"),
                busy,
            );
        }
        done
    };
    let mut outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=helpers)
            .map(|me| scope.spawn(move || drain(me)))
            .collect();
        let mut outcomes = drain(0);
        for helper in handles {
            outcomes.extend(helper.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
        outcomes
    });
    debug_assert_eq!(outcomes.len(), n_jobs);
    outcomes.sort_by_key(|o| o.shard);
    outcomes
}

/// Runs one job on the current thread, timing it.
pub fn run_job(job: ShardJob<'_>) -> ShardOutcome {
    let start = Instant::now();
    let (g, w) = (job.graph, &job.weights);
    let (matching, completed) = job.solver.solve_seeded(g, w, &job.seed, &job.ctl);
    ShardOutcome {
        shard: job.shard,
        value: matching.total_weight(w),
        matching,
        completed,
        solve_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::{random_bipartite, RandomGraphSpec};
    use mbta_util::Deadline;

    fn market(seed: u64, workers: usize) -> (BipartiteGraph, Vec<f64>) {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: workers,
                n_tasks: workers * 3 / 4,
                avg_degree: 5.0,
                capacity: 2,
                demand: 2,
            },
            seed,
        );
        let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        (g, w)
    }

    fn solvers_for(markets: &[(BipartiteGraph, Vec<f64>)]) -> Vec<WarmSolver> {
        markets.iter().map(|(g, _)| WarmSolver::new(g)).collect()
    }

    fn jobs_for<'g>(
        markets: &'g [(BipartiteGraph, Vec<f64>)],
        solvers: &'g mut [WarmSolver],
    ) -> Vec<ShardJob<'g>> {
        let shards = markets.iter().zip(solvers).enumerate();
        shards
            .map(|(i, ((g, w), solver))| ShardJob {
                shard: i,
                graph: g,
                weights: w.clone(),
                solver,
                seed: Matching::empty(),
                ctl: SolveCtl::unlimited(),
            })
            .collect()
    }

    #[test]
    fn zero_threads_resolves_to_host_parallelism() {
        assert!(width(0) >= 1);
        assert_eq!(width(3), 3);
    }

    #[test]
    fn parallel_results_match_sequential_and_arrive_in_shard_order() {
        // Uneven sizes, so the largest-first order differs from shard order.
        let markets: Vec<_> = (0..6)
            .map(|i| market(100 + i, 20 + 30 * i as usize))
            .collect();
        let mut s = solvers_for(&markets);
        let seq: Vec<_> = jobs_for(&markets, &mut s)
            .into_iter()
            .map(run_job)
            .collect();
        for threads in 1..=8 {
            let mut s = solvers_for(&markets);
            let par = solve(threads, jobs_for(&markets, &mut s));
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.shard, b.shard, "merge order must be shard-ascending");
                assert_eq!(a.completed, b.completed);
                let at = format!("{threads} threads, shard {}", a.shard);
                assert_eq!(a.matching.edges, b.matching.edges, "{at}");
                assert!((a.value - b.value).abs() < 1e-12);
            }
        }
    }

    /// A panicking solve reaches the caller with its own message, whether
    /// the caller or the helper ran it.
    #[test]
    #[should_panic(expected = "graph topology changed")]
    fn a_panicking_solve_reaches_the_caller() {
        let markets: Vec<_> = (0..2)
            .map(|i| market(11 + i, 40 + 20 * i as usize))
            .collect();
        let mut solvers = solvers_for(&markets);
        // The smaller shard's solver is built for the other market. The
        // caller claims the larger job first, so either thread may take
        // this one.
        solvers[0] = WarmSolver::new(&markets[1].0);
        solve(2, jobs_for(&markets, &mut solvers));
    }

    /// Each job comes back solved: the optimum of its market, and its value.
    #[test]
    fn more_workers_than_jobs_is_fine() {
        use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
        let markets: Vec<_> = (0..2).map(|i| market(7 + i, 40)).collect();
        let mut solvers = solvers_for(&markets);
        let outcomes = solve(8, jobs_for(&markets, &mut solvers));
        assert_eq!(outcomes.len(), 2);
        for (o, (g, w)) in outcomes.iter().zip(&markets) {
            let (opt, _) =
                max_weight_bmatching(g, w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
            assert!(o.completed);
            assert_eq!(o.value, o.matching.total_weight(w));
            assert!((o.value - opt.total_weight(w)).abs() < 1e-6);
            assert!(o.solve_ms >= 0.0);
        }
    }

    #[test]
    fn shared_deadline_survives_the_pool() {
        let markets: Vec<_> = (0..4).map(|i| market(9 + i, 60)).collect();
        let expired = Deadline::after_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let mut solvers = solvers_for(&markets);
        let mut jobs = jobs_for(&markets, &mut solvers);
        for job in &mut jobs {
            job.ctl = SolveCtl::unlimited().with_deadline(expired);
        }
        let outcomes = solve(4, jobs);
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            // Expired shared budget: every solve is cut and hands back its
            // (empty) seed.
            assert!(
                !o.completed,
                "shard {} ran past an expired shared deadline",
                o.shard
            );
            assert!(o.matching.is_empty());
        }
    }
}
