//! Worker pool for concurrent shard solves.
//!
//! [`ShardPlan`](crate::ShardPlan) produces node-disjoint sub-markets
//! precisely so they can be solved independently; this module is where
//! that independence is cashed in. [`SolvePool`] takes the batch's
//! touched-shard jobs and runs them across OS threads (vendored
//! `crossbeam` scoped threads + MPMC channels). A job is one re-solve on
//! the shard's **carried solver** (`mbta_core::warm::WarmSolver`, lent to
//! the job exclusively together with the matching that seeds it):
//! whichever thread runs the job repairs the shard's kept network and
//! duals, so a batch pays for what its events moved. (The boundary rescue
//! is not a job: its one market per batch re-solves inline, on a solver of
//! its own.) Three properties the dispatch loop depends on:
//!
//! 1. **Work stealing, largest first.** Jobs are sorted by estimated size
//!    (sub-market edge count) descending and dealt round-robin onto
//!    per-thread deques. A worker pops its own deque from the front; when
//!    it runs dry it steals from a sibling's back. Largest-first ordering
//!    is the classic LPT schedule: the big solves start immediately and
//!    the small ones pack around them, so the makespan stays close to the
//!    `max(job)` lower bound.
//! 2. **Deterministic merge.** Workers race, but results are collected
//!    over a channel and re-sorted by shard index before they are handed
//!    back, so the caller applies them in exactly the order the
//!    single-threaded loop would. Under deterministic budgets every solve
//!    is a pure function of its inputs, which makes `--threads N` replay
//!    byte-identical to `--threads 1` for every `N`.
//! 3. **Shared budgets.** The pool never splits a batch budget: callers
//!    put one absolute [`Deadline`](mbta_util::Deadline) into every job's
//!    [`SolveCtl`], and all shards race that same instant — in parallel
//!    mode concurrently, in sequential mode with unused budget carrying
//!    forward to later shards.
//!
//! Telemetry: `mbta_service_pool_queue_depth` (jobs not yet claimed),
//! `mbta_service_pool_steals_total`, and per-thread
//! `mbta_service_pool_thread_busy_ms{thread="i"}` histograms whose spread
//! shows how well stealing balanced the batch.

use mbta_core::warm::WarmSolver;
use mbta_graph::BipartiteGraph;
use mbta_matching::Matching;
use mbta_util::SolveCtl;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One shard's solve request: everything the solve needs, owned or
/// borrowed (the carried solver exclusively — jobs are per shard, so those
/// borrows are disjoint), so the job can move to a worker thread.
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
    /// Size estimate used for largest-first scheduling (edge count of the
    /// sub-market; static, but monotone in actual solve cost).
    pub est_size: usize,
}

/// One shard's solve result, as produced by a pool worker.
pub struct ShardOutcome {
    /// Shard index the result belongs to.
    pub shard: usize,
    /// The optimum, or the seed when the budget cut the solve short.
    pub matching: Matching,
    /// Total weight of `matching` under the job's weights.
    pub value: f64,
    /// Whether the solve ran to completion.
    pub completed: bool,
    /// Wall-clock milliseconds the solve took on its worker.
    pub solve_ms: f64,
}

/// Everything a batch solve produced, plus pool-level accounting.
pub struct BatchSolve {
    /// Per-shard outcomes, sorted by shard index ascending — the caller
    /// merges in this order regardless of which thread finished first.
    pub outcomes: Vec<ShardOutcome>,
    /// Number of jobs a worker took from a sibling's deque.
    pub steals: u64,
}

/// A fixed-width pool of solver threads for batch shard solves.
///
/// The pool is cheap to construct (it stores only the width); threads are
/// scoped to each [`solve`](SolvePool::solve) call so jobs may borrow the
/// shard plan without `'static` gymnastics. Width 1 (or a single job)
/// runs inline on the caller's thread in the order given — byte-for-byte
/// the sequential dispatch path.
#[derive(Debug, Clone)]
pub struct SolvePool {
    threads: usize,
}

impl SolvePool {
    /// A pool of `threads` workers; `0` means "use the host's available
    /// parallelism" (what the CLI's `--threads` defaults to).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        SolvePool { threads }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Solves every job and returns the outcomes sorted by shard index.
    ///
    /// With one worker (or at most one job) this runs inline in the order
    /// the jobs were given; otherwise jobs are scheduled largest-first
    /// with work stealing across `min(threads, jobs)` scoped threads.
    pub fn solve(&self, jobs: Vec<ShardJob<'_>>) -> BatchSolve {
        if self.threads <= 1 || jobs.len() <= 1 {
            return solve_inline(jobs);
        }
        solve_stealing(self.threads, jobs)
    }
}

impl Default for SolvePool {
    /// The CLI default: one worker per available hardware thread.
    fn default() -> Self {
        SolvePool::new(0)
    }
}

/// Sequential path: solve in the order given (the dispatcher passes shards
/// ascending), no threads spawned, no steals possible.
fn solve_inline(jobs: Vec<ShardJob<'_>>) -> BatchSolve {
    let mut outcomes = Vec::with_capacity(jobs.len());
    for job in jobs {
        outcomes.push(run_job(job));
    }
    BatchSolve {
        outcomes,
        steals: 0,
    }
}

/// Parallel path: largest-first deal onto per-thread deques, pop-own-front
/// / steal-sibling-back, results over an MPMC channel.
fn solve_stealing(threads: usize, mut jobs: Vec<ShardJob<'_>>) -> BatchSolve {
    // Largest first (ties broken by shard index so the schedule itself is
    // deterministic even though completion order is not).
    jobs.sort_by(|a, b| b.est_size.cmp(&a.est_size).then(a.shard.cmp(&b.shard)));
    let n_jobs = jobs.len();
    let n_workers = threads.min(n_jobs);

    let deques: Vec<Mutex<VecDeque<ShardJob<'_>>>> = (0..n_workers)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    for (i, job) in jobs.into_iter().enumerate() {
        deques[i % n_workers].lock().unwrap().push_back(job);
    }

    let unclaimed = AtomicUsize::new(n_jobs);
    let steals = AtomicU64::new(0);
    mbta_telemetry::gauge_set("mbta_service_pool_queue_depth", n_jobs as f64);

    let (tx, rx) = crossbeam::channel::unbounded::<ShardOutcome>();
    crossbeam::scope(|s| {
        for me in 0..n_workers {
            let tx = tx.clone();
            let deques = &deques;
            let unclaimed = &unclaimed;
            let steals = &steals;
            s.spawn(move |_| {
                let mut busy = 0.0f64;
                loop {
                    // Own deque first (front), then steal a sibling's back.
                    let mut claimed = deques[me].lock().unwrap().pop_front();
                    if claimed.is_none() {
                        for k in 1..n_workers {
                            let victim = (me + k) % n_workers;
                            claimed = deques[victim].lock().unwrap().pop_back();
                            if claimed.is_some() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                mbta_telemetry::counter_add("mbta_service_pool_steals_total", 1);
                                break;
                            }
                        }
                    }
                    let Some(job) = claimed else { break };
                    let left = unclaimed.fetch_sub(1, Ordering::Relaxed) - 1;
                    mbta_telemetry::gauge_set("mbta_service_pool_queue_depth", left as f64);
                    let outcome = run_job(job);
                    busy += outcome.solve_ms;
                    // Receiver outlives the scope; send cannot fail.
                    let _ = tx.send(outcome);
                }
                // One observation per worker per batch: the spread across
                // threads is the load-balance signal.
                if mbta_telemetry::enabled() {
                    mbta_telemetry::observe(
                        &format!("mbta_service_pool_thread_busy_ms{{thread=\"{me}\"}}"),
                        busy,
                    );
                }
            });
        }
    })
    .expect("solve pool workers panicked");
    drop(tx);

    let mut outcomes: Vec<ShardOutcome> = rx.iter().collect();
    debug_assert_eq!(outcomes.len(), n_jobs);
    outcomes.sort_by_key(|o| o.shard);
    BatchSolve {
        outcomes,
        steals: steals.into_inner(),
    }
}

/// Runs one job on the current thread, timing it.
fn run_job(job: ShardJob<'_>) -> ShardOutcome {
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

// The whole point of the pool is moving jobs to worker threads; keep that
// a compile-time guarantee rather than a property of the current field
// set.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ShardJob<'_>>();
    assert_send::<ShardOutcome>();
};

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
                est_size: g.n_edges(),
            })
            .collect()
    }

    #[test]
    fn zero_threads_resolves_to_host_parallelism() {
        assert!(SolvePool::new(0).threads() >= 1);
        assert_eq!(SolvePool::new(3).threads(), 3);
        assert_eq!(SolvePool::default().threads(), SolvePool::new(0).threads());
    }

    #[test]
    fn parallel_results_match_sequential_and_arrive_in_shard_order() {
        // Uneven sizes so largest-first scheduling and stealing both kick in.
        let markets: Vec<_> = (0..6)
            .map(|i| market(100 + i, 20 + 30 * i as usize))
            .collect();
        let (mut s1, mut s4) = (solvers_for(&markets), solvers_for(&markets));
        let seq = SolvePool::new(1).solve(jobs_for(&markets, &mut s1));
        let par = SolvePool::new(4).solve(jobs_for(&markets, &mut s4));
        assert_eq!(seq.steals, 0, "inline path cannot steal");
        assert_eq!(seq.outcomes.len(), par.outcomes.len());
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            assert_eq!(a.shard, b.shard, "merge order must be shard-ascending");
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.matching.edges, b.matching.edges, "shard {}", a.shard);
            assert!((a.value - b.value).abs() < 1e-12);
        }
    }

    /// Each job comes back solved: the optimum of its market, and its value.
    #[test]
    fn more_workers_than_jobs_is_fine() {
        use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
        let markets: Vec<_> = (0..2).map(|i| market(7 + i, 40)).collect();
        let mut solvers = solvers_for(&markets);
        let batch = SolvePool::new(8).solve(jobs_for(&markets, &mut solvers));
        assert_eq!(batch.outcomes.len(), 2);
        for (o, (g, w)) in batch.outcomes.iter().zip(&markets) {
            let (opt, _) =
                max_weight_bmatching(g, w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
            assert!(o.completed);
            assert_eq!(o.value, o.matching.total_weight(w));
            assert!((o.value - opt.total_weight(w)).abs() < 1e-6);
            assert!(o.solve_ms >= 0.0);
        }
    }

    #[test]
    fn starved_workers_steal() {
        // 8 jobs over 4 workers: deques start with 2 jobs each, and the
        // skewed sizes guarantee some worker drains early and steals.
        let markets: Vec<_> = (0..8)
            .map(|i| market(50 + i, if i == 0 { 400 } else { 16 }))
            .collect();
        let mut solvers = solvers_for(&markets);
        let mut total_steals = 0;
        for _ in 0..5 {
            total_steals += SolvePool::new(4)
                .solve(jobs_for(&markets, &mut solvers))
                .steals;
        }
        assert!(total_steals > 0, "no steal in 5 rounds of a skewed batch");
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
        let batch = SolvePool::new(4).solve(jobs);
        assert_eq!(batch.outcomes.len(), 4);
        for o in &batch.outcomes {
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
