//! Concurrent shard solves.
//!
//! [`ShardPlan`](crate::ShardPlan) produces node-disjoint sub-markets
//! precisely so they can be solved independently; this module is where
//! that independence is cashed in. [`Pool::solve`] takes the batch's
//! touched-shard jobs and runs them on the dispatching thread plus the
//! pool's helper threads. A job is one re-solve on the shard's **carried
//! solver** (`mbta_core::warm::WarmSolver`, moved into the job together
//! with the matching that seeds it, and back out in its outcome):
//! whichever thread runs the job repairs the shard's kept network and
//! duals, so a batch pays for what its events moved. Building a job
//! ([`ShardJob::new`]) copies the shard state's node change set into a
//! buffer the job carries; the thread that runs it hands the set to the
//! solver first, so a node out of the shard's market is closed at
//! capacity 0, and the emptied buffer comes back in the outcome.
//! (The boundary rescue is not a job: its market re-solves inline, on a
//! solver of its own.)
//! Four properties the dispatch loop depends on:
//!
//! 1. **One queue, largest first, the caller as thread 0.** Jobs are
//!    sorted by sub-market edge count, descending, into one shared queue.
//!    The dispatching thread starts draining it at once, and the
//!    `min(threads, jobs) - 1` helpers take the next job whenever they are
//!    free. A batch wakes its helpers ([`Pool::wake`]) before it builds
//!    its jobs, and they spin for the queue to fill — for at most
//!    [`SPIN`], then they block — so they are up when it does; a late one
//!    only takes less, no solve waits for one.
//!    That is LPT list scheduling: the big solves start immediately and
//!    the small ones pack around them, so the makespan stays close to the
//!    `max(job)` lower bound. One thread is the same loop with no helper.
//! 2. **Helpers outlive the batch, not the pool.** A helper is spawned at
//!    the first batch with a job for it and then parks on its work channel
//!    between batches: a batch's jobs are ~25 µs apiece, less than a
//!    thread spawn and about what waking a parked thread takes. Dropping
//!    the pool (with its dispatcher) closes the channels and joins the
//!    helpers, and a solve that panics on a helper reaches the caller with
//!    its own payload.
//! 3. **Deterministic merge.** Threads race, but their outcomes are
//!    re-sorted by shard index before they are handed back, so the caller
//!    applies them in shard order at every width.
//!    Under deterministic budgets every solve is a pure function of its
//!    inputs, which makes `--threads N` replay byte-identical to
//!    `--threads 1` for every `N`.
//! 4. **Shared budgets.** The pool never splits a batch budget: callers
//!    put one absolute [`Deadline`](mbta_util::Deadline) into every job's
//!    [`SolveCtl`], and all shards race that same instant — concurrently
//!    across threads, and on each thread with unused budget carrying
//!    forward to the jobs it takes later (largest first).
//!
//! Telemetry, only for batches that wake a helper (width > 1 and ≥ 2
//! jobs): `mbta_service_pool_queue_depth` (jobs not yet claimed) and
//! per-thread `mbta_service_pool_thread_busy_ms{thread="i"}` histograms
//! (`thread="0"` is the dispatching thread) whose spread shows how well
//! the queue balanced the batch. The caller owns that labelled family, so
//! each thread's handle is looked up once, not once per batch.

use mbta_core::incremental::IncrementalAssignment;
use mbta_core::warm::WarmSolver;
use mbta_graph::BipartiteGraph;
use mbta_matching::Matching;
use mbta_telemetry::HistogramFamily;
use mbta_util::SolveCtl;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One shard's solve request: everything the solve needs, owned — the
/// carried solver moved in, and back out in the [`ShardOutcome`] — so the
/// job can move to a solver thread.
pub struct ShardJob {
    /// Shard index in the plan (merge key; results come back sorted by it).
    pub shard: usize,
    /// The shard's sub-market graph, shared with the plan.
    pub graph: Arc<BipartiteGraph>,
    /// Live edge weights for the sub-market; the solver's capacities close
    /// the edges at inactive nodes.
    pub weights: Vec<f64>,
    /// The shard's carried solver.
    pub solver: WarmSolver,
    /// The node change set ([`IncrementalAssignment::drain_node_changes`])
    /// the solver takes before it solves: `(node, effective capacity)`,
    /// workers then tasks.
    pub nodes: Vec<(usize, u32)>,
    /// The feasible matching that seeds the re-solve, and its floor: a cut
    /// solve hands it back.
    pub seed: Matching,
    /// The solve's budget: the batch's shared deadline, if any.
    pub ctl: SolveCtl,
}

impl ShardJob {
    /// The one way a shard solve is built, batch or online: shard `shard`'s
    /// carried solver (taken from its slot, built for `graph` on first
    /// use), the node change set of its incremental `state` drained into
    /// `nodes` (an empty buffer, reused from the last outcome) for the
    /// solver to take as the job runs — so every node out of the state's
    /// market is closed at capacity 0 — the state's live weights, and its
    /// matching as the seed, under `ctl`.
    ///
    /// A solver is built at its shard's first solve, when the set holds
    /// every node the state ever moved off the graph's capacities, so a
    /// fresh solver needs no special case. The caller checks the outcome's
    /// solver against the state in debug builds ([`follows`]).
    pub fn new(
        shard: usize,
        graph: &Arc<BipartiteGraph>,
        state: &mut IncrementalAssignment<'_>,
        solver: &mut Option<WarmSolver>,
        mut nodes: Vec<(usize, u32)>,
        ctl: SolveCtl,
    ) -> Self {
        let solver = solver.take().unwrap_or_else(|| WarmSolver::new(graph));
        nodes.extend(state.drain_node_changes());
        ShardJob {
            shard,
            weights: state.weights().to_vec(),
            solver,
            nodes,
            graph: Arc::clone(graph),
            seed: state.matching(),
            ctl,
        }
    }
}

/// Whether `solver`'s open edges are exactly `g`'s edges whose two ends
/// have effective capacity in `state`. The solver lists each open edge
/// once, so equal counts and containment are set equality; compared
/// without collecting, debug builds allocate what release builds do.
pub(crate) fn follows(
    solver: &WarmSolver,
    g: &BipartiteGraph,
    state: &IncrementalAssignment<'_>,
) -> bool {
    let has_units = |w, t| {
        state.worker_active(w)
            && state.task_active(t)
            && state.worker_capacity(w) > 0
            && state.task_capacity(t) > 0
    };
    let live = |e| has_units(g.worker_of(e), g.task_of(e));
    let open = solver.open_edges().count();
    solver.open_edges().all(live) && open == g.edges().filter(|&e| live(e)).count()
}

/// One shard's solve result.
pub struct ShardOutcome {
    /// Shard index the result belongs to.
    pub shard: usize,
    /// The shard's carried solver, handed back.
    pub solver: WarmSolver,
    /// The job's node buffer, handed back empty for the next job.
    pub nodes: Vec<(usize, u32)>,
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

/// How long a woken helper spins for its batch's jobs before it blocks:
/// a few times what building a `sharded_rescue` batch's jobs takes. A
/// bound, so a helper never holds a core while the dispatching thread is
/// held up.
const SPIN: Duration = Duration::from_micros(100);

/// One batch's jobs, largest first, shared by every thread draining it.
/// Helpers are handed it before its jobs are in ([`Pool::wake`]) and
/// claim nothing until it is `ready`.
struct Queue {
    jobs: Mutex<std::vec::IntoIter<ShardJob>>,
    ready: AtomicBool,
    filled: Condvar,
}

impl Queue {
    fn new() -> Queue {
        Queue {
            jobs: Mutex::new(Vec::new().into_iter()),
            ready: AtomicBool::new(false),
            filled: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, std::vec::IntoIter<ShardJob>> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Puts the batch's jobs in and releases every helper waiting for them.
    fn fill(&self, jobs: Vec<ShardJob>) {
        let mut queue = self.lock();
        *queue = jobs.into_iter();
        // Under the lock, so a helper that saw the queue empty is already
        // waiting when the notice comes.
        self.ready.store(true, Ordering::Release);
        drop(queue);
        self.filled.notify_all();
    }

    /// Waits until the jobs are in: spinning for up to [`SPIN`], blocked
    /// after that.
    fn wait(&self) {
        let start = Instant::now();
        while !self.ready.load(Ordering::Acquire) {
            if start.elapsed() > SPIN {
                let mut queue = self.lock();
                while !self.ready.load(Ordering::Acquire) {
                    queue = self.filled.wait(queue).unwrap_or_else(|e| e.into_inner());
                }
                return;
            }
            std::hint::spin_loop();
        }
    }
}

/// The helpers woken for the next batch: its queue, the channel their
/// outcomes come back on, and how many there are.
struct Woken {
    queue: Arc<Queue>,
    done: Sender<Drained>,
    results: Receiver<Drained>,
    helpers: usize,
}

/// What a helper hands back for one batch: its outcomes and busy time, or
/// the payload of the solve that panicked.
type Drained = Result<(Vec<ShardOutcome>, f64), Box<dyn Any + Send>>;

/// A helper thread, parked on its work channel between batches.
struct Helper {
    work: Sender<(Arc<Queue>, Sender<Drained>)>,
    handle: JoinHandle<()>,
}

/// The solver threads of one dispatcher: the dispatching thread plus up
/// to `width − 1` helpers, each spawned at the first batch that has a job
/// for it and parked between batches. Dropping the pool closes the helpers'
/// work channels and joins them, so no helper outlives its dispatcher.
pub struct Pool {
    width: usize,
    helpers: Vec<Helper>,
    woken: Option<Woken>,
}

impl Pool {
    /// A pool `width` threads wide (see [`width`]); no thread starts until
    /// a batch needs it.
    pub fn new(width: usize) -> Pool {
        Pool {
            width,
            helpers: Vec::new(),
            woken: None,
        }
    }

    /// Wakes the helpers a batch of up to `jobs` jobs will use —
    /// `min(width, jobs) − 1` in all — ahead of its [`solve`](Self::solve),
    /// so they are up by the time the jobs are built: a parked thread takes
    /// about as long to wake as a small shard takes to solve. Helpers woken
    /// already for the batch count; no helper wakes for one job.
    pub fn wake(&mut self, jobs: usize) {
        let want = self.width.min(jobs).saturating_sub(1);
        let have = self.woken.as_ref().map_or(0, |w| w.helpers);
        if want <= have {
            return;
        }
        while self.helpers.len() < want {
            self.helpers.push(spawn_helper());
        }
        let woken = self.woken.get_or_insert_with(|| {
            let (done, results) = mpsc::channel();
            Woken {
                queue: Arc::new(Queue::new()),
                done,
                results,
                helpers: 0,
            }
        });
        for helper in &self.helpers[have..want] {
            let sent = helper
                .work
                .send((Arc::clone(&woken.queue), woken.done.clone()));
            sent.expect("a helper lives as long as its pool");
        }
        woken.helpers = want;
    }

    /// Solves every job and returns the outcomes sorted by shard index.
    ///
    /// The calling thread drains one largest-first queue as thread 0, and
    /// the helpers woken for the batch — at least `min(width, jobs) − 1`,
    /// more if [`wake`](Self::wake) asked for more — take whatever is left
    /// once they are up. With one thread, or one job and no helper woken,
    /// the caller runs every job itself. A panicking solve reaches the
    /// caller with its own payload, whichever thread ran it. Thread `i`'s
    /// busy time goes to `busy_ms`'s value `i`, so the family needs `width`
    /// values.
    pub fn solve(
        &mut self,
        mut jobs: Vec<ShardJob>,
        busy_ms: &HistogramFamily,
    ) -> Vec<ShardOutcome> {
        // Ties by shard, so the schedule itself is deterministic even though
        // completion order is not.
        jobs.sort_by_key(|j| (std::cmp::Reverse(j.graph.n_edges()), j.shard));
        let n_jobs = jobs.len();
        self.wake(n_jobs);
        // Pool metrics only for batches that wake a helper: a one-thread
        // run emits none.
        let Some(Woken {
            queue,
            results,
            helpers,
            ..
        }) = self.woken.take()
        else {
            let mut outcomes: Vec<ShardOutcome> = jobs.into_iter().map(run_job).collect();
            outcomes.sort_by_key(|o| o.shard);
            return outcomes;
        };
        queue.fill(jobs);
        let (mut outcomes, busy) = drain(&queue);
        busy_ms.observe(0, busy);
        let mut panicked = None;
        for (i, drained) in results.iter().take(helpers).enumerate() {
            match drained {
                Ok((mut done, busy)) => {
                    // One observation per thread per batch: the spread
                    // across threads is the load-balance signal.
                    busy_ms.observe(1 + i, busy);
                    outcomes.append(&mut done);
                }
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        debug_assert_eq!(outcomes.len(), n_jobs);
        outcomes.sort_by_key(|o| o.shard);
        outcomes
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Helpers woken for a batch that never came find its queue empty.
        if let Some(woken) = self.woken.take() {
            woken.queue.fill(Vec::new());
        }
        for helper in self.helpers.drain(..) {
            drop(helper.work);
            // A helper's own panic was handed to the batch that caused it.
            let _ = helper.handle.join();
        }
    }
}

/// Starts a helper: it drains each batch queue it is handed and sends
/// back what it solved, or the panic that stopped it, until its work
/// channel closes.
fn spawn_helper() -> Helper {
    let (work, inbox): (_, Receiver<(Arc<Queue>, Sender<Drained>)>) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        for (queue, done) in inbox {
            queue.wait();
            let drained = panic::catch_unwind(AssertUnwindSafe(|| drain(&queue)));
            // The dispatcher may already be unwinding; nothing to tell it.
            let _ = done.send(drained);
        }
    });
    Helper { work, handle }
}

/// Takes jobs off `queue` until it is empty; returns what was solved and
/// the milliseconds spent solving.
fn drain(queue: &Queue) -> (Vec<ShardOutcome>, f64) {
    let (mut done, mut busy) = (Vec::new(), 0.0f64);
    loop {
        // Claim in a statement of its own: the guard must drop before the
        // solve, or the solves serialise.
        let (job, left) = {
            let mut q = queue.lock();
            (q.next(), q.len())
        };
        let Some(job) = job else { break };
        mbta_telemetry::gauge_set!("mbta_service_pool_queue_depth", left as f64);
        let outcome = run_job(job);
        busy += outcome.solve_ms;
        done.push(outcome);
    }
    (done, busy)
}

/// Runs one job on the current thread, timing it: the solver takes the
/// job's node changes, then solves.
pub fn run_job(mut job: ShardJob) -> ShardOutcome {
    let start = Instant::now();
    job.solver.update_capacities(job.nodes.drain(..));
    let (g, w) = (&*job.graph, &job.weights);
    let (matching, completed) = job.solver.solve_seeded(g, w, &job.seed, &job.ctl);
    ShardOutcome {
        shard: job.shard,
        value: matching.total_weight(w),
        solver: job.solver,
        nodes: job.nodes,
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

    fn market(seed: u64, workers: usize) -> (Arc<BipartiteGraph>, Vec<f64>) {
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
        (Arc::new(g), w)
    }

    fn solvers_for(markets: &[(Arc<BipartiteGraph>, Vec<f64>)]) -> Vec<WarmSolver> {
        markets.iter().map(|(g, _)| WarmSolver::new(g)).collect()
    }

    fn jobs_for(
        markets: &[(Arc<BipartiteGraph>, Vec<f64>)],
        solvers: Vec<WarmSolver>,
    ) -> Vec<ShardJob> {
        let shards = markets.iter().zip(solvers).enumerate();
        shards
            .map(|(i, ((g, w), solver))| ShardJob {
                shard: i,
                graph: Arc::clone(g),
                weights: w.clone(),
                solver,
                nodes: Vec::new(),
                seed: Matching::empty(),
                ctl: SolveCtl::unlimited(),
            })
            .collect()
    }

    fn busy(threads: usize) -> HistogramFamily {
        HistogramFamily::new("mbta_service_pool_thread_busy_ms", "thread", threads)
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
        let seq: Vec<_> = jobs_for(&markets, solvers_for(&markets))
            .into_iter()
            .map(run_job)
            .collect();
        for threads in 1..=8 {
            let mut pool = Pool::new(threads);
            // Twice through one pool: its helpers serve batch after batch.
            pool.solve(jobs_for(&markets, solvers_for(&markets)), &busy(threads));
            let par = pool.solve(jobs_for(&markets, solvers_for(&markets)), &busy(threads));
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

    /// Helpers woken ahead of their batch wait for its jobs — spinning,
    /// then blocked once the wait outlasts the spin — and solve them; a
    /// pool dropped before the batch comes releases and joins them.
    #[test]
    fn woken_helpers_wait_for_their_batch() {
        let markets: Vec<_> = (0..4).map(|i| market(21 + i, 30)).collect();
        let seq: Vec<_> = jobs_for(&markets, solvers_for(&markets))
            .into_iter()
            .map(run_job)
            .collect();
        let mut pool = Pool::new(3);
        for pause in [0, 2] {
            pool.wake(4);
            std::thread::sleep(std::time::Duration::from_millis(pause));
            let par = pool.solve(jobs_for(&markets, solvers_for(&markets)), &busy(3));
            let edges = |o: &[ShardOutcome]| {
                o.iter()
                    .map(|o| o.matching.edges.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(edges(&seq), edges(&par), "after a {pause} ms wait");
        }
        pool.wake(4);
        drop(pool);
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
        Pool::new(2).solve(jobs_for(&markets, solvers), &busy(2));
    }

    /// Each job comes back solved: the optimum of its market, and its value.
    #[test]
    fn more_workers_than_jobs_is_fine() {
        use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
        let markets: Vec<_> = (0..2).map(|i| market(7 + i, 40)).collect();
        let solvers = solvers_for(&markets);
        let outcomes = Pool::new(8).solve(jobs_for(&markets, solvers), &busy(8));
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
        let mut jobs = jobs_for(&markets, solvers_for(&markets));
        for job in &mut jobs {
            job.ctl = SolveCtl::unlimited().with_deadline(expired);
        }
        let outcomes = Pool::new(4).solve(jobs, &busy(4));
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
