//! Concurrent shard solves.
//!
//! [`ShardPlan`](crate::ShardPlan) produces node-disjoint sub-markets
//! precisely so they can be solved independently; this module is where
//! that independence is cashed in. [`Pool::solve`] takes the batch's
//! touched-shard jobs and runs them on the dispatching thread plus the
//! pool's helper threads. A job is one re-solve of the shard's **carried
//! network** (`mbta_matching::warm::WarmNet`), which the shard state owns
//! and has kept holding its assignment as flow, at its live costs and
//! capacities: lent into the job ([`ShardJob::new`]) and back out in its
//! outcome, for the state to settle. Whichever thread runs the job
//! repairs the network and its duals in place, so a batch pays for what
//! its events moved, and nothing is copied in or out. (The boundary rescue
//! is not a job: its market's state is solved the same way, inline.)
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
use mbta_graph::BipartiteGraph;
use mbta_matching::warm::{WarmNet, WarmStats};
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
/// carried network lent in, and back out in the [`ShardOutcome`] — so the
/// job can move to a solver thread.
pub struct ShardJob {
    /// Shard index in the plan (merge key; results come back sorted by it).
    pub shard: usize,
    /// The shard's sub-market graph, shared with the plan: what the jobs
    /// are sorted by, and what the network must have been built for.
    pub graph: Arc<BipartiteGraph>,
    /// The shard state's carried network, its assignment as the flow.
    pub net: WarmNet,
    /// The solve's budget: the batch's shared deadline, if any.
    pub ctl: SolveCtl,
}

impl ShardJob {
    /// The one way a shard solve is built, batch or online: shard `shard`'s
    /// carried network, lent by its `state`, under `ctl`. The state must
    /// not change until the outcome is settled
    /// ([`IncrementalAssignment::settle`]).
    pub fn new(
        shard: usize,
        graph: &Arc<BipartiteGraph>,
        state: &mut IncrementalAssignment<'_>,
        ctl: SolveCtl,
    ) -> Self {
        ShardJob {
            shard,
            graph: Arc::clone(graph),
            net: state.lend_net(),
            ctl,
        }
    }
}

/// One shard's solve result.
pub struct ShardOutcome {
    /// Shard index the result belongs to.
    pub shard: usize,
    /// The shard's carried network, handed back holding what the solve
    /// left: the optimum, or a pseudoflow when the budget cut it short.
    pub net: WarmNet,
    /// The solve's counters; `completed` says whether it ran to the end.
    pub stats: WarmStats,
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

    /// Solves every job in `jobs` (which it empties) and appends the
    /// outcomes to `outcomes` (empty), sorted by shard index.
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
        jobs: &mut Vec<ShardJob>,
        outcomes: &mut Vec<ShardOutcome>,
        busy_ms: &HistogramFamily,
    ) {
        // Ties by shard, so the schedule itself is deterministic even though
        // completion order is not.
        jobs.sort_by_key(|j| (std::cmp::Reverse(j.graph.n_edges()), j.shard));
        let n_jobs = jobs.len();
        self.wake(n_jobs);
        // Pool metrics only for batches that wake a helper: a one-thread
        // run emits none, and allocates nothing here.
        let Some(Woken {
            queue,
            results,
            helpers,
            ..
        }) = self.woken.take()
        else {
            outcomes.extend(jobs.drain(..).map(run_job));
            outcomes.sort_by_key(|o| o.shard);
            return;
        };
        queue.fill(std::mem::take(jobs));
        let busy = drain(&queue, outcomes);
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
            let drained = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut done = Vec::new();
                let busy = drain(&queue, &mut done);
                (done, busy)
            }));
            // The dispatcher may already be unwinding; nothing to tell it.
            let _ = done.send(drained);
        }
    });
    Helper { work, handle }
}

/// Takes jobs off `queue` until it is empty, pushing what was solved onto
/// `done`; returns the milliseconds spent solving.
fn drain(queue: &Queue, done: &mut Vec<ShardOutcome>) -> f64 {
    let mut busy = 0.0f64;
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
    busy
}

/// Runs one job on the current thread, timing it: the carried network is
/// repaired in place ([`mbta_core::warm::resolve`]).
///
/// # Panics
/// If the network was built for another topology than the job's graph.
pub fn run_job(mut job: ShardJob) -> ShardOutcome {
    let start = Instant::now();
    let g = &job.graph;
    let shape = [g.n_workers(), g.n_tasks(), g.n_edges()];
    assert_eq!(shape, job.net.shape(), "graph topology changed");
    let stats = mbta_core::warm::resolve(&mut job.net, &job.ctl);
    ShardOutcome {
        shard: job.shard,
        net: job.net,
        stats,
        solve_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::{random_bipartite, RandomGraphSpec};
    use mbta_matching::Matching;
    use mbta_util::Deadline;

    fn market(seed: u64, workers: usize) -> Arc<BipartiteGraph> {
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
        Arc::new(g)
    }

    /// One state per market, all weights `(rb + wb) / 2`, nothing assigned.
    fn states_for(markets: &[Arc<BipartiteGraph>]) -> Vec<IncrementalAssignment<'_>> {
        let mut states = Vec::new();
        for g in markets {
            let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
            states.push(IncrementalAssignment::from_matching(g, w, &Matching::empty()).unwrap());
        }
        states
    }

    fn jobs_for(
        markets: &[Arc<BipartiteGraph>],
        states: &mut [IncrementalAssignment<'_>],
    ) -> Vec<ShardJob> {
        let shards = markets.iter().zip(states).enumerate();
        let job = |(i, (g, st))| ShardJob::new(i, g, st, SolveCtl::unlimited());
        shards.map(job).collect()
    }

    /// Runs `jobs` through `pool` and hands the networks back to `states`:
    /// per shard, in shard order, the settled assignment.
    fn solve(
        pool: &mut Pool,
        jobs: Vec<ShardJob>,
        states: &mut [IncrementalAssignment<'_>],
        threads: usize,
    ) -> Vec<(usize, bool, Matching)> {
        let (mut jobs, mut outcomes) = (jobs, Vec::new());
        pool.solve(&mut jobs, &mut outcomes, &busy(threads));
        assert!(jobs.is_empty());
        let settle = |o: ShardOutcome| {
            let st = &mut states[o.shard];
            st.settle(o.net, &o.stats);
            (o.shard, o.stats.completed, st.matching())
        };
        outcomes.into_iter().map(settle).collect()
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
        let mut states = states_for(&markets);
        let jobs = jobs_for(&markets, &mut states);
        let seq = solve(&mut Pool::new(1), jobs, &mut states, 1);
        for threads in 1..=8 {
            let mut pool = Pool::new(threads);
            // Twice through one pool: its helpers serve batch after batch.
            let mut states = states_for(&markets);
            let jobs = jobs_for(&markets, &mut states);
            solve(&mut pool, jobs, &mut states, threads);
            let mut states = states_for(&markets);
            let jobs = jobs_for(&markets, &mut states);
            let par = solve(&mut pool, jobs, &mut states, threads);
            assert_eq!(seq, par, "{threads} threads: merge order, results");
        }
    }

    /// Helpers woken ahead of their batch wait for its jobs — spinning,
    /// then blocked once the wait outlasts the spin — and solve them; a
    /// pool dropped before the batch comes releases and joins them.
    #[test]
    fn woken_helpers_wait_for_their_batch() {
        let markets: Vec<_> = (0..4).map(|i| market(21 + i, 30)).collect();
        let mut states = states_for(&markets);
        let jobs = jobs_for(&markets, &mut states);
        let seq = solve(&mut Pool::new(1), jobs, &mut states, 1);
        let mut pool = Pool::new(3);
        for pause in [0, 2] {
            pool.wake(4);
            std::thread::sleep(std::time::Duration::from_millis(pause));
            let mut states = states_for(&markets);
            let jobs = jobs_for(&markets, &mut states);
            let par = solve(&mut pool, jobs, &mut states, 3);
            assert_eq!(seq, par, "after a {pause} ms wait");
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
        let mut states = states_for(&markets);
        let mut jobs = jobs_for(&markets, &mut states);
        // The smaller shard's network is built for the other market. The
        // caller claims the larger job first, so either thread may take
        // this one.
        jobs[0].net = mbta_matching::warm::WarmNet::new(&markets[1]);
        solve(&mut Pool::new(2), jobs, &mut states, 2);
    }

    /// Each job comes back solved: settled, its state holds the optimum of
    /// its market.
    #[test]
    fn more_workers_than_jobs_is_fine() {
        use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
        let markets: Vec<_> = (0..2).map(|i| market(7 + i, 40)).collect();
        let mut states = states_for(&markets);
        let jobs = jobs_for(&markets, &mut states);
        let solved = solve(&mut Pool::new(8), jobs, &mut states, 8);
        assert_eq!(solved.len(), 2);
        for ((g, st), (_, completed, _)) in markets.iter().zip(&states).zip(&solved) {
            let (opt, _) = max_weight_bmatching(
                g,
                st.weights(),
                FlowMode::FreeCardinality,
                PathAlgo::Dijkstra,
            );
            assert!(completed);
            assert!((st.total_weight() - opt.total_weight(st.weights())).abs() < 1e-6);
            st.check_invariants();
        }
    }

    #[test]
    fn shared_deadline_survives_the_pool() {
        let markets: Vec<_> = (0..4).map(|i| market(9 + i, 60)).collect();
        let expired = Deadline::after_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let mut states = states_for(&markets);
        let mut jobs = jobs_for(&markets, &mut states);
        for job in &mut jobs {
            job.ctl = SolveCtl::unlimited().with_deadline(expired);
        }
        for (shard, completed, m) in solve(&mut Pool::new(4), jobs, &mut states, 4) {
            // Expired shared budget: every solve is cut, and its state
            // keeps its (empty) seed.
            assert!(
                !completed,
                "shard {shard} ran past an expired shared deadline"
            );
            assert!(m.is_empty());
            states[shard].check_invariants();
        }
    }
}
