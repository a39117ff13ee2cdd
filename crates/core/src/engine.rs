//! Fault-tolerant solver engine: validated inputs, deadline budgets, and a
//! graceful-degradation fallback chain.
//!
//! The experiment harness can afford to panic on a malformed instance; a
//! serving system cannot. [`solve_robust`] is the boundary where untrusted
//! inputs (poisoned weights, degenerate graphs) and unbounded solver
//! runtimes are turned into typed errors and tiered-quality answers:
//!
//! 1. **Validation** — every weight must be finite and non-negative, the
//!    weight slice must cover every edge, and the graph must have workers,
//!    tasks, and assignable capacity. Violations return [`EngineError`]
//!    instead of panicking deep inside a solver (`benefit_to_profit`
//!    asserts on NaN, sort comparators used to).
//! 2. **Budgets** — an optional wall-clock [`Deadline`] and an optional
//!    [`CancelToken`] are threaded into every solver inner loop via
//!    [`SolveCtl`], so even the exact min-cost-flow solve is interruptible.
//! 3. **Degradation** — every answer is at least a feasible floor, and the
//!    result is tagged with the [`QualityTier`] actually achieved. The
//!    engine holds no state, so it builds its floor: the chain runs
//!    cheapest-first (greedy → local search → exact), a floor exists almost
//!    immediately and each stage can only improve on it. The floor is
//!    insurance against a budget: a solve with neither deadline nor cancel
//!    token cannot be stopped, always reaches `Exact`, and goes straight to
//!    the exact stage instead of building a floor it would discard.
//!
//! The serving path does not come through here: a long-lived shard already
//! holds a floor, its assignment, and re-solves it on its carried
//! [`WarmSolver`](crate::warm::WarmSolver) directly.
//!
//! # Tier semantics and monotonicity
//!
//! * [`QualityTier::Exact`] — the exact solver ran to completion; the
//!   matching maximizes total weight (up to fixed-point rounding).
//! * [`QualityTier::Approximate`] — local search converged (or exhausted
//!   its pass budget) without interruption; the matching is at least the
//!   greedy ½-approximation and usually much closer to optimal.
//! * [`QualityTier::Degraded`] — the exact stage did not complete: only the
//!   greedy floor (plus whatever prefix of local search fit in the budget)
//!   was achieved.
//!
//! Because every stage is deterministic and only ever *improves* the
//! incumbent (local search is monotone; an interrupted stage's output is a
//! prefix of the completed stage's trajectory), tiers are monotone in
//! value on a fixed instance: any `Degraded` answer ≤ the `Approximate`
//! answer ≤ the `Exact` answer (up to fixed-point rounding of the exact
//! objective). The returned matching always passes
//! [`Matching::validate`] — this is asserted before returning.

use mbta_graph::BipartiteGraph;
use mbta_matching::greedy::greedy_bmatching;
use mbta_matching::local_search::local_search_ctl;
use mbta_matching::mcmf::{max_weight_bmatching_ctl, FlowMode, PathAlgo};
use mbta_matching::Matching;
use mbta_util::{CancelToken, Deadline, SolveCtl};
use std::fmt;
use std::time::{Duration, Instant};

/// Why the engine refused to solve an instance.
///
/// These are *input* errors: the engine returns them instead of letting a
/// solver panic (or silently compute garbage) on malformed data. Budget
/// exhaustion is **not** an error — it degrades the [`QualityTier`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The weight slice does not cover every edge of the graph.
    WeightLenMismatch {
        /// Number of edges in the graph.
        expected: usize,
        /// Length of the supplied weight slice.
        got: usize,
    },
    /// A weight is NaN or ±infinity.
    NonFiniteWeight {
        /// The offending edge (raw id).
        edge: u32,
        /// The offending value.
        weight: f64,
    },
    /// A weight is negative (benefits live in `[0, 1]`; a negative weight
    /// is an upstream modeling bug, not a skippable edge).
    NegativeWeight {
        /// The offending edge (raw id).
        edge: u32,
        /// The offending value.
        weight: f64,
    },
    /// The graph has no workers or no tasks — there is no market to match.
    EmptyGraph {
        /// Worker count.
        workers: usize,
        /// Task count.
        tasks: usize,
    },
    /// No edge can ever be assigned: the eligibility graph has no edges,
    /// or every worker capacity / task demand is zero (the latter is
    /// impossible for `GraphBuilder`-built graphs, which reject zero
    /// capacities, but is kept as defense-in-depth for graphs arriving
    /// from other constructors such as deserialization).
    NoAssignableCapacity,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EngineError::WeightLenMismatch { expected, got } => {
                write!(f, "weight slice length {got} != edge count {expected}")
            }
            EngineError::NonFiniteWeight { edge, weight } => {
                write!(f, "edge {edge} has non-finite weight {weight}")
            }
            EngineError::NegativeWeight { edge, weight } => {
                write!(f, "edge {edge} has negative weight {weight}")
            }
            EngineError::EmptyGraph { workers, tasks } => {
                write!(f, "empty market: {workers} workers x {tasks} tasks")
            }
            EngineError::NoAssignableCapacity => {
                write!(f, "degenerate market: no assignable capacity on one side")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The quality level a budgeted solve actually achieved.
///
/// Ordered: `Degraded < Approximate < Exact`, matching the value ordering
/// of the answers on a fixed instance (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QualityTier {
    /// The exact stage did not complete: the answer is the floor (greedy
    /// plus a partial local-search prefix, or an `exact_only` solve's
    /// partial flow; on the serving path, the shard's seed).
    Degraded,
    /// Local search completed; the exact solve did not.
    Approximate,
    /// The exact solver ran to completion.
    Exact,
}

impl QualityTier {
    /// Short display name for tables and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            QualityTier::Degraded => "degraded",
            QualityTier::Approximate => "approximate",
            QualityTier::Exact => "exact",
        }
    }
}

impl fmt::Display for QualityTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Engine configuration: budgets plus fallback-chain knobs.
///
/// Built fluently; the default is the full degradation chain with no
/// budget:
///
/// ```
/// use mbta_core::engine::EngineConfig;
///
/// let cfg = EngineConfig::new().with_deadline_ms(10);
/// assert_eq!(cfg.deadline_ms, Some(10));
/// assert!(!cfg.exact_only);
/// ```
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Wall-clock budget in milliseconds (measured from the start of
    /// [`solve_robust`]). `None` = unbounded.
    pub deadline_ms: Option<u64>,
    /// External cancellation (e.g. the caller's request was dropped).
    pub cancel: Option<CancelToken>,
    /// When `false`, skip the heuristic floor and run the exact solver
    /// only; an interrupted exact solve then returns its feasible partial
    /// flow tagged `Degraded`. Defaults to `true` (run the full chain).
    pub exact_only: bool,
    /// Local-search pass budget (the chain's middle stage).
    pub max_passes: u32,
    /// Shortest-path strategy inside the exact flow solver.
    pub algo: PathAlgo,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineConfig {
    /// The default chain: fallback enabled, 8 local-search passes,
    /// Dijkstra, no budgets.
    pub fn new() -> Self {
        EngineConfig {
            deadline_ms: None,
            cancel: None,
            exact_only: false,
            max_passes: 8,
            algo: PathAlgo::Dijkstra,
        }
    }

    /// Sets a wall-clock budget in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Disables the heuristic fallback chain (exact solver only).
    pub fn exact_only(mut self) -> Self {
        self.exact_only = true;
        self
    }
}

/// A tier-tagged solve result.
#[derive(Debug, Clone)]
pub struct EngineSolution {
    /// The best feasible matching found within the budget. Always passes
    /// [`Matching::validate`] against the input graph.
    pub matching: Matching,
    /// The quality level achieved.
    pub tier: QualityTier,
    /// Total weight of `matching` under the input weights.
    pub value: f64,
    /// Whether the exact stage ran to completion.
    pub exact_completed: bool,
    /// Whether the local-search stage ran to completion (vacuously `false`
    /// where the stage is skipped: in `exact_only` mode and on a solve with
    /// no deadline and no cancel token).
    pub local_search_completed: bool,
    /// Wall-clock time the solve consumed.
    pub elapsed: Duration,
}

/// Validates engine inputs, returning the first problem found.
///
/// Exposed so callers (CLI, fault harness) can pre-check instances without
/// paying for a solve.
pub fn validate_inputs(g: &BipartiteGraph, weights: &[f64]) -> Result<(), EngineError> {
    if g.n_workers() == 0 || g.n_tasks() == 0 {
        return Err(EngineError::EmptyGraph {
            workers: g.n_workers(),
            tasks: g.n_tasks(),
        });
    }
    if g.n_edges() == 0
        || g.capacities().iter().all(|&c| c == 0)
        || g.demands().iter().all(|&d| d == 0)
    {
        return Err(EngineError::NoAssignableCapacity);
    }
    if weights.len() != g.n_edges() {
        return Err(EngineError::WeightLenMismatch {
            expected: g.n_edges(),
            got: weights.len(),
        });
    }
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() {
            return Err(EngineError::NonFiniteWeight {
                edge: i as u32,
                weight: w,
            });
        }
        if w < 0.0 {
            return Err(EngineError::NegativeWeight {
                edge: i as u32,
                weight: w,
            });
        }
    }
    Ok(())
}

/// Solves `g` under `weights` with validation, budgets, and graceful
/// degradation. See the module docs for the contract.
///
/// # Example
/// ```
/// use mbta_core::engine::{solve_robust, EngineConfig, QualityTier};
/// use mbta_graph::random::from_edges;
///
/// let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.9, 0.9), (1, 1, 0.5, 0.5)]);
/// let w = vec![0.9, 0.5];
/// let sol = solve_robust(&g, &w, &EngineConfig::new()).unwrap();
/// assert_eq!(sol.tier, QualityTier::Exact);
/// assert!((sol.value - 1.4).abs() < 1e-6);
/// sol.matching.validate(&g).unwrap();
/// ```
pub fn solve_robust(
    g: &BipartiteGraph,
    weights: &[f64],
    config: &EngineConfig,
) -> Result<EngineSolution, EngineError> {
    let start = Instant::now();
    let solve_span = mbta_telemetry::span!("mbta_core_engine_solve");
    {
        let _validate = mbta_telemetry::span!("mbta_core_engine_validate");
        if let Err(e) = validate_inputs(g, weights) {
            mbta_telemetry::counter_add("mbta_core_engine_rejects_total", 1);
            return Err(e);
        }
    }

    let mut ctl = SolveCtl::unlimited();
    if let Some(ms) = config.deadline_ms {
        ctl = ctl.with_deadline(Deadline::after_ms(ms));
    }
    if let Some(token) = &config.cancel {
        ctl = ctl.with_token(token.clone());
    }

    // The degradation chain, cheapest stage first. With `exact_only` the two
    // heuristic stages are skipped and the exact stage always runs, its
    // (possibly partial) flow adopted over the empty incumbent. They are
    // skipped too when nothing can stop the solve: the exact stage then
    // always completes and replaces whatever floor was built.
    let mut best = Matching::empty();
    let mut tier = QualityTier::Degraded;
    let mut ls_completed = false;
    let mut exact_completed = false;

    if !config.exact_only && !ctl.is_unlimited() {
        // Stage 1: greedy floor. Not interruptible, but O(m log m) — on any
        // instance where the exact solve could time out, greedy is noise.
        best = {
            let _greedy = mbta_telemetry::span!("mbta_core_engine_greedy");
            greedy_bmatching(g, weights, 0.0)
        };

        // Stage 2: local search from the greedy floor. Monotone: the result
        // is never lighter than `best`, even when interrupted mid-pass.
        if !ctl.stop_requested() {
            let _ls = mbta_telemetry::span!("mbta_core_engine_local_search");
            let (improved, _, completed) =
                local_search_ctl(g, weights, best, config.max_passes, &ctl);
            best = improved;
            ls_completed = completed;
            if completed {
                tier = QualityTier::Approximate;
            }
        }
    }

    // Stage 3: exact min-cost flow. Over a heuristic incumbent, only adopt
    // an interrupted partial flow if it actually beats it — the prefix of an
    // exact solve can be far worse than converged local search.
    if config.exact_only || !ctl.stop_requested() {
        let _exact = mbta_telemetry::span!("mbta_core_engine_exact");
        let mode = FlowMode::FreeCardinality;
        let (exact, _, completed) = max_weight_bmatching_ctl(g, weights, mode, config.algo, &ctl);
        if completed {
            tier = QualityTier::Exact;
            exact_completed = true;
        }
        if completed
            || config.exact_only
            || exact.total_weight(weights) > best.total_weight(weights)
        {
            best = exact;
        }
    }

    debug_assert!(best.validate(g).is_ok());
    solve_span.attr("edges", g.n_edges() as u64);
    mbta_telemetry::counter_add(tier_counter(tier), 1);
    Ok(EngineSolution {
        value: best.total_weight(weights),
        tier,
        exact_completed,
        local_search_completed: ls_completed,
        elapsed: start.elapsed(),
        matching: best,
    })
}

/// Static counter name for each quality tier (static so the per-solve hot
/// path allocates nothing).
fn tier_counter(tier: QualityTier) -> &'static str {
    match tier {
        QualityTier::Degraded => "mbta_core_engine_tier_total{tier=\"degraded\"}",
        QualityTier::Approximate => "mbta_core_engine_tier_total{tier=\"approximate\"}",
        QualityTier::Exact => "mbta_core_engine_tier_total{tier=\"exact\"}",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::{from_edges, random_bipartite, RandomGraphSpec};
    use mbta_matching::mcmf::max_weight_bmatching;
    use mbta_util::fixed::objectives_close;

    fn instance(seed: u64) -> (BipartiteGraph, Vec<f64>) {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 40,
                n_tasks: 30,
                avg_degree: 5.0,
                capacity: 2,
                demand: 2,
            },
            seed,
        );
        let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        (g, w)
    }

    #[test]
    fn unbounded_solve_is_exact() {
        for seed in 0..5 {
            let (g, w) = instance(seed);
            let sol = solve_robust(&g, &w, &EngineConfig::new()).unwrap();
            assert_eq!(sol.tier, QualityTier::Exact);
            assert!(sol.exact_completed);
            assert!(
                !sol.local_search_completed,
                "nothing can stop this solve: no floor to build"
            );
            sol.matching.validate(&g).unwrap();
            let (opt, _) =
                max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
            assert!(objectives_close(
                sol.value,
                opt.total_weight(&w),
                g.n_edges()
            ));
        }
    }

    #[test]
    fn validation_catches_each_error_class() {
        let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.5, 0.5), (1, 1, 0.5, 0.5)]);
        let cfg = EngineConfig::new();

        let err = solve_robust(&g, &[0.5], &cfg).unwrap_err();
        assert!(matches!(
            err,
            EngineError::WeightLenMismatch {
                expected: 2,
                got: 1
            }
        ));

        let err = solve_robust(&g, &[f64::NAN, 0.5], &cfg).unwrap_err();
        assert!(matches!(err, EngineError::NonFiniteWeight { edge: 0, .. }));

        let err = solve_robust(&g, &[0.5, f64::INFINITY], &cfg).unwrap_err();
        assert!(matches!(err, EngineError::NonFiniteWeight { edge: 1, .. }));

        let err = solve_robust(&g, &[0.5, -0.1], &cfg).unwrap_err();
        assert!(matches!(err, EngineError::NegativeWeight { edge: 1, .. }));

        let empty = from_edges(&[], &[], &[]);
        let err = solve_robust(&empty, &[], &cfg).unwrap_err();
        assert!(matches!(err, EngineError::EmptyGraph { .. }));

        let dead = from_edges(&[1, 1], &[1], &[]);
        let err = solve_robust(&dead, &[], &cfg).unwrap_err();
        assert!(matches!(err, EngineError::NoAssignableCapacity));
    }

    #[test]
    fn pre_cancelled_solve_degrades_to_greedy_floor() {
        let (g, w) = instance(7);
        let token = CancelToken::new();
        token.cancel();
        let cfg = EngineConfig::new().with_cancel(token);
        let sol = solve_robust(&g, &w, &cfg).unwrap();
        assert_eq!(sol.tier, QualityTier::Degraded);
        assert!(!sol.exact_completed);
        sol.matching.validate(&g).unwrap();
        // The floor is exactly greedy.
        let floor = greedy_bmatching(&g, &w, 0.0);
        assert!((sol.value - floor.total_weight(&w)).abs() < 1e-12);
    }

    #[test]
    fn tiers_are_value_monotone_on_a_fixed_instance() {
        for seed in 0..5 {
            let (g, w) = instance(seed + 100);
            let exact = solve_robust(&g, &w, &EngineConfig::new()).unwrap();
            assert_eq!(exact.tier, QualityTier::Exact);

            let token = CancelToken::new();
            token.cancel();
            let degraded = solve_robust(&g, &w, &EngineConfig::new().with_cancel(token)).unwrap();
            assert_eq!(degraded.tier, QualityTier::Degraded);

            // Tier ordering is value ordering (fixed-point tolerance).
            let tol = 1e-6 * g.n_edges() as f64;
            assert!(degraded.value <= exact.value + tol, "seed {seed}");
            assert!(QualityTier::Degraded < QualityTier::Approximate);
            assert!(QualityTier::Approximate < QualityTier::Exact);
        }
    }

    #[test]
    fn zero_deadline_still_returns_a_valid_answer() {
        let (g, w) = instance(3);
        let cfg = EngineConfig::new().with_deadline_ms(0);
        let sol = solve_robust(&g, &w, &cfg).unwrap();
        sol.matching.validate(&g).unwrap();
        assert!(sol.tier <= QualityTier::Approximate, "tier {}", sol.tier);
    }

    #[test]
    fn fault_campaign_never_panics_and_always_validates() {
        // The PR's acceptance bar: >= 1000 fuzzed adversarial instances
        // through the engine; every outcome is either a typed rejection or
        // a matching that validates. Deadlines come from a cancellation
        // flood so budget plumbing is stressed at the same time.
        use mbta_workload::faults::{adversarial_instance, cancellation_flood};
        let flood = cancellation_flood(1200, 0xF100D);
        let (mut solved, mut rejected) = (0usize, 0usize);
        for (seed, plan) in (0u64..1200).zip(flood) {
            let inst = adversarial_instance(seed);
            let mut cfg = EngineConfig::new().with_deadline_ms(plan.deadline_ms);
            if plan.pre_cancelled {
                let token = CancelToken::new();
                token.cancel();
                cfg = cfg.with_cancel(token);
            }
            match solve_robust(&inst.graph, &inst.weights, &cfg) {
                Ok(sol) => {
                    sol.matching
                        .validate(&inst.graph)
                        .unwrap_or_else(|e| panic!("seed {seed}: invalid matching: {e}"));
                    assert!(sol.value.is_finite(), "seed {seed}: value {}", sol.value);
                    solved += 1;
                }
                Err(_) => rejected += 1, // typed rejection IS graceful handling
            }
        }
        // The campaign must actually exercise both paths.
        assert!(solved >= 300, "only {solved} solved");
        assert!(rejected >= 200, "only {rejected} rejected");
    }

    #[test]
    fn deadline_is_honored_via_tier_fallback() {
        // A 50 ms budget on a large instance: the engine must come back
        // quickly (generous wall-clock slack for CI) with a valid answer,
        // degrading the tier rather than blowing the budget.
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: 2000,
                n_tasks: 1500,
                avg_degree: 12.0,
                capacity: 2,
                demand: 2,
            },
            42,
        );
        let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        let cfg = EngineConfig::new().with_deadline_ms(50);
        let start = Instant::now();
        let sol = solve_robust(&g, &w, &cfg).unwrap();
        let elapsed = start.elapsed();
        sol.matching.validate(&g).unwrap();
        // Generous: deadline 50 ms, allow 2 s of slack for slow CI — the
        // point is that it does not run the multi-second exact solve to
        // completion when the budget is blown.
        assert!(
            elapsed < Duration::from_secs(2),
            "engine ignored its deadline: {elapsed:?}"
        );
    }

    #[test]
    fn telemetry_records_tiers_phases_and_rejects() {
        let tier_exact =
            mbta_telemetry::global().counter("mbta_core_engine_tier_total{tier=\"exact\"}");
        let rejects = mbta_telemetry::global().counter("mbta_core_engine_rejects_total");
        let solve_ms = mbta_telemetry::global().histogram("mbta_core_engine_solve_ms");
        let exact_ms = mbta_telemetry::global().histogram("mbta_core_engine_exact_ms");
        let (t0, r0, s0, e0) = (
            tier_exact.get(),
            rejects.get(),
            solve_ms.count(),
            exact_ms.count(),
        );

        let (g, w) = instance(11);
        solve_robust(&g, &w, &EngineConfig::new()).unwrap();
        solve_robust(&g, &[0.5], &EngineConfig::new()).unwrap_err();

        // `>=`: other tests in this binary solve concurrently and bump the
        // same process-wide counters.
        assert!(tier_exact.get() > t0);
        assert!(rejects.get() > r0);
        // Two solve spans opened; the rejected one still times the attempt.
        assert!(solve_ms.count() >= s0 + 2);
        assert!(exact_ms.count() > e0);
    }

    #[test]
    fn exact_only_mode_skips_heuristics() {
        let (g, w) = instance(4);
        let sol = solve_robust(&g, &w, &EngineConfig::new().exact_only()).unwrap();
        assert_eq!(sol.tier, QualityTier::Exact);
        assert!(!sol.local_search_completed);

        let token = CancelToken::new();
        token.cancel();
        let cfg = EngineConfig::new().exact_only().with_cancel(token);
        let sol = solve_robust(&g, &w, &cfg).unwrap();
        assert_eq!(sol.tier, QualityTier::Degraded);
        sol.matching.validate(&g).unwrap();
    }
}
