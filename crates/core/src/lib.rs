//! `mbta-core`: mutual-benefit-aware task assignment.
//!
//! The reproduction of the paper's primary contribution: assignment in a
//! bipartite labor market that is *mutually* beneficial — good for the
//! requesters (answer quality) **and** for the workers (pay and interest),
//! under the eligibility bipartition that real markets impose.
//!
//! The crate layers problem definitions and solvers over the
//! `mbta-matching` substrate:
//!
//! * [`algorithms`] — the algorithm portfolio the evaluation compares:
//!   `ExactMB` (min-cost-flow optimum), `GreedyMB`, `LocalSearch`, and the
//!   baselines `QualityOnly`, `WorkerOnly`, `Random`, `Cardinality`,
//!   `Stable`.
//! * [`evaluate`] — the metric set every experiment reports: total mutual /
//!   requester / worker benefit, cardinality, demand coverage, per-side
//!   minima and Jain fairness.
//! * [`maxmin`] — the egalitarian variant (MB-MaxMin): among
//!   maximum-cardinality assignments, maximize the minimum per-edge mutual
//!   benefit (bottleneck b-matching), solved exactly by threshold search.
//! * [`frontier`] — the λ-sweep Pareto frontier between requester-side and
//!   worker-side welfare, and the balance-constrained variant built on it.
//! * [`online`] — arrival orders and empirical competitive ratios for the
//!   online policies.
//! * [`engine`] — the fault-tolerant one-shot solve (`mbta solve`): typed
//!   input validation, deadline/cancellation budgets, and the
//!   graceful-degradation fallback chain (greedy → local search → exact)
//!   with tiered quality.
//! * [`incremental`] — assignment maintenance under worker/task churn with
//!   greedy local repair (experiment F14).
//! * [`budget`] — MB-Budget: budget-constrained assignment via density
//!   greedy and Lagrangian relaxation (experiment F18).
//! * [`pipeline`] — the high-level facade: `Market` → realized graph →
//!   solve → evaluation, in one call.
//! * [`report`] — operator-facing audit reports: worker regrets and
//!   under-served tasks.
//! * [`offers`] — the offer/decline/re-offer loop under the acceptance
//!   model: the abstract's "willingness to participate" made operational
//!   (experiment F20).
//! * [`rotation`] — repeated rounds with load rotation: temporal fairness
//!   across the worker pool (experiment F22).
//! * [`warm`] — warm-started exact re-solves for long-lived shard states:
//!   carried node potentials + seeded flow over a fixed topology (every
//!   serving exact solve: each shard's and the boundary rescue's in batch
//!   mode, the drift fallback in online mode).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithms;
pub mod budget;
pub mod engine;
pub mod evaluate;
pub mod frontier;
pub mod incremental;
pub mod maxmin;
pub mod offers;
pub mod online;
pub mod pipeline;
pub mod report;
pub mod rotation;
pub mod warm;

pub use algorithms::{solve, Algorithm};
pub use engine::{solve_robust, EngineConfig, EngineError, EngineSolution, QualityTier};
pub use evaluate::Evaluation;
pub use pipeline::{assign, AssignmentOutcome};
