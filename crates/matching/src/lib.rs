//! `mbta-matching`: the bipartite assignment algorithm substrate.
//!
//! Every solver in this crate consumes a [`mbta_graph::BipartiteGraph`] plus a per-edge
//! weight slice (`weights[e]` for edge id `e`) and produces a [`Matching`] —
//! a degree-feasible edge subset. Keeping weights *outside* the graph lets
//! the `mbta-core` layer evaluate the same instance under different benefit
//! combiners without rebuilding adjacency.
//!
//! Solvers:
//!
//! * [`mcmf`] — min-cost max-flow (successive shortest augmenting paths,
//!   Dijkstra + Johnson potentials, with an SPFA variant for the ablation
//!   bench). The **exact** solver for weighted b-matching (`ExactMB`), and
//!   the only one: one bipartite network and one Dijkstra, shared by the
//!   cold entry points, the certificate verifier and [`warm`]; the
//!   augmentation loop and Bellman–Ford behind the cold entry points alone.
//! * [`hungarian`] — Kuhn–Munkres O(n³), dense; exact for one-to-one
//!   assignment on small instances; used as a cross-validation oracle.
//! * [`auction`] — Bertsekas' auction (single-phase, ε = 1); the third
//!   independent exact oracle for one-to-one assignment.
//! * [`dinic`] — max-flow; cardinality b-matching and the feasibility probe
//!   of the egalitarian (MaxMin) threshold search.
//! * [`hopcroft_karp`] — max-cardinality matching for the unit
//!   capacity/demand case; cross-checks `dinic`.
//! * [`push_relabel`] — highest-label push–relabel max flow; a second
//!   independent flow engine cross-validating `dinic` (F15 ablation).
//! * [`greedy`] — sort-and-scan greedy weighted b-matching, the scalable
//!   heuristic (½-approximation on unit instances).
//! * [`local_search`] — swap-based improvement on top of any matching.
//! * [`kbest`] — Murty's partitioning: enumerate the k best matchings in
//!   non-increasing objective order.
//! * [`stable`] — worker-proposing deferred acceptance (Gale–Shapley /
//!   hospital-residents) under two-sided preferences; the "two-sided market"
//!   reference baseline.
//! * [`online`] — irrevocable arrival-order assignment policies (greedy,
//!   ranking, two-phase sample-then-threshold).
//! * [`warm`] — [`warm::WarmNet`]: the [`mcmf`] solver plus carried state
//!   (network, potentials, seeded flow) across repeated solves on a fixed
//!   topology (node capacities may move, the arcs may not), with only
//!   the warm-specific steps — re-price the carried
//!   potentials, saturate the arcs still violated, route the excess by
//!   [`mcmf`]'s Dijkstra — of its own, a first solve included (from zero
//!   prices); the exact engine behind every serving solve.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod auction;
pub mod dinic;
pub mod greedy;
pub mod hopcroft_karp;
pub mod hungarian;
pub mod kbest;
pub mod local_search;
pub mod mcmf;
pub mod online;
pub mod push_relabel;
pub mod solution;
pub mod stable;
pub mod warm;

pub use solution::{Infeasibility, Matching};
