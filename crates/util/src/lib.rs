//! `mbta-util`: dependency-free utility substrate for the `mbta` workspace.
//!
//! This crate provides the small, hot building blocks that the graph,
//! matching, and market layers share:
//!
//! * [`fxhash`] — a fast, non-cryptographic hasher (FxHash-style) plus
//!   `FxHashMap`/`FxHashSet` aliases. The standard SipHash is a measurable
//!   cost on integer keys in graph construction paths.
//! * [`heap`] — an indexed binary min-heap with `decrease-key`, the priority
//!   queue shape Dijkstra-with-potentials wants.
//! * [`rng`] — a tiny deterministic `SplitMix64` generator and seed-derivation
//!   helpers so every experiment is reproducible without pulling `rand` into
//!   every crate.
//! * [`stats`] — online mean/variance accumulators for the experiment
//!   harness.
//! * [`fixed`] — fixed-point scaling between `f64` benefits in `[0,1]` and
//!   `i64` costs, so min-cost-flow runs on exact integers.
//! * [`table`] — aligned text tables and CSV emission for experiment output.
//! * [`id`] — the `define_id!` macro generating `u32` newtype identifiers.
//! * [`cancel`] — cooperative cancellation tokens and deadline budgets the
//!   solver inner loops consult so exact solves can be interrupted.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[macro_use]
pub mod id;

pub mod cancel;
pub mod fixed;
pub mod fxhash;
pub mod heap;
pub mod rng;
pub mod stats;
pub mod table;

pub use cancel::{CancelToken, Deadline, SolveCtl};
pub use fxhash::{FxHashMap, FxHashSet};
pub use heap::IndexedHeap;
pub use rng::SplitMix64;
pub use stats::OnlineStats;
