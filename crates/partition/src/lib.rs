//! Edge-cut-aware shard planning for the dispatch service.
//!
//! Node-disjoint sharding (see `mbta-service`'s `ShardPlan`) makes the
//! union of per-shard assignments feasible by construction, but every
//! eligibility edge that straddles two shards is unassignable — at eight
//! hash-routed shards roughly two-thirds of the market's mutual benefit
//! sits on such cross edges. This crate attacks that loss from three
//! sides, each usable on its own:
//!
//! 1. [`partitioner`] — a deterministic, capacity-balanced
//!    label-propagation heuristic that computes a task/worker → shard
//!    assignment minimizing *cut weight* (the weight on cross edges)
//!    subject to per-shard balance bounds. The service exposes it as
//!    `--routing min-cut`.
//! 2. [`rescue`] — the boundary-rescue market: after the per-shard solves
//!    merge, the cross edges whose endpoints still have residual
//!    capacity form a small second-stage matching instance whose
//!    solution recovers cut weight without touching intra-shard results.
//!    This module builds the market once per plan, seeds each batch's
//!    re-solve and validates the result; the service owns the solve.
//! 3. [`drift`] — bookkeeping for drift-driven re-planning: an
//!    incremental cut tracker that watches benefit updates erode the
//!    current cut, and the migration diff between two plans.
//! 4. [`placement`] — the serialized node→shard maps a multi-process
//!    cluster shares: the router computes placement once, exports a
//!    checksummed [`placement::PlacementMap`] per tenant namespace, and
//!    every shard-owner process imports the identical file instead of
//!    re-deriving it.
//!
//! The crate deliberately depends only on `mbta-graph`: it computes node
//! assignments, boundary markets, and diffs — never solves, journals, or
//! schedules. That keeps it reusable below the service layer (the CLI's
//! `plan-stats` subcommand calls the partitioner directly).

#![warn(missing_docs)]

pub mod drift;
pub mod partitioner;
pub mod placement;
pub mod rescue;

pub use drift::{migration_diff, CutTracker, MigrationStats};
pub use partitioner::{partition, Partition, PartitionConfig};
pub use placement::{
    decode_placements, encode_placements, load_placements, save_placements, PlacementError,
    PlacementMap,
};
pub use rescue::{epoch_market, validate_rescue};
