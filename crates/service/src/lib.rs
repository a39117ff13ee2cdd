//! `mbta-service`: the streaming dispatch service.
//!
//! Everything below this crate solves *instances*; this crate runs a
//! *market*. A labor platform's assignment loop is event-driven — workers
//! log in and out, tasks appear and expire, benefit estimates drift — and
//! the paper's solvers only become a system once something turns that
//! stream into bounded-latency, capacity-safe assignment decisions. That
//! something is [`DispatchService`]:
//!
//! * [`event`] — the ingress model: [`event::ServiceEvent`], the
//!   trace adapter, and a deterministic benefit-drift weaver.
//! * [`batch`] — micro-batch accumulation with count, byte, and
//!   (virtual-)time watermarks.
//! * [`queue`] — the bounded ingress queue and its explicit overload
//!   policy (drop-newest / drop-oldest / defer), every loss counted.
//! * [`shard`] — node-disjoint market sharding with home-shard worker
//!   placement; node-disjointness is what makes the cross-shard capacity
//!   invariant hold by construction. Three routings: `hash`, `range`,
//!   and `min-cut` (edge-cut-aware label propagation from
//!   `mbta-partition`).
//! * `pool` (crate-private) — solves a batch's touched shards
//!   concurrently: the dispatching thread and `std::thread::scope` helpers
//!   drain one largest-first job queue, and a deterministic shard-index
//!   merge keeps threaded replay byte-identical.
//! * [`dispatch`] — the [`Dispatcher`]: every decision, from one state
//!   machine that does no I/O. Per-shard incremental states and carried
//!   exact solvers over the current plan, the cut tracker, live weights,
//!   poison marks, and the mode's state — the boundary-rescue overlay and
//!   market (a second matching over cross-shard edges, re-solved on a
//!   carried solver of its own) or the online drift accumulators. Its
//!   steps (`batch`, `event`, the online `close`, `detach` → `replan`)
//!   each return a [`Commit`]; poisoned shards keep their greedy-repaired
//!   assignment without solving or stalling siblings. See DESIGN.md §8.4,
//!   §13.
//! * [`service`] — [`DispatchService`], the driver around one dispatcher:
//!   the ingress queue and batcher, the one *commit path* every decision
//!   leaves through (sequence number, tallies, write-ahead journal, sink),
//!   the clocks and the report. Cut drift past a threshold triggers the
//!   driver's detach → re-partition → resume migration.
//! * [`online`] — the online mode (`--online`): its config, the flip
//!   fold and the depth-1 exchange; the dispatcher adds per-shard drift
//!   accounting and a warm-started exact fallback (its per-shard
//!   `mbta_core::warm::WarmSolver`) past the drift threshold.
//!   Sub-millisecond median decision latency, one commit per deciding
//!   event. See DESIGN.md §14.
//! * [`sink`] — pluggable decision output; the textual decision log is
//!   byte-identical across replays under deterministic budgets.
//! * [`report`] — end-of-run telemetry: throughput, batch-latency
//!   percentiles, tier tallies, and the capacity-violation count (always
//!   zero unless the shard invariant is broken).
//! * durability — attach an `mbta-store` [`DurableStore`] via
//!   [`service::DispatchService::attach_store`] and every commit is
//!   journaled (WAL) before its decisions reach the sink, with periodic
//!   full-state snapshots; `mbta_store::recover` rebuilds the state after
//!   a crash. See DESIGN.md §11.
//!
//! See DESIGN.md §"Streaming dispatch service" for the architecture
//! discussion and the CLI's `serve` / `replay` commands for the wiring.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod dispatch;
pub mod event;
pub mod online;
mod pool;
pub mod queue;
pub mod report;
pub mod service;
pub mod shard;
pub mod sink;

pub use batch::{BatchConfig, Batcher, ClosedBatch, FlushReason};
pub use dispatch::{BudgetMode, Commit, Detached, Dispatcher, Head};
pub use event::{Arrival, BenefitDrift, ServiceEvent};
pub use online::OnlineConfig;
pub use queue::{BoundedQueue, DeferBackoff, DropPolicy, OfferOutcome};
pub use report::ServiceReport;
pub use service::{CarriedState, DispatchService, ServiceConfig};
pub use shard::{capacity_violations, Route, Routing, ShardPlan};
pub use sink::{Action, BatchStats, CollectSink, Decision, DecisionSink, NullSink, WriteSink};

// Durability wiring surface, re-exported so callers that attach a store
// need not name `mbta-store` directly.
pub use mbta_store::store::{recover, DurableStore, RecoveredState, StoreConfig};
pub use mbta_store::wal::FsyncPolicy;
