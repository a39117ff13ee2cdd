//! Multi-process shard-owner cluster: a router process owning admission
//! and placement, and shard-owner workers each running a single-shard
//! dispatch service behind the CRC-framed `mbta-net` protocol.
//!
//! # Topology
//!
//! ```text
//!   clients ──TCP──► router (mbta route)
//!                      │  admission (bounded queue, RETRY-AFTER)
//!                      │  per-namespace ShardPlan routing
//!                      ├──TCP──► shard-worker 0   (owns shard 0, own WAL dir)
//!                      ├──TCP──► shard-worker 1   (owns shard 1, own WAL dir)
//!                      └──TCP──► shard-worker N-1
//! ```
//!
//! Every process loads the *same ordered tenant trace list*, so tenant
//! `i`'s universe, edge weights, and [`ShardPlan`] are reconstructed
//! identically everywhere (the plan build is deterministic; a shared
//! placement file via `mbta-partition` pins it explicitly). The router
//! routes each admitted event to the shard that owns its node and forwards
//! it over a per-owner connection. That forwarding *is* shard ownership:
//! an owner runs ordinary dispatch services and sees only its shard's
//! events. The worker checks each arrival against its own copy of the plan
//! before offering it, so any router/worker disagreement surfaces as a
//! `foreign_events` counter instead of silent misplacement.
//!
//! # Tenant namespaces
//!
//! The wire protocol scopes every `EVENT_BATCH` by a `u32` namespace id —
//! the tenant's index into the ordered trace list. Each worker runs one
//! [`DispatchService`] *per namespace*, each with its own WAL subdirectory
//! (`ns-<i>`), its own decision log, and its own capacity state: tenants
//! share processes and sockets but no dispatch state, which is what the
//! namespace-isolation test asserts byte-for-byte.
//!
//! # Failure model
//!
//! Admission is exactly-once at the router (all-or-nothing batch pushes);
//! router → owner forwarding is *at-least-once* (a reply lost to a broken
//! connection is retried, and every event is idempotent under replay at
//! the service layer). A dead owner — send failure that outlives the
//! reconnect window — poisons its shard at the router: events routed to it
//! are degraded (counted, surfaced in the final report, `POISONED` printed
//! once) and the run still finishes. Admitted events are therefore never
//! silently lost: they are either applied by a live owner or counted as
//! poisoned-shard degradations.
//!
//! [`DispatchService`]: mbta_service::DispatchService
//! [`ShardPlan`]: mbta_service::ShardPlan

mod process;
pub mod router;
pub mod topology;
pub mod worker;

pub use process::Handle;
pub use router::{RouterConfig, RouterHandle, RouterSummary};
pub use topology::{build_plans, load_tenants, save_plans, Tenant};
pub use worker::{WorkerConfig, WorkerHandle, WorkerSummary};
