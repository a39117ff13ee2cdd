//! `mbta-store`: durable dispatch state for the streaming service.
//!
//! The dispatch service's state — sharded incremental assignments, live
//! edge weights, the batch watermark — lives in memory; this crate makes
//! it survive process death. Assignments already announced to workers and
//! requesters are *commitments* (the win-win/no-rejection setting of the
//! source paper), so recovery must restore exactly the matching that was
//! emitted, not re-decide it. The design is the classic checkpoint +
//! journal pair, with zero external dependencies:
//!
//! * [`wal`] — the append-only **write-ahead log**: CRC32-framed,
//!   length-prefixed [`record::WalRecord`]s (a batch's or an online
//!   pump's weight deltas and decisions, or a re-plan's shard sets) in
//!   one sequence space. Segmented files, configurable
//!   [`wal::FsyncPolicy`] (`always`/`batch`/`never`), one append path.
//! * [`snapshot`] — periodic **snapshots** of the full sharded assignment
//!   state ([`snapshot::SnapshotState`]), written atomically (tmp +
//!   rename + directory fsync) so a crash mid-snapshot can never shadow
//!   a good one and a finished one is durable before what it covers is
//!   deleted.
//! * [`tail`] — the **one reader**: [`tail::WalTail`], a cursor over the
//!   segment files positioned at a sequence number. The rule "the first
//!   torn, corrupt, undecodable or non-sequential frame ends the durable
//!   prefix" is written there and nowhere else; [`wal::replay`],
//!   [`store::recover`], repair-on-open and a live follower are that
//!   cursor started at different sequence numbers. Also the
//!   heartbeat-file liveness helpers behind `mbta follow`.
//! * [`store`] — [`store::DurableStore`] glues the write side together:
//!   journal a record *before* its decisions reach the sink (one write
//!   body behind the typed `commit*` doors), snapshot every N records,
//!   compact WAL segments older than the newest snapshot. And the **one
//!   fold**: [`store::RecoveredState`], whose `apply` is the only code
//!   that turns records into assignment state — it is what
//!   [`store::recover`] returns (latest *valid* snapshot + the log from
//!   its watermark on), what a follower keeps warm, and what a promotion
//!   snapshot is written from. Only the incomplete suffix of a damaged
//!   log is ever lost, never a committed prefix.
//!
//! Everything on disk is little-endian and versioned; [`frame`] holds the
//! shared `[len | crc32 | payload]` framing, [`codec`] the byte
//! primitives and bounds-checked reader (shared with the network wire
//! format in `mbta-net`), and [`record`]/[`snapshot`] the payload
//! layouts. See DESIGN.md §11 for format diagrams, recovery invariants,
//! and the fsync trade-off table.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod crc;
pub mod frame;
pub mod record;
pub mod snapshot;
pub mod store;
pub mod tail;
pub mod wal;

pub use crc::crc32;
pub use frame::{read_frame, write_frame, BadFrame, FrameRead};
pub use record::{
    Action, BatchRecord, Decision, DecodeError, OnlineRecord, PlanRecord, WalRecord, WeightDelta,
};
pub use snapshot::SnapshotState;
pub use store::{recover, DurableStore, RecoveredState, StoreConfig, StoreStats};
pub use tail::{heartbeat_age, heartbeat_touch, TailPoll, TailStatus, WalTail, HEARTBEAT_FILE};
pub use wal::{FsyncPolicy, Wal, WalConfig};
