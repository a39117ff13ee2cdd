//! `mbta-net`: the dispatch service's network front door, on nothing but
//! `std::net`.
//!
//! The paper's dispatch loop assumes events simply arrive; a deployed
//! labor market gets them from untrusted, bursty TCP clients. This crate
//! turns that stream into the clean `Arrival` sequence the service
//! already consumes:
//!
//! * [`wire`] — the protocol: the store's CRC frame layout around tagged
//!   request/reply payloads, with a 1 MiB frame cap and a *total*
//!   decoder (arbitrary bytes → message or typed error, never a panic —
//!   property-tested like the WAL).
//! * [`server`] — one server loop in two roles.
//!   [`server::NetIngress`]: an accept loop plus per-connection threads
//!   feeding one bounded queue, with per-connection read timeouts, error
//!   replies that keep the connection alive when only the payload was
//!   bad, and **admission control**: a saturated queue bounces the whole
//!   batch with `RETRY_AFTER` instead of blocking, so overload never
//!   stalls the accept loop. [`server::NetIngress::drive`] is the one
//!   statement of when the stream is over. [`server::StatusServer`] is
//!   the same loop in its read-only role — the endpoint followers serve
//!   while tailing the primary's WAL.
//! * [`client`] — [`client::Client`] and [`client::send_events`]: the
//!   producer side, whose capped exponential backoff
//!   ([`mbta_service::DeferBackoff`]) plus the server's all-or-nothing
//!   admission give exactly-once delivery of accepted events under
//!   retry, with no dedup state.
//!
//! Telemetry: `mbta_net_conns_total`, `mbta_net_frames_total`,
//! `mbta_net_accepted_total`, `mbta_net_retry_after_total`,
//! `mbta_net_malformed_total`, `mbta_net_bytes_total`, counted by both
//! roles (recording stops only under `mbta_telemetry::set_enabled(false)`).
//!
//! See DESIGN.md §12 for the wire format, the admission-control policy,
//! and the heartbeat/promotion protocol this crate underpins.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{send_events, Client, ClientError, SendSummary};
pub use server::{NetConfig, NetIngress, NetStats, StatusServer};
pub use wire::{
    decode_reply, decode_request, encode_event_batch, encode_reply, encode_request, read_message,
    write_message, ErrCode, FrameError, Reply, Request, Role, ShardReportInfo, StatusInfo,
    WireError, MAX_BATCH_EVENTS, MAX_NET_FRAME,
};
