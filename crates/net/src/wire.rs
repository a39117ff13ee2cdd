//! The wire protocol: framing and payload codecs for the TCP ingress.
//!
//! Every message in either direction is one CRC frame (the store's
//! `[len u32 LE | crc32 u32 LE | payload]` layout, see
//! `mbta_store::frame`) with a payload that starts with a one-byte tag:
//!
//! ```text
//! requests                         replies
//! 0x01 EVENT_BATCH                 0x81 OK          u32 accepted
//!      u32 ns, u32 count,          0x82 RETRY_AFTER u32 hint_ms
//!      count × event               0x83 ERR         u8 code, u16 len, msg
//! 0x02 FIN                         0x84 STATUS      u8 role, u64 watermark,
//! 0x03 QUERY_STATUS                                 u64 assignments,
//! 0x04 QUERY_REPORT                                 f64 total_weight
//!                                  0x85 SHARD_REPORT
//!                                       u32 shard, u32 n_shards,
//!                                       u8 poisoned, u32 namespaces,
//!                                       u64 events, u64 foreign,
//!                                       u64 decisions, u64 assignments,
//!                                       f64 total_weight
//!
//! event: u8 kind, f64 time, then
//!   kind 1..=5 (join/leave/post/cancel/complete): u32 id
//!   kind 6 (benefit update):                      u32 edge, f64 weight
//! ```
//!
//! `ns` is the tenant/namespace id: independent markets multiplexed over
//! one cluster. A single-tenant `serve` endpoint treats every batch as
//! namespace 0; the router and shard workers demultiplex by it.
//!
//! The network reuses the store's framing and its byte codec
//! (`mbta_store::codec`: the `put_*` writers and the bounds-checked
//! `Reader`), so one set of acceptance rules and one set of bounds checks
//! govern both the journal and the socket — but with a much smaller
//! payload cap ([`MAX_NET_FRAME`]): a WAL segment legitimately holds
//! megabytes, a single request never does, and the cap is checked before
//! any allocation so a hostile length header cannot balloon memory.
//!
//! Decoding is *total*: any byte string yields either a message or a
//! typed [`WireError`] — never a panic, never an allocation driven by
//! unvalidated input. The adversarial-input property test in
//! `tests/properties.rs` holds the decoder to that.

use mbta_service::{Arrival, ServiceEvent};
use mbta_store::codec::{put_f64, put_u16, put_u32, put_u64, Reader};
use mbta_store::DecodeError;
use std::fmt;
use std::io::{self, Read, Write};

/// Payload cap for one network frame (1 MiB). Above any legitimate
/// request (a maximal [`MAX_BATCH_EVENTS`] batch encodes to ~800 KiB),
/// far below the store's 256 MiB journal cap.
pub const MAX_NET_FRAME: usize = 1 << 20;

/// Events allowed in one `EVENT_BATCH` request.
pub const MAX_BATCH_EVENTS: usize = 32_768;

/// Request tag: a batch of service events.
pub const TAG_EVENT_BATCH: u8 = 0x01;
/// Request tag: end of stream — the client is done sending.
pub const TAG_FIN: u8 = 0x02;
/// Request tag: read-only status query.
pub const TAG_QUERY_STATUS: u8 = 0x03;
/// Request tag: read-only shard-report query (cluster aggregation).
pub const TAG_QUERY_REPORT: u8 = 0x04;
/// Reply tag: batch fully admitted.
pub const TAG_OK: u8 = 0x81;
/// Reply tag: ingress saturated; retry the same batch after a delay.
pub const TAG_RETRY_AFTER: u8 = 0x82;
/// Reply tag: request rejected.
pub const TAG_ERR: u8 = 0x83;
/// Reply tag: status snapshot.
pub const TAG_STATUS: u8 = 0x84;
/// Reply tag: per-shard-owner report snapshot.
pub const TAG_SHARD_REPORT: u8 = 0x85;

/// Error codes carried in an `ERR` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The frame was valid but its payload did not decode; the
    /// connection survives (the frame boundary is intact).
    Payload,
    /// The frame itself was damaged (oversize length or CRC mismatch);
    /// the server closes the connection after replying, since the byte
    /// stream can no longer be resynchronized.
    Frame,
    /// The batch can never fit the ingress queue, no matter how long the
    /// client waits; shrink the batch.
    TooLarge,
    /// This endpoint is a read-only follower; it accepts status queries
    /// only.
    ReadOnly,
    /// An error code this build does not know.
    Unknown(u8),
}

impl ErrCode {
    /// Wire byte for this code.
    pub fn as_u8(self) -> u8 {
        match self {
            ErrCode::Payload => 1,
            ErrCode::Frame => 2,
            ErrCode::TooLarge => 3,
            ErrCode::ReadOnly => 4,
            ErrCode::Unknown(b) => b,
        }
    }

    /// Decodes a wire byte (total: unknown bytes map to
    /// [`ErrCode::Unknown`]).
    pub fn from_u8(b: u8) -> ErrCode {
        match b {
            1 => ErrCode::Payload,
            2 => ErrCode::Frame,
            3 => ErrCode::TooLarge,
            4 => ErrCode::ReadOnly,
            other => ErrCode::Unknown(other),
        }
    }
}

/// Which side of the replicated pair answered a status query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The serving primary (accepts event batches).
    Primary,
    /// A read-only follower tailing the primary's WAL.
    Follower,
}

impl Role {
    /// Stable display keyword (`primary` / `follower`).
    pub fn name(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Follower => "follower",
        }
    }
}

/// Payload of a `STATUS` reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatusInfo {
    /// Responder's role.
    pub role: Role,
    /// Batches committed (primary) or applied (follower).
    pub watermark: u64,
    /// Live assigned-edge count.
    pub assignments: u64,
    /// Live total assignment value.
    pub total_weight: f64,
}

/// Payload of a `SHARD_REPORT` reply: one shard owner's live tallies,
/// aggregated by the router into the cluster-wide run report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardReportInfo {
    /// Shard this owner serves.
    pub shard: u32,
    /// Total shards in the owner's plan.
    pub n_shards: u32,
    /// Whether the owner currently marks its shard poisoned.
    pub poisoned: bool,
    /// Namespaces (tenants) this owner hosts.
    pub namespaces: u32,
    /// Events admitted across all namespaces.
    pub events: u64,
    /// Events received for a shard this owner does not own (misroutes —
    /// dropped, never applied).
    pub foreign_events: u64,
    /// Decision records emitted across all namespaces. End-of-run only:
    /// an owner's live report carries 0 here until it has finished.
    pub decisions: u64,
    /// Live assigned-edge count across all namespaces.
    pub assignments: u64,
    /// Live total assignment value across all namespaces.
    pub total_weight: f64,
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A batch of timestamped events to admit atomically, scoped to one
    /// tenant namespace (`ns` = 0 for single-tenant endpoints).
    EventBatch {
        /// Tenant namespace the events belong to.
        ns: u32,
        /// The timestamped events.
        events: Vec<Arrival>,
    },
    /// The client has no more events; the server may drain and finish.
    Fin,
    /// Read-only status query.
    QueryStatus,
    /// Read-only shard-report query (answered by shard owners).
    QueryReport,
}

/// A decoded reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The whole batch was admitted (`accepted` events).
    Ok {
        /// Events admitted by this request.
        accepted: u32,
    },
    /// Nothing was admitted; retry the same batch after roughly
    /// `hint_ms` milliseconds.
    RetryAfter {
        /// Server-suggested delay before retrying.
        hint_ms: u32,
    },
    /// The request was rejected.
    Err {
        /// Machine-readable rejection class.
        code: ErrCode,
        /// Human-readable detail.
        msg: String,
    },
    /// Status snapshot.
    Status(StatusInfo),
    /// Shard-owner report snapshot.
    ShardReport(ShardReportInfo),
}

/// Why a payload failed to decode. Total over arbitrary bytes: garbage
/// in, one of these out — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message did.
    Truncated,
    /// Bytes remained after a complete message.
    TrailingBytes,
    /// Unknown request tag.
    BadRequestTag(u8),
    /// Unknown reply tag.
    BadReplyTag(u8),
    /// Unknown event kind inside an `EVENT_BATCH`.
    BadEventKind(u8),
    /// `EVENT_BATCH` declared more events than [`MAX_BATCH_EVENTS`] or
    /// more than its bytes could possibly hold.
    BadBatchCount(u32),
    /// `ERR` message bytes were not UTF-8.
    BadErrText,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
            WireError::BadRequestTag(t) => write!(f, "unknown request tag 0x{t:02x}"),
            WireError::BadReplyTag(t) => write!(f, "unknown reply tag 0x{t:02x}"),
            WireError::BadEventKind(k) => write!(f, "unknown event kind {k}"),
            WireError::BadBatchCount(n) => write!(f, "implausible batch count {n}"),
            WireError::BadErrText => write!(f, "error text is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// The store's bounds-checked [`Reader`] does the byte-level reads; its
/// two failures map onto the wire's (`BadKind` is never raised by the
/// reader itself — tags and kinds are matched here).
impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> WireError {
        match e {
            DecodeError::Truncated => WireError::Truncated,
            DecodeError::TrailingBytes => WireError::TrailingBytes,
            DecodeError::BadKind(k) => WireError::BadEventKind(k),
        }
    }
}

const KIND_WORKER_JOIN: u8 = 1;
const KIND_WORKER_LEAVE: u8 = 2;
const KIND_TASK_POST: u8 = 3;
const KIND_TASK_CANCEL: u8 = 4;
const KIND_TASK_COMPLETE: u8 = 5;
const KIND_BENEFIT_UPDATE: u8 = 6;

/// Smallest possible encoded event (kind + time + id), used to bound the
/// declared batch count against the actual payload size.
const MIN_EVENT_BYTES: usize = 1 + 8 + 4;

// ---- events ---------------------------------------------------------------

fn encode_event(out: &mut Vec<u8>, a: &Arrival) {
    let (kind, id) = match a.event {
        ServiceEvent::WorkerJoin(id) => (KIND_WORKER_JOIN, id),
        ServiceEvent::WorkerLeave(id) => (KIND_WORKER_LEAVE, id),
        ServiceEvent::TaskPost(id) => (KIND_TASK_POST, id),
        ServiceEvent::TaskCancel(id) => (KIND_TASK_CANCEL, id),
        ServiceEvent::TaskComplete(id) => (KIND_TASK_COMPLETE, id),
        ServiceEvent::BenefitUpdate { edge, .. } => (KIND_BENEFIT_UPDATE, edge),
    };
    out.push(kind);
    put_f64(out, a.time);
    put_u32(out, id);
    if let ServiceEvent::BenefitUpdate { weight, .. } = a.event {
        put_f64(out, weight);
    }
}

fn decode_event(r: &mut Reader<'_>) -> Result<Arrival, WireError> {
    let kind = r.u8()?;
    let time = r.f64()?;
    let event = match kind {
        KIND_WORKER_JOIN => ServiceEvent::WorkerJoin(r.u32()?),
        KIND_WORKER_LEAVE => ServiceEvent::WorkerLeave(r.u32()?),
        KIND_TASK_POST => ServiceEvent::TaskPost(r.u32()?),
        KIND_TASK_CANCEL => ServiceEvent::TaskCancel(r.u32()?),
        KIND_TASK_COMPLETE => ServiceEvent::TaskComplete(r.u32()?),
        KIND_BENEFIT_UPDATE => ServiceEvent::BenefitUpdate {
            edge: r.u32()?,
            weight: r.f64()?,
        },
        other => return Err(WireError::BadEventKind(other)),
    };
    Ok(Arrival { time, event })
}

// ---- requests -------------------------------------------------------------

/// Encodes an `EVENT_BATCH` payload straight from a borrowed slice — the
/// one batch encoder: senders that retry a batch hand over the slice they
/// already hold instead of building an owned [`Request`] per attempt.
pub fn encode_event_batch(ns: u32, events: &[Arrival]) -> Vec<u8> {
    debug_assert!(events.len() <= MAX_BATCH_EVENTS);
    let mut out = Vec::with_capacity(9 + events.len() * 25);
    out.push(TAG_EVENT_BATCH);
    put_u32(&mut out, ns);
    put_u32(&mut out, events.len() as u32);
    for a in events {
        encode_event(&mut out, a);
    }
    out
}

/// Encodes a request payload (framing is separate; see
/// [`write_message`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::EventBatch { ns, events } => encode_event_batch(*ns, events),
        Request::Fin => vec![TAG_FIN],
        Request::QueryStatus => vec![TAG_QUERY_STATUS],
        Request::QueryReport => vec![TAG_QUERY_REPORT],
    }
}

/// Decodes a request payload. Total: any byte string yields `Ok` or a
/// typed [`WireError`].
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(payload);
    let tag = r.u8()?;
    match tag {
        TAG_EVENT_BATCH => {
            let ns = r.u32()?;
            let count = r.u32()?;
            // The count is attacker-controlled; bound it by the hard batch
            // limit and by what the remaining bytes could possibly encode
            // before any allocation sized by it.
            if count as usize > MAX_BATCH_EVENTS || r.remaining() < count as usize * MIN_EVENT_BYTES
            {
                return Err(WireError::BadBatchCount(count));
            }
            let mut events = Vec::with_capacity(count as usize);
            for _ in 0..count {
                events.push(decode_event(&mut r)?);
            }
            r.finish()?;
            Ok(Request::EventBatch { ns, events })
        }
        TAG_FIN => {
            r.finish()?;
            Ok(Request::Fin)
        }
        TAG_QUERY_STATUS => {
            r.finish()?;
            Ok(Request::QueryStatus)
        }
        TAG_QUERY_REPORT => {
            r.finish()?;
            Ok(Request::QueryReport)
        }
        other => Err(WireError::BadRequestTag(other)),
    }
}

// ---- replies --------------------------------------------------------------

/// Encodes a reply payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    match reply {
        Reply::Ok { accepted } => {
            let mut out = vec![TAG_OK];
            put_u32(&mut out, *accepted);
            out
        }
        Reply::RetryAfter { hint_ms } => {
            let mut out = vec![TAG_RETRY_AFTER];
            put_u32(&mut out, *hint_ms);
            out
        }
        Reply::Err { code, msg } => {
            let bytes = msg.as_bytes();
            let n = bytes.len().min(u16::MAX as usize);
            let mut out = vec![TAG_ERR, code.as_u8()];
            put_u16(&mut out, n as u16);
            out.extend_from_slice(&bytes[..n]);
            out
        }
        Reply::Status(s) => {
            let mut out = vec![TAG_STATUS];
            out.push(match s.role {
                Role::Primary => 1,
                Role::Follower => 0,
            });
            put_u64(&mut out, s.watermark);
            put_u64(&mut out, s.assignments);
            put_f64(&mut out, s.total_weight);
            out
        }
        Reply::ShardReport(s) => {
            let mut out = vec![TAG_SHARD_REPORT];
            put_u32(&mut out, s.shard);
            put_u32(&mut out, s.n_shards);
            out.push(u8::from(s.poisoned));
            put_u32(&mut out, s.namespaces);
            put_u64(&mut out, s.events);
            put_u64(&mut out, s.foreign_events);
            put_u64(&mut out, s.decisions);
            put_u64(&mut out, s.assignments);
            put_f64(&mut out, s.total_weight);
            out
        }
    }
}

/// Decodes a reply payload. Total, like [`decode_request`].
pub fn decode_reply(payload: &[u8]) -> Result<Reply, WireError> {
    let mut r = Reader::new(payload);
    let tag = r.u8()?;
    let reply = match tag {
        TAG_OK => Reply::Ok { accepted: r.u32()? },
        TAG_RETRY_AFTER => Reply::RetryAfter { hint_ms: r.u32()? },
        TAG_ERR => {
            let code = ErrCode::from_u8(r.u8()?);
            let n = r.u16()? as usize;
            let bytes = r.take(n)?;
            let msg = std::str::from_utf8(bytes)
                .map_err(|_| WireError::BadErrText)?
                .to_string();
            Reply::Err { code, msg }
        }
        TAG_STATUS => {
            let role = if r.u8()? == 1 {
                Role::Primary
            } else {
                Role::Follower
            };
            Reply::Status(StatusInfo {
                role,
                watermark: r.u64()?,
                assignments: r.u64()?,
                total_weight: r.f64()?,
            })
        }
        TAG_SHARD_REPORT => Reply::ShardReport(ShardReportInfo {
            shard: r.u32()?,
            n_shards: r.u32()?,
            poisoned: r.u8()? != 0,
            namespaces: r.u32()?,
            events: r.u64()?,
            foreign_events: r.u64()?,
            decisions: r.u64()?,
            assignments: r.u64()?,
            total_weight: r.f64()?,
        }),
        other => return Err(WireError::BadReplyTag(other)),
    };
    r.finish()?;
    Ok(reply)
}

// ---- socket framing -------------------------------------------------------

/// Why a frame could not be read off a socket.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly before a new frame began.
    Eof,
    /// The declared payload length exceeds [`MAX_NET_FRAME`]. The stream
    /// cannot be resynchronized.
    Oversize(usize),
    /// The payload failed its CRC. The stream cannot be resynchronized.
    Corrupt,
    /// A real I/O failure (including a read timeout, which surfaces as
    /// `WouldBlock`/`TimedOut`) or a connection severed mid-frame.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Oversize(n) => write!(f, "frame length {n} exceeds {MAX_NET_FRAME}"),
            FrameError::Corrupt => write!(f, "frame CRC mismatch"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Writes one framed message payload to `w`.
pub fn write_message(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_NET_FRAME);
    let mut frame = Vec::with_capacity(8 + payload.len());
    mbta_store::write_frame(&mut frame, payload);
    w.write_all(&frame)
}

/// Reads one framed message payload from `r`.
///
/// The length header is validated against [`MAX_NET_FRAME`] *before* the
/// payload buffer is allocated. A clean close at a frame boundary is
/// [`FrameError::Eof`]; a close mid-frame is an I/O error.
pub fn read_message(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 8];
    // Distinguish "no next frame" (clean EOF at byte 0) from a frame cut
    // off mid-header.
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Eof),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_NET_FRAME {
        return Err(FrameError::Oversize(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if mbta_store::crc32(&payload) != crc {
        return Err(FrameError::Corrupt);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Arrival> {
        vec![
            Arrival {
                time: 0.5,
                event: ServiceEvent::WorkerJoin(3),
            },
            Arrival {
                time: 1.0,
                event: ServiceEvent::TaskPost(7),
            },
            Arrival {
                time: 1.5,
                event: ServiceEvent::BenefitUpdate {
                    edge: 11,
                    weight: 0.75,
                },
            },
            Arrival {
                time: 2.0,
                event: ServiceEvent::TaskComplete(7),
            },
            Arrival {
                time: 2.5,
                event: ServiceEvent::WorkerLeave(3),
            },
            Arrival {
                time: 3.0,
                event: ServiceEvent::TaskCancel(9),
            },
        ]
    }

    #[test]
    fn request_round_trips() {
        for req in [
            Request::EventBatch {
                ns: 0,
                events: sample_events(),
            },
            Request::EventBatch {
                ns: 7,
                events: Vec::new(),
            },
            Request::Fin,
            Request::QueryStatus,
            Request::QueryReport,
        ] {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes), Ok(req));
        }
    }

    #[test]
    fn reply_round_trips() {
        for reply in [
            Reply::Ok { accepted: 42 },
            Reply::RetryAfter { hint_ms: 150 },
            Reply::Err {
                code: ErrCode::Payload,
                msg: "unknown event kind 9".to_string(),
            },
            Reply::Status(StatusInfo {
                role: Role::Follower,
                watermark: 17,
                assignments: 120,
                total_weight: 88.25,
            }),
            Reply::ShardReport(ShardReportInfo {
                shard: 2,
                n_shards: 4,
                poisoned: true,
                namespaces: 3,
                events: 1_000,
                foreign_events: 5,
                decisions: 740,
                assignments: 61,
                total_weight: 44.5,
            }),
        ] {
            let bytes = encode_reply(&reply);
            assert_eq!(decode_reply(&bytes), Ok(reply));
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Round trips alone pass a symmetric encode/decode slip (two fields
    /// swapped on both sides); these vectors pin the bytes themselves,
    /// one per message kind and one per event kind.
    #[test]
    fn golden_wire_bytes() {
        let requests = [
            (
                Request::EventBatch {
                    ns: 7,
                    events: sample_events(),
                },
                "010700000006000000\
                 01000000000000e03f03000000\
                 03000000000000f03f07000000\
                 06000000000000f83f0b000000000000000000e83f\
                 05000000000000004007000000\
                 02000000000000044003000000\
                 04000000000000084009000000",
            ),
            (Request::Fin, "02"),
            (Request::QueryStatus, "03"),
            (Request::QueryReport, "04"),
        ];
        for (req, golden) in requests {
            assert_eq!(hex(&encode_request(&req)), golden, "{req:?}");
        }
        let replies = [
            (Reply::Ok { accepted: 42 }, "812a000000"),
            (Reply::RetryAfter { hint_ms: 150 }, "8296000000"),
            (
                Reply::Err {
                    code: ErrCode::TooLarge,
                    msg: "batch of 9".to_string(),
                },
                "83030a006261746368206f662039",
            ),
            (
                Reply::Status(StatusInfo {
                    role: Role::Primary,
                    watermark: 17,
                    assignments: 120,
                    total_weight: 88.25,
                }),
                "8401110000000000000078000000000000000000000000105640",
            ),
            (
                Reply::ShardReport(ShardReportInfo {
                    shard: 2,
                    n_shards: 4,
                    poisoned: true,
                    namespaces: 3,
                    events: 1_000,
                    foreign_events: 5,
                    decisions: 740,
                    assignments: 61,
                    total_weight: 44.5,
                }),
                "8502000000040000000103000000e8030000000000000500000000000000\
                 e4020000000000003d000000000000000000000000404640",
            ),
        ];
        for (reply, golden) in replies {
            assert_eq!(hex(&encode_reply(&reply)), golden, "{reply:?}");
        }
        // The socket frame around a payload: len, CRC32, payload.
        let mut framed = Vec::new();
        write_message(&mut framed, &encode_request(&Request::Fin)).unwrap();
        assert_eq!(hex(&framed), "01000000a18e0c3c02");
    }

    #[test]
    fn batch_count_is_bounded_before_allocation() {
        // A tag + ns + huge count and no event bytes must be rejected as a
        // bad count, not attempted as a 4-billion-element Vec.
        let mut payload = vec![TAG_EVENT_BATCH];
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_request(&payload),
            Err(WireError::BadBatchCount(u32::MAX))
        );
        // Exceeding MAX_BATCH_EVENTS is rejected even with bytes present.
        let mut payload = vec![TAG_EVENT_BATCH];
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&((MAX_BATCH_EVENTS as u32 + 1).to_le_bytes()));
        payload.resize(payload.len() + (MAX_BATCH_EVENTS + 1) * MIN_EVENT_BYTES, 0);
        assert_eq!(
            decode_request(&payload),
            Err(WireError::BadBatchCount(MAX_BATCH_EVENTS as u32 + 1))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_request(&Request::Fin);
        bytes.push(0);
        assert_eq!(decode_request(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn socket_framing_round_trips_and_rejects_damage() {
        let payload = encode_request(&Request::EventBatch {
            ns: 1,
            events: sample_events(),
        });
        let mut buf = Vec::new();
        write_message(&mut buf, &payload).unwrap();
        let mut cursor = io::Cursor::new(buf.clone());
        assert_eq!(read_message(&mut cursor).unwrap(), payload);
        // A second read at the clean end is Eof.
        assert!(matches!(read_message(&mut cursor), Err(FrameError::Eof)));
        // Flip a payload bit: CRC mismatch.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        assert!(matches!(
            read_message(&mut io::Cursor::new(bad)),
            Err(FrameError::Corrupt)
        ));
        // Oversize header is rejected before allocation.
        let mut huge = ((MAX_NET_FRAME + 1) as u32).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            read_message(&mut io::Cursor::new(huge)),
            Err(FrameError::Oversize(_))
        ));
        // Truncation mid-frame is an I/O error, not a hang or a panic.
        let cut = &buf[..buf.len() - 2];
        assert!(matches!(
            read_message(&mut io::Cursor::new(cut.to_vec())),
            Err(FrameError::Io(_))
        ));
    }
}
