//! The sending side: a framed-TCP client with a RETRY-AFTER-aware
//! backoff loop.
//!
//! The retry loop leans on the server's all-or-nothing admission: a
//! `RETRY_AFTER` reply means *zero* events of the batch were admitted,
//! so resending the identical batch is safe and every accepted event is
//! delivered exactly once — no sequence numbers, no dedup state. The
//! wait before each resend is the larger of the server's hint and the
//! client's own [`DeferBackoff`] schedule, so a fleet of producers that
//! saturated the ingress together spreads back out instead of
//! stampeding in lockstep.

use crate::wire::{
    decode_reply, encode_event_batch, encode_request, read_message, write_message, FrameError,
    Reply, Request, WireError,
};
use mbta_service::{Arrival, DeferBackoff};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::{Duration, Instant};

/// Why a client operation failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The reply frame was damaged or the connection closed mid-reply.
    Frame(FrameError),
    /// The reply payload did not decode.
    Wire(WireError),
    /// The server rejected the request (an `ERR` reply).
    Rejected {
        /// Wire error code byte.
        code: u8,
        /// Server-provided detail.
        msg: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "bad reply frame: {e}"),
            ClientError::Wire(e) => write!(f, "bad reply payload: {e}"),
            ClientError::Rejected { code, msg } => write!(f, "rejected (code {code}): {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        ClientError::Frame(e)
    }
}

/// A connected ingress client (one request in flight at a time).
pub struct Client {
    stream: TcpStream,
    reader: TcpStream,
}

impl Client {
    /// Connects to `addr` with a connect + read timeout.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Client> {
        let mut last_err = None;
        for sock_addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock_addr, timeout) {
                Ok(stream) => return Client::from_stream(stream, timeout),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved")))
    }

    /// Keeps trying to connect until `total_wait` elapses — covers the
    /// race where the client starts before the server has bound.
    pub fn connect_retry(addr: &str, total_wait: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + total_wait;
        let mut pause = Duration::from_millis(25);
        loop {
            match Client::connect(addr, Duration::from_secs(2)) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if Instant::now() + pause >= deadline {
                        return Err(e);
                    }
                    thread::sleep(pause);
                    pause = (pause * 2).min(Duration::from_millis(500));
                }
            }
        }
    }

    fn from_stream(stream: TcpStream, timeout: Duration) -> io::Result<Client> {
        stream.set_read_timeout(Some(timeout.max(Duration::from_secs(5))))?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok(Client { stream, reader })
    }

    /// The peer address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    /// Sends one request and reads its reply.
    pub fn request(&mut self, req: &Request) -> Result<Reply, ClientError> {
        self.round_trip(&encode_request(req))
    }

    /// Sends one `EVENT_BATCH` for tenant `ns` from a borrowed slice and
    /// reads its reply — what a retry loop calls per attempt.
    pub fn send_batch(&mut self, ns: u32, events: &[Arrival]) -> Result<Reply, ClientError> {
        self.round_trip(&encode_event_batch(ns, events))
    }

    fn round_trip(&mut self, payload: &[u8]) -> Result<Reply, ClientError> {
        write_message(&mut self.stream, payload)?;
        let reply = read_message(&mut self.reader)?;
        decode_reply(&reply).map_err(ClientError::Wire)
    }
}

/// Outcome of [`send_events`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendSummary {
    /// Events the server acknowledged as admitted.
    pub sent: u64,
    /// `EVENT_BATCH` requests that were accepted.
    pub batches: u64,
    /// Bounced attempts retried after a RETRY-AFTER wait.
    pub retries: u64,
}

/// Streams `events` in batches of `batch` under tenant namespace `ns`,
/// retrying each bounced batch under `backoff` until admitted. Returns
/// once every event is acknowledged; an `ERR` reply or transport failure
/// aborts with the error (nothing after the failed batch was sent).
pub fn send_events(
    client: &mut Client,
    ns: u32,
    events: &[Arrival],
    batch: usize,
    backoff: &mut DeferBackoff,
) -> Result<SendSummary, ClientError> {
    let mut summary = SendSummary::default();
    for chunk in events.chunks(batch.max(1)) {
        loop {
            match client.send_batch(ns, chunk)? {
                Reply::Ok { accepted } => {
                    summary.sent += accepted as u64;
                    summary.batches += 1;
                    backoff.reset();
                    break;
                }
                Reply::RetryAfter { hint_ms } => {
                    summary.retries += 1;
                    let own = backoff.next_delay();
                    thread::sleep(own.max(Duration::from_millis(hint_ms as u64)));
                }
                Reply::Err { code, msg } => {
                    return Err(ClientError::Rejected {
                        code: code.as_u8(),
                        msg,
                    })
                }
                Reply::Status(_) | Reply::ShardReport(_) => {
                    return Err(ClientError::Wire(WireError::BadReplyTag(
                        crate::wire::TAG_STATUS,
                    )))
                }
            }
        }
    }
    Ok(summary)
}
