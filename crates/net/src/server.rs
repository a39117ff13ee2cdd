//! The server: concurrent framed-TCP connections feeding one bounded
//! queue. There is one accept loop, one per-connection loop and one
//! shutdown; an endpoint differs only in what it may do with a decoded
//! request. [`NetIngress`] admits event batches; [`StatusServer`] is the
//! same server in its read-only role — it answers `QUERY_STATUS` and
//! refuses everything else with [`ErrCode::ReadOnly`].
//!
//! Threading model: one accept thread, one OS thread per connection
//! (`std::net` blocking I/O — connection counts here are a handful of
//! event producers, not C10K), all funnelling into a single
//! [`BoundedQueue`] behind a mutex. The dispatch loop drains that queue
//! from its own thread via [`NetIngress::drive`], one admitted frame at a
//! time.
//!
//! Admission control is **atomic per batch**: an `EVENT_BATCH` either
//! fits in full beside the queued events and the frame in application,
//! and is enqueued, or nothing is enqueued and the client gets
//! `RETRY_AFTER` with a backoff-scheduled hint. All-or-nothing is what
//! makes client retry safe: a bounced batch left no partial prefix
//! behind, so resending it cannot double-admit, and every accepted event
//! is delivered exactly once without any deduplication state. The accept
//! loop itself never touches the queue, so saturation can never stall new
//! connections.
//!
//! Failure handling per connection: a payload that does not decode gets
//! an `ERR` reply and the connection *survives* (the CRC frame boundary
//! is intact, the stream is still in sync); a damaged frame (oversize
//! length or CRC mismatch) gets an `ERR` reply and the connection is
//! closed, because after a bad frame the byte stream cannot be
//! resynchronized. A read timeout closes the connection.

use crate::wire::{
    decode_request, encode_reply, read_message, write_message, ErrCode, FrameError, Reply, Request,
    Role, ShardReportInfo, StatusInfo,
};
use mbta_service::{Arrival, BoundedQueue, DeferBackoff, DropPolicy, OfferOutcome};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// Tuning knobs for [`NetIngress`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind (e.g. `127.0.0.1:7461`).
    pub addr: String,
    /// Ingress queue capacity (events). Batches larger than this are
    /// rejected outright as [`ErrCode::TooLarge`].
    pub queue_cap: usize,
    /// Per-connection read timeout; a client silent this long is
    /// disconnected.
    pub read_timeout: Duration,
    /// Base of the RETRY-AFTER hint schedule (milliseconds).
    pub retry_base_ms: u64,
    /// Cap of the RETRY-AFTER hint schedule (milliseconds).
    pub retry_cap_ms: u64,
    /// Seed for hint jitter (per-connection streams are derived).
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_cap: 4096,
            read_timeout: Duration::from_secs(30),
            retry_base_ms: 5,
            retry_cap_ms: 500,
            seed: 0,
        }
    }
}

/// Lifetime counters of a [`NetIngress`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub conns: u64,
    /// Frames read across all connections.
    pub frames: u64,
    /// Events admitted into the ingress queue.
    pub accepted: u64,
    /// Batches bounced with `RETRY_AFTER`.
    pub retry_after: u64,
    /// Malformed payloads and damaged frames rejected.
    pub malformed: u64,
    /// Frame bytes read (headers + payloads).
    pub bytes_in: u64,
    /// Deepest the ingress queue has been.
    pub queue_high_watermark: usize,
}

/// How long [`NetIngress::drive`] waits on an empty queue before it hands
/// its driver an idle tick and re-checks for the end of the stream.
const IDLE_TICK: Duration = Duration::from_millis(50);

/// The ingress queue plus one `(namespace, length)` entry per admitted
/// frame, in admission order: the lengths sum to the queue's depth, so
/// every queued arrival keeps its tenant. `in_flight` holds the length of
/// the frame [`NetIngress::drive`] is applying — it has left the queue but
/// still counts against the cap until `step` returns. All three are only
/// ever touched together under the queue mutex, so they cannot skew.
struct NsQueue {
    q: BoundedQueue,
    frames: VecDeque<(u32, usize)>,
    in_flight: usize,
}

struct Shared {
    /// As bound, with `queue_cap` clamped to at least 1.
    cfg: NetConfig,
    /// The read-only role: only `QUERY_STATUS` is answered.
    read_only: bool,
    queue: Mutex<NsQueue>,
    ready: Condvar,
    fin: AtomicBool,
    shutdown: AtomicBool,
    status: Mutex<StatusInfo>,
    report: Mutex<ShardReportInfo>,
    conns: AtomicU64,
    frames: AtomicU64,
    accepted: AtomicU64,
    retry_after: AtomicU64,
    malformed: AtomicU64,
    bytes_in: AtomicU64,
}

/// Adds `n` to one lifetime counter (`&AtomicU64`) and to its registry
/// twin `metric`, a literal: each call site keeps its own cached handle.
macro_rules! bump {
    ($stat:expr, $metric:literal, $n:expr $(,)?) => {{
        let n: u64 = $n;
        $stat.fetch_add(n, Ordering::Relaxed);
        mbta_telemetry::counter_add!($metric, n);
    }};
}

impl Shared {
    /// Admits the whole batch or nothing. The all-or-nothing check runs
    /// under the queue lock, so concurrent producers cannot interleave
    /// partial batches.
    fn admit(&self, ns: u32, events: &[Arrival], backoff: &mut DeferBackoff) -> Reply {
        let cap = self.cfg.queue_cap;
        if events.len() > cap {
            return Reply::Err {
                code: ErrCode::TooLarge,
                msg: format!("batch of {} exceeds queue capacity {cap}", events.len()),
            };
        }
        let mut nq = self.queue.lock().unwrap();
        if cap - nq.q.len() - nq.in_flight < events.len() {
            // Count one deferral for the bounced batch (not per event):
            // the queue's own counter feeds the service report. Crucially
            // nothing is enqueued — the batch is all-or-nothing, so the
            // client's identical resend stays exactly-once.
            nq.q.note_deferral();
            drop(nq);
            bump!(&self.retry_after, "mbta_net_retry_after_total", 1);
            return Reply::RetryAfter {
                hint_ms: backoff.next_delay().as_millis() as u32,
            };
        }
        for &a in events {
            let outcome = nq.q.offer(a);
            debug_assert_eq!(outcome, OfferOutcome::Accepted, "capacity checked above");
        }
        // Every entry covers at least one queued event, so an empty batch
        // leaves none: `pop_wait` and `drive` rely on it.
        if !events.is_empty() {
            nq.frames.push_back((ns, events.len()));
        }
        drop(nq);
        self.ready.notify_all();
        bump!(
            &self.accepted,
            "mbta_net_accepted_total",
            events.len() as u64,
        );
        backoff.reset();
        Reply::Ok {
            accepted: events.len() as u32,
        }
    }
}

/// A bound TCP ingress: accept loop + connection threads feeding one
/// bounded queue. See the module docs for the protocol and policies.
pub struct NetIngress {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_handle: Option<thread::JoinHandle<()>>,
}

impl NetIngress {
    /// Binds `cfg.addr` and starts accepting connections immediately.
    /// Events pile into the internal queue until the owner drains them
    /// with [`NetIngress::drive`] (or [`NetIngress::pop_wait`]).
    pub fn bind(cfg: NetConfig) -> io::Result<NetIngress> {
        let status = StatusInfo {
            role: Role::Primary,
            watermark: 0,
            assignments: 0,
            total_weight: 0.0,
        };
        NetIngress::start(cfg, false, status)
    }

    /// The one constructor: binds, then serves in the given role.
    fn start(mut cfg: NetConfig, read_only: bool, status: StatusInfo) -> io::Result<NetIngress> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        cfg.queue_cap = cfg.queue_cap.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(NsQueue {
                q: BoundedQueue::new(cfg.queue_cap, DropPolicy::Defer),
                frames: VecDeque::new(),
                in_flight: 0,
            }),
            cfg,
            read_only,
            ready: Condvar::new(),
            fin: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            status: Mutex::new(status),
            report: Mutex::new(ShardReportInfo::default()),
            conns: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            retry_after: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("mbta-net-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(NetIngress {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Waits up to `timeout` for the queue to hold an event; the guard
    /// comes back either way.
    fn wait_nonempty(&self, timeout: Duration) -> MutexGuard<'_, NsQueue> {
        let nq = self.shared.queue.lock().unwrap();
        let ready = &self.shared.ready;
        let (nq, _) = ready
            .wait_timeout_while(nq, timeout, |nq| nq.q.is_empty())
            .unwrap();
        nq
    }

    /// Pops the oldest admitted event and its namespace, waiting up to
    /// `timeout` for one to arrive. `None` on timeout. Single-tenant
    /// loops can ignore the namespace (their clients always send ns 0).
    pub fn pop_wait(&self, timeout: Duration) -> Option<(u32, Arrival)> {
        let mut nq = self.wait_nonempty(timeout);
        let a = nq.q.pop()?;
        let head = nq.frames.front_mut().expect("frames cover the queue");
        let ns = head.0;
        head.1 -= 1;
        if head.1 == 0 {
            nq.frames.pop_front();
        }
        Some((ns, a))
    }

    /// Runs the stream to its end — the one statement of the
    /// end-of-stream rule. Every admitted frame is handed to `step` whole,
    /// as its namespace and its events, in admission order, one queue lock
    /// per frame. An empty frame (namespace 0) is an idle tick, handed
    /// over each time 50 ms pass with the queue empty (where a drive loop
    /// pumps, beats and publishes). The frame being applied counts
    /// against `queue_cap` until `step` returns, so admitted but
    /// unapplied events never exceed the cap. Returns once a client has
    /// sent `FIN` and the queue is drained, or with `step`'s first error.
    pub fn drive<E>(
        &self,
        mut step: impl FnMut(u32, &[Arrival]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut frame: Vec<Arrival> = Vec::new();
        loop {
            let mut nq = self.wait_nonempty(IDLE_TICK);
            let (ns, len) = nq.frames.pop_front().unwrap_or((0, 0));
            frame.clear();
            frame.extend((0..len).map(|_| nq.q.pop().expect("frames cover the queue")));
            nq.in_flight = len;
            drop(nq);
            let applied = step(ns, &frame);
            self.shared.queue.lock().unwrap().in_flight = 0;
            applied?;
            if frame.is_empty() && self.is_drained() {
                return Ok(());
            }
        }
    }

    /// Whether any client has sent `FIN`.
    pub fn fin_received(&self) -> bool {
        self.shared.fin.load(Ordering::Acquire)
    }

    /// Whether the stream is over: `FIN` seen, the queue drained and no
    /// frame in application.
    pub fn is_drained(&self) -> bool {
        let nq = self.shared.queue.lock().unwrap();
        self.fin_received() && nq.q.is_empty() && nq.in_flight == 0
    }

    /// Publishes the state a `QUERY_STATUS` reply reports. Called by a
    /// drive loop once per applied frame and idle tick.
    pub fn set_status(&self, watermark: u64, assignments: usize, total_weight: f64) {
        let mut s = self.shared.status.lock().unwrap();
        s.watermark = watermark;
        s.assignments = assignments as u64;
        s.total_weight = total_weight;
    }

    /// Publishes the snapshot a `QUERY_REPORT` reply carries. Called by
    /// a shard-owner drive loop alongside [`NetIngress::set_status`], once
    /// per applied frame and idle tick.
    pub fn set_report(&self, report: ShardReportInfo) {
        *self.shared.report.lock().unwrap() = report;
    }

    /// Lifetime counters.
    pub fn stats(&self) -> NetStats {
        let q = self.shared.queue.lock().unwrap();
        NetStats {
            conns: self.shared.conns.load(Ordering::Relaxed),
            frames: self.shared.frames.load(Ordering::Relaxed),
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            retry_after: self.shared.retry_after.load(Ordering::Relaxed),
            malformed: self.shared.malformed.load(Ordering::Relaxed),
            bytes_in: self.shared.bytes_in.load(Ordering::Relaxed),
            queue_high_watermark: q.q.high_watermark(),
        }
    }

    /// Stops accepting, wakes the accept thread, and joins it. Live
    /// connection threads notice on their next read (timeout-bounded)
    /// and exit.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Poke the blocking accept() awake with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetIngress {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A minimal read-only endpoint — the server in its read-only role:
/// answers `QUERY_STATUS`, refuses everything else with
/// [`ErrCode::ReadOnly`]. Followers run one while tailing (and keep it
/// through promotion, with the role flipped).
pub struct StatusServer(NetIngress);

impl StatusServer {
    /// Binds `addr` and serves immediately.
    pub fn bind(addr: &str, initial: StatusInfo) -> io::Result<StatusServer> {
        // Nothing is ever admitted here, so the queue stays minimal.
        let cfg = NetConfig {
            addr: addr.to_string(),
            queue_cap: 1,
            read_timeout: Duration::from_secs(10),
            ..NetConfig::default()
        };
        NetIngress::start(cfg, true, initial).map(StatusServer)
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr
    }

    /// Publishes a new status (called as the follower applies records,
    /// and at promotion to flip the role).
    pub fn update(&self, status: StatusInfo) {
        *self.0.shared.status.lock().unwrap() = status;
    }

    /// Stops accepting and joins the accept thread.
    pub fn shutdown(&mut self) {
        self.0.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let id = shared.conns.fetch_add(1, Ordering::Relaxed);
        mbta_telemetry::counter_add!("mbta_net_conns_total", 1);
        let conn_shared = Arc::clone(&shared);
        let _ = thread::Builder::new()
            .name(format!("mbta-net-conn-{id}"))
            .spawn(move || handle_conn(stream, conn_shared, id));
    }
}

fn send_reply(stream: &mut TcpStream, reply: &Reply) -> io::Result<()> {
    write_message(stream, &encode_reply(reply))
}

fn handle_conn(mut stream: TcpStream, shared: Arc<Shared>, id: u64) {
    let cfg = &shared.cfg;
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let mut backoff = DeferBackoff::new(cfg.retry_base_ms, cfg.retry_cap_ms, cfg.seed ^ id);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let payload = match read_message(&mut reader) {
            Ok(p) => p,
            Err(FrameError::Oversize(_) | FrameError::Corrupt) => {
                // The stream is out of sync for good; say why, then close.
                bump!(&shared.malformed, "mbta_net_malformed_total", 1);
                let _ = send_reply(
                    &mut stream,
                    &Reply::Err {
                        code: ErrCode::Frame,
                        msg: "damaged frame; closing".to_string(),
                    },
                );
                return;
            }
            // Clean close, timeout or severed connection.
            Err(FrameError::Eof | FrameError::Io(_)) => return,
        };
        bump!(&shared.frames, "mbta_net_frames_total", 1);
        bump!(
            &shared.bytes_in,
            "mbta_net_bytes_total",
            payload.len() as u64 + 8,
        );
        let reply = match decode_request(&payload) {
            Ok(Request::QueryStatus) => Reply::Status(*shared.status.lock().unwrap()),
            Ok(_) if shared.read_only => Reply::Err {
                code: ErrCode::ReadOnly,
                msg: "read-only endpoint: status queries only".to_string(),
            },
            Ok(Request::EventBatch { ns, events }) => shared.admit(ns, &events, &mut backoff),
            Ok(Request::Fin) => {
                shared.fin.store(true, Ordering::Release);
                // Wake a drainer parked on an empty queue so it can
                // observe the fin.
                shared.ready.notify_all();
                let _ = send_reply(&mut stream, &Reply::Ok { accepted: 0 });
                return;
            }
            Ok(Request::QueryReport) => Reply::ShardReport(*shared.report.lock().unwrap()),
            Err(e) => {
                // The frame was intact — only its payload is garbage — so
                // the stream is still in sync and the connection survives.
                bump!(&shared.malformed, "mbta_net_malformed_total", 1);
                Reply::Err {
                    code: ErrCode::Payload,
                    msg: e.to_string(),
                }
            }
        };
        if send_reply(&mut stream, &reply).is_err() {
            return;
        }
    }
}
