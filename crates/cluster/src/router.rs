//! The cluster router: admission, placement-based routing, owner fan-out.
//!
//! The router owns the client-facing endpoint. Admission reuses the
//! `mbta-net` ingress — bounded queue, all-or-nothing batch pushes,
//! RETRY-AFTER backpressure — so a client's event is either admitted
//! exactly once or never admitted at all. Each admitted frame's events
//! are routed with its namespace's [`ShardPlan`] (the same node→shard
//! maps the workers hold) and handed, one message per owner per frame,
//! to the owning shards' sender threads, which batch and forward them
//! over persistent connections.
//!
//! Forwarding is at-least-once: a reply lost to a broken connection is
//! retried after reconnecting. A send failure that outlives the reconnect
//! window (`owner_retry_ms`) marks the shard *poisoned* — a `POISONED`
//! line is printed, buffered and subsequent events for that shard are
//! counted as degraded — but not forever: the sender keeps probing the
//! owner address (at most once per [`PROBE_INTERVAL`]) and resumes
//! forwarding the moment a probe connects, so a restarted owner rejoins
//! the cluster without router intervention. Events degraded during the
//! outage stay degraded; only the flag clears. Cross-shard benefit
//! updates are dropped and counted here (single-shard owners cannot
//! apply them; the boundary-rescue overlay is a single-process
//! construct), matching the online path's `CrossBenefit` accounting.
//!
//! On FIN the router flushes every sender, FINs the live owners, and polls
//! `QUERY_REPORT` until each owner's admitted-event count matches what was
//! forwarded to it (or a deadline passes), so the final report reflects
//! fully-drained owners.
//!
//! [`ShardPlan`]: mbta_service::ShardPlan

use crate::process::{self, shard_report, Handle};
use crate::topology::{build_plans, load_tenants, save_plans};
use mbta_net::{Client, NetConfig, NetIngress, Reply, Request, ShardReportInfo};
use mbta_service::{Arrival, Route, Routing};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Router configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Client-facing listen address (`127.0.0.1:0` binds an ephemeral
    /// port).
    pub listen: String,
    /// Owner addresses, indexed by shard id (`len` = shard count).
    pub owners: Vec<String>,
    /// Ordered tenant trace list (must match the workers').
    pub traces: Vec<PathBuf>,
    /// Task-to-shard routing (must match the workers').
    pub routing: Routing,
    /// Optional placement file pinning the plans.
    pub placements: Option<PathBuf>,
    /// Export the built plans to this placement file before serving.
    pub save_placements: Option<PathBuf>,
    /// Admission queue capacity.
    pub queue_cap: usize,
    /// Events per forwarded `EVENT_BATCH` frame.
    pub batch: usize,
    /// Reconnect window before a failing owner poisons its shard.
    pub owner_retry_ms: u64,
    /// Max wait for each owner's final report after FIN.
    pub report_wait_ms: u64,
}

impl RouterConfig {
    /// A router over the given owner list and tenant traces, with
    /// defaults sized for the in-process bench and CI topologies.
    pub fn new(traces: Vec<PathBuf>, owners: Vec<String>) -> RouterConfig {
        RouterConfig {
            listen: "127.0.0.1:0".to_string(),
            owners,
            traces,
            routing: Routing::HashId,
            placements: None,
            save_placements: None,
            queue_cap: 4096,
            batch: 128,
            owner_retry_ms: 2000,
            report_wait_ms: 10_000,
        }
    }
}

/// What a router run produced.
#[derive(Debug)]
pub struct RouterSummary {
    /// Events admitted from clients (exactly-once).
    pub admitted: u64,
    /// Events accepted by owners (at-least-once forwarding).
    pub forwarded: u64,
    /// Events degraded because their shard was poisoned.
    pub degraded: u64,
    /// Events dropped as malformed (unknown ids, bad weights).
    pub invalid: u64,
    /// Cross-shard benefit updates dropped (counted, never applied).
    pub cross_benefit: u64,
    /// Events carrying a namespace id outside the tenant list.
    pub unknown_namespace: u64,
    /// Final poisoned flag per shard.
    pub poisoned: Vec<bool>,
    /// Final per-owner reports (`None` for poisoned/unreachable owners).
    pub owner_reports: Vec<Option<ShardReportInfo>>,
    /// Events forwarded per owner (the FIN drain target).
    pub per_owner_sent: Vec<u64>,
}

impl RouterSummary {
    /// True when every admitted event was either applied by an owner or
    /// explicitly accounted (degraded / invalid / cross / unknown-ns).
    pub fn conserved(&self) -> bool {
        self.admitted
            == self.forwarded
                + self.degraded
                + self.invalid
                + self.cross_benefit
                + self.unknown_namespace
    }
}

/// A router running on a background thread.
pub type RouterHandle = Handle<RouterSummary>;

/// Binds the client endpoint, then runs the router on a background
/// thread; the handle has the (possibly ephemeral) address immediately.
pub fn spawn(cfg: RouterConfig) -> Result<RouterHandle, String> {
    process::spawn(net_config(&cfg), move |ingress| serve(cfg, ingress))
}

/// Runs the router to completion on the calling thread, reporting the
/// bound address through `on_ready` before serving.
pub fn run(cfg: RouterConfig, on_ready: impl FnOnce(SocketAddr)) -> Result<RouterSummary, String> {
    process::run(net_config(&cfg), on_ready, |ingress| serve(cfg, ingress))
}

fn net_config(cfg: &RouterConfig) -> Result<NetConfig, String> {
    if cfg.owners.is_empty() {
        return Err("need at least one owner address".into());
    }
    Ok(NetConfig {
        addr: cfg.listen.clone(),
        queue_cap: cfg.queue_cap,
        ..NetConfig::default()
    })
}

/// Minimum spacing between reconnect probes to a poisoned owner. Keeps
/// the degrade path fast (no per-flush connect attempts against a dead
/// address) while bounding how long a restarted owner waits to rejoin.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(500);

/// State shared between the main loop and one owner's sender thread.
#[derive(Default)]
struct OwnerShared {
    poisoned: AtomicBool,
    sent: AtomicU64,
    degraded: AtomicU64,
}

enum SenderMsg {
    /// One admitted frame's events routed to this owner, in order.
    Frame(u32, Vec<Arrival>),
    Finish,
}

fn serve(cfg: RouterConfig, ingress: NetIngress) -> Result<RouterSummary, String> {
    let tenants = load_tenants(&cfg.traces)?;
    let n_shards = cfg.owners.len();
    let plans = build_plans(&tenants, n_shards, cfg.routing, cfg.placements.as_deref())?;
    if let Some(path) = &cfg.save_placements {
        save_plans(&plans, path)
            .map_err(|e| format!("cannot save placements {}: {e}", path.display()))?;
    }
    let n_ns = tenants.len();
    drop(tenants); // the router only needs the plans

    let shared: Vec<Arc<OwnerShared>> = (0..n_shards).map(|_| Arc::default()).collect();

    let mut txs = Vec::with_capacity(n_shards);
    let mut senders = Vec::with_capacity(n_shards);
    for (s, addr) in cfg.owners.iter().enumerate() {
        let (tx, rx) = mpsc::channel::<SenderMsg>();
        let link = OwnerLink {
            shard: s,
            addr: addr.clone(),
            n_ns,
            batch: cfg.batch.max(1),
            retry_window: Duration::from_millis(cfg.owner_retry_ms),
            report_wait: Duration::from_millis(cfg.report_wait_ms),
            shared: Arc::clone(&shared[s]),
            client: None,
            last_probe: None,
        };
        txs.push(tx);
        senders.push(std::thread::spawn(move || link.run(rx)));
    }

    let mut admitted: u64 = 0;
    let mut invalid: u64 = 0;
    let mut cross_benefit: u64 = 0;
    let mut unknown_namespace: u64 = 0;
    let mut channel_degraded: u64 = 0;
    let mut outs: Vec<Vec<Arrival>> = vec![Vec::new(); n_shards];
    ingress.drive(|ns, events| {
        admitted += events.len() as u64;
        match plans.get(ns as usize) {
            None => unknown_namespace += events.len() as u64,
            Some(plan) => {
                for &a in events {
                    match plan.route(&a.event) {
                        Route::Shard(s) => outs[s].push(a),
                        Route::CrossBenefit => cross_benefit += 1,
                        Route::Invalid => invalid += 1,
                    }
                }
            }
        }
        // One message per owner per frame. A dead sender thread can no
        // longer receive; its shard is (or is about to be) poisoned.
        for (tx, out) in txs.iter().zip(&mut outs) {
            let n = out.len() as u64;
            if n > 0 && tx.send(SenderMsg::Frame(ns, std::mem::take(out))).is_err() {
                channel_degraded += n;
            }
        }
        ingress.set_status(admitted, 0, 0.0);
        Ok::<(), String>(())
    })?;

    for tx in &txs {
        let _ = tx.send(SenderMsg::Finish);
    }
    drop(txs);
    let owner_reports: Vec<Option<ShardReportInfo>> = senders
        .into_iter()
        .map(|h| h.join().unwrap_or(None))
        .collect();

    let poisoned: Vec<bool> = shared
        .iter()
        .map(|s| s.poisoned.load(Ordering::SeqCst))
        .collect();
    let per_owner_sent: Vec<u64> = shared
        .iter()
        .map(|s| s.sent.load(Ordering::SeqCst))
        .collect();
    let forwarded: u64 = per_owner_sent.iter().sum();
    let degraded: u64 = shared
        .iter()
        .map(|s| s.degraded.load(Ordering::SeqCst))
        .sum::<u64>()
        + channel_degraded;

    let live = owner_reports.iter().flatten();
    ingress.set_report(shard_report(
        (0, n_shards),
        poisoned.iter().any(|&p| p),
        n_ns,
        admitted,
        live.clone().map(|r| r.foreign_events).sum(),
        live.map(|r| (r.decisions, r.assignments, r.total_weight)),
    ));

    Ok(RouterSummary {
        admitted,
        forwarded,
        degraded,
        invalid,
        cross_benefit,
        unknown_namespace,
        poisoned,
        owner_reports,
        per_owner_sent,
    })
}

/// One owner's sender: buffers per namespace, forwards batches, detects
/// death, and drains the final report after FIN.
struct OwnerLink {
    shard: usize,
    addr: String,
    n_ns: usize,
    batch: usize,
    retry_window: Duration,
    report_wait: Duration,
    shared: Arc<OwnerShared>,
    /// The persistent connection, when one is up.
    client: Option<Client>,
    /// When a poisoned owner was last probed.
    last_probe: Option<Instant>,
}

impl OwnerLink {
    fn run(mut self, rx: mpsc::Receiver<SenderMsg>) -> Option<ShardReportInfo> {
        let mut bufs: Vec<Vec<Arrival>> = vec![Vec::new(); self.n_ns];
        loop {
            match rx.recv_timeout(Duration::from_millis(5)) {
                Ok(SenderMsg::Frame(ns, events)) => {
                    let buf = &mut bufs[ns as usize];
                    for a in events {
                        buf.push(a);
                        if buf.len() >= self.batch {
                            self.flush(ns, buf);
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => self.flush_all(&mut bufs),
                Ok(SenderMsg::Finish) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                    self.flush_all(&mut bufs);
                    break;
                }
            }
        }
        if self.shared.poisoned.load(Ordering::SeqCst) {
            // Best-effort Fin so an owner that came back after the last
            // event (and was never probed again) still shuts down; a dead
            // address refuses instantly, so this never stalls the drain.
            if let Ok(mut c) = Client::connect(&self.addr, Duration::from_millis(200)) {
                let _ = c.request(&Request::Fin);
            }
            return None;
        }
        self.fin_and_report()
    }

    fn flush_all(&mut self, bufs: &mut [Vec<Arrival>]) {
        for (ns, buf) in bufs.iter_mut().enumerate() {
            self.flush(ns as u32, buf);
        }
    }

    /// Forwards one namespace's buffer, or counts it degraded: the owner
    /// is poisoned and not rejoining, or delivery fails past the retry
    /// window (which poisons it). Either way the buffer ends empty.
    fn flush(&mut self, ns: u32, buf: &mut Vec<Arrival>) {
        if buf.is_empty() {
            return;
        }
        let down = self.shared.poisoned.load(Ordering::SeqCst) && !self.try_rejoin();
        let delivered = if down {
            None
        } else {
            match self.deliver(ns, buf) {
                Ok(accepted) => Some(accepted),
                Err(reason) => {
                    self.shared.poisoned.store(true, Ordering::SeqCst);
                    println!(
                        "POISONED shard {}: owner {} unreachable ({reason}); degrading its events",
                        self.shard, self.addr
                    );
                    None
                }
            }
        };
        let shared = &self.shared;
        match delivered {
            Some(accepted) => shared.sent.fetch_add(accepted, Ordering::SeqCst),
            None => shared
                .degraded
                .fetch_add(buf.len() as u64, Ordering::SeqCst),
        };
        buf.clear();
    }

    /// One reconnect probe against a poisoned owner, rate-limited to
    /// [`PROBE_INTERVAL`]. A successful connect clears the poisoned flag
    /// and hands the fresh connection to the delivery path; a refused or
    /// skipped probe leaves the shard degrading.
    fn try_rejoin(&mut self) -> bool {
        if self
            .last_probe
            .is_some_and(|t| t.elapsed() < PROBE_INTERVAL)
        {
            return false;
        }
        self.last_probe = Some(Instant::now());
        let Ok(c) = Client::connect(&self.addr, Duration::from_millis(250)) else {
            return false;
        };
        self.client = Some(c);
        self.shared.poisoned.store(false, Ordering::SeqCst);
        println!(
            "shard {} owner {} rejoined; resuming forwarding",
            self.shard, self.addr
        );
        true
    }

    /// Sends one batch, reconnecting on failure until the retry window
    /// closes. RETRY-AFTER replies reset the window: a backpressuring
    /// owner is alive, not dead.
    fn deliver(&mut self, ns: u32, events: &[Arrival]) -> Result<u64, String> {
        let mut deadline = Instant::now() + self.retry_window;
        loop {
            if self.client.is_none() {
                match Client::connect(&self.addr, Duration::from_secs(5)) {
                    Ok(c) => self.client = Some(c),
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(format!("connect: {e}"));
                        }
                        std::thread::sleep(Duration::from_millis(50));
                        continue;
                    }
                }
            }
            let owner = self.client.as_mut().expect("client connected above");
            match owner.send_batch(ns, events) {
                Ok(Reply::Ok { accepted }) => return Ok(accepted as u64),
                Ok(Reply::RetryAfter { hint_ms }) => {
                    std::thread::sleep(Duration::from_millis(hint_ms.max(1) as u64));
                    deadline = Instant::now() + self.retry_window;
                }
                Ok(other) => return Err(format!("owner rejected batch: {other:?}")),
                Err(e) => {
                    self.client = None;
                    if Instant::now() >= deadline {
                        return Err(format!("send: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// FINs the owner, then polls its report until the admitted count
    /// matches what we forwarded (the owner lingers after finishing
    /// exactly so this poll can land).
    fn fin_and_report(mut self) -> Option<ShardReportInfo> {
        let sent = self.shared.sent.load(Ordering::SeqCst);
        if self.client.is_none() {
            self.client = Client::connect(&self.addr, Duration::from_secs(5)).ok();
        }
        if let Some(c) = self.client.as_mut() {
            let _ = c.request(&Request::Fin); // Fin reply closes the conn
        }
        let deadline = Instant::now() + self.report_wait;
        let mut last: Option<ShardReportInfo> = None;
        loop {
            if let Ok(mut c) = Client::connect(&self.addr, Duration::from_secs(5)) {
                if let Ok(Reply::ShardReport(info)) = c.request(&Request::QueryReport) {
                    let drained = info.events >= sent;
                    last = Some(info);
                    if drained {
                        return last;
                    }
                }
            }
            if Instant::now() >= deadline {
                return last;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}
