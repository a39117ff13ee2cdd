//! The `cluster_tcp` driver: router + shard owners over loopback TCP.
//!
//! Everything runs inside this process on real sockets
//! (`router::spawn`, `worker::spawn`), driven by one closed-loop client
//! connection per tenant. The clock covers first frame to router join:
//! client socket, router admission, forward, owner apply, WAL, report
//! poll and FIN drain.
//!
//! The router admits into an unbounded forwarding channel, so the clients
//! finish sending within tens of milliseconds and the events are applied
//! over the following second. The latency a user of the cluster sees is
//! therefore frame first sent to *its events applied by the owners*; a
//! bench thread reads that off the owners' `QUERY_REPORT` event counts,
//! polled every [`POLL_EVERY`]. The admission round trip (frame to `OK`)
//! is kept as a per-layer number.

use crate::inputs::{self, Inputs};
use crate::mirror::{oracle_optimum, Mirror};
use crate::spans::{Tracer, ROOT};
use crate::spec::{Workload, FRAME_EVENTS};
use crate::verify::{benefit_sums, mutual_balance};
use mbta_cluster::{router, worker, RouterConfig, RouterSummary, WorkerConfig, WorkerSummary};
use mbta_graph::{EdgeId, TaskId, WorkerId};
use mbta_net::{Client, Reply, Request};
use mbta_service::{recover, Arrival, BudgetMode, DeferBackoff};
use mbta_telemetry::{RegistryDiff, Snapshot};
use mbta_workload::TraceFile;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long the driver waits for sockets and owners before giving up.
const PATIENCE: Duration = Duration::from_secs(30);

/// Interval (and so resolution) of the applied-count poll: coarse enough
/// to cost the two cores about 1%, fine against latencies of 100+ ms.
pub const POLL_EVERY: Duration = Duration::from_millis(2);

/// Everything one timed cluster pass measured.
pub struct ClusterUnit {
    /// Generation, trace files, spawn and owner readiness.
    pub setup_s: f64,
    /// `worker::spawn` x owners + `router::spawn`.
    pub spawn_s: f64,
    /// First frame sent to router join returned.
    pub wall_s: f64,
    /// First frame sent to last `OK` received.
    pub send_s: f64,
    /// FIN sent to router join returned.
    pub fin_drain_s: f64,
    /// Per frame: first sent to its events applied by the owners.
    pub frame_latency_s: Vec<f64>,
    /// Per frame: first sent to `OK` (router admission), retries included.
    pub admission_s: Vec<f64>,
    /// Events the clients sent.
    pub offered: u64,
    /// The router's accounting.
    pub router: RouterSummary,
    /// Per-owner summaries.
    pub workers: Vec<WorkerSummary>,
    /// Total weight of the recovered final matchings.
    pub value: f64,
    /// Exact optimum of the tenants' final markets.
    pub optimum: f64,
    /// `min(sum rb, sum wb) / max(..)` over the final matchings.
    pub balance: f64,
    /// Matchings the owners' WALs recover to that break capacity, hold an
    /// inactive endpoint, or disagree with the owners' own reports.
    pub rejected: u64,
    /// Registry counters and histograms accrued by the pass.
    pub registry: Snapshot,
    /// The span record (traced passes only).
    pub tracer: Option<Tracer>,
}

impl ClusterUnit {
    /// Events the owners applied per wall second.
    pub fn events_per_sec(&self) -> f64 {
        self.router.forwarded as f64 / self.wall_s
    }

    /// The router's conservation law holds and the owners applied exactly
    /// what it forwarded.
    pub fn conserved(&self) -> bool {
        self.router.conserved()
            && self.workers.iter().map(|w| w.events).sum::<u64>() == self.router.forwarded
    }

    /// Operations that failed (see `drive::Unit::failed`).
    pub fn failed(&self) -> u64 {
        let r = &self.router;
        let owners: u64 = self
            .workers
            .iter()
            .map(|w| w.violations() + w.foreign_events() + w.unknown_namespace)
            .sum();
        r.degraded
            + r.invalid
            + r.cross_benefit
            + r.unknown_namespace
            + self.offered.saturating_sub(r.admitted)
            + owners
            + self.rejected
            + u64::from(!self.conserved())
    }
}

/// One frame on the wire: first sent, `OK` received, events carried.
#[derive(Debug, Clone, Copy)]
struct Frame {
    first_sent: Instant,
    acked: Instant,
    events: u64,
}

/// Sends one tenant's events over one connection, closed loop, and
/// returns its frames.
fn send_tenant(addr: &str, ns: u32, events: &[Arrival]) -> Result<Vec<Frame>, String> {
    let mut client =
        Client::connect_retry(addr, PATIENCE).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut backoff = DeferBackoff::new(5, 500, u64::from(ns));
    let mut frames = Vec::with_capacity(events.len() / FRAME_EVENTS + 1);
    for chunk in events.chunks(FRAME_EVENTS) {
        let req = Request::EventBatch {
            ns,
            events: chunk.to_vec(),
        };
        let first = Instant::now();
        loop {
            match client.request(&req).map_err(|e| format!("ns {ns}: {e}"))? {
                Reply::Ok { .. } => {
                    backoff.reset();
                    break;
                }
                Reply::RetryAfter { hint_ms } => {
                    let own = backoff.next_delay();
                    std::thread::sleep(own.max(Duration::from_millis(u64::from(hint_ms))));
                }
                other => return Err(format!("ns {ns}: unexpected reply {other:?}")),
            }
        }
        frames.push(Frame {
            first_sent: first,
            acked: Instant::now(),
            events: chunk.len() as u64,
        });
    }
    Ok(frames)
}

/// Samples `(time, events applied by all owners)` every [`POLL_EVERY`]
/// until `total` are applied, `stop` is raised, or an owner goes away.
fn poll_applied(owners: &[String], total: u64, stop: &AtomicBool) -> Vec<(Instant, u64)> {
    let mut clients: Vec<Client> = owners
        .iter()
        .filter_map(|a| Client::connect_retry(a, PATIENCE).ok())
        .collect();
    let mut samples = Vec::new();
    while clients.len() == owners.len() && !stop.load(Ordering::Acquire) {
        let mut applied = 0u64;
        for c in &mut clients {
            match c.request(&Request::QueryReport) {
                Ok(Reply::ShardReport(info)) => applied += info.events,
                _ => return samples,
            }
        }
        samples.push((Instant::now(), applied));
        if applied >= total {
            break;
        }
        std::thread::sleep(POLL_EVERY);
    }
    samples
}

/// Per frame, seconds from first sent until the owners had applied as
/// many events as had been acknowledged up to and including that frame
/// (the horizontal distance between the cumulative sent and applied
/// curves). Frames the poll never saw applied get no sample.
fn applied_latency(logs: &[Vec<Frame>], samples: &[(Instant, u64)]) -> Vec<f64> {
    let mut frames: Vec<Frame> = logs.iter().flatten().copied().collect();
    frames.sort_by_key(|f| f.acked);
    let mut sent = 0u64;
    let mut next = 0usize;
    let mut out = Vec::with_capacity(frames.len());
    for f in frames {
        sent += f.events;
        while next < samples.len() && samples[next].1 < sent {
            next += 1;
        }
        let Some(&(at, _)) = samples.get(next) else {
            break;
        };
        out.push(at.saturating_duration_since(f.first_sent).as_secs_f64());
    }
    out
}

/// Blocks until owner `addr` has loaded its tenants and entered its
/// serve loop (its report then names the plan's shard count).
fn wait_ready(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    loop {
        let mut c =
            Client::connect_retry(addr, PATIENCE).map_err(|e| format!("connect {addr}: {e}"))?;
        if let Ok(Reply::ShardReport(info)) = c.request(&Request::QueryReport) {
            if info.n_shards > 0 {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("owner {addr} never became ready"));
        }
        std::thread::sleep(POLL_EVERY);
    }
}

/// Rebuilds each tenant's final matching from the owners' WAL
/// directories, checks it against the mirrored final market and the
/// owners' reports, and returns `(value, optimum, balance, rejected)`.
fn audit(
    tenants: &[Inputs],
    wal_roots: &[PathBuf],
    workers: &[WorkerSummary],
) -> (f64, f64, f64, u64) {
    let (mut value, mut optimum, mut rejected) = (0.0f64, 0.0f64, 0u64);
    let (mut rb, mut wb) = (0.0f64, 0.0f64);
    for (ns, t) in tenants.iter().enumerate() {
        let g = &t.graph;
        let mut mirror = Mirror::new(g, &t.weights);
        for a in &t.events {
            mirror.apply(&a.event);
        }
        optimum += oracle_optimum(g, &mirror.active_weights());
        let mut w_load = vec![0u32; g.n_workers()];
        let mut t_load = vec![0u32; g.n_tasks()];
        let mut edges: Vec<u32> = Vec::new();
        for (root, summary) in wal_roots.iter().zip(workers) {
            let Ok(rec) = recover(&root.join(format!("ns-{ns}"))) else {
                rejected += 1;
                continue;
            };
            let report = &summary.reports[ns];
            if rec.assignments() != report.final_assignments
                || (rec.total_weight() - report.final_value).abs()
                    > 1e-9 * report.final_value.abs().max(1.0)
            {
                rejected += 1;
            }
            edges.extend(rec.shards.iter().flatten());
        }
        edges.sort_unstable();
        if edges.windows(2).any(|p| p[0] == p[1]) {
            rejected += 1;
        }
        let known = edges.len();
        edges.retain(|&e| (e as usize) < g.n_edges());
        rejected += (known - edges.len()) as u64;
        for &e in &edges {
            let edge = EdgeId::new(e);
            if !mirror.edge_live(edge) {
                rejected += 1;
                continue;
            }
            value += mirror.weight(edge);
            w_load[g.worker_of(edge).index()] += 1;
            t_load[g.task_of(edge).index()] += 1;
        }
        rejected += g
            .workers()
            .filter(|&w: &WorkerId| w_load[w.index()] > g.capacity(w))
            .count() as u64;
        rejected += g
            .tasks()
            .filter(|&x: &TaskId| t_load[x.index()] > g.demand(x))
            .count() as u64;
        let (r, b) = benefit_sums(g, edges.iter().copied());
        rb += r;
        wb += b;
    }
    (value, optimum, mutual_balance(rb, wb), rejected)
}

/// Runs one timed pass of the cluster workload `w` under `seed`, keeping
/// every file inside `scratch`.
pub fn run_unit(
    w: &Workload,
    seed: u64,
    traced: bool,
    scratch: &Path,
) -> Result<ClusterUnit, String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let t_setup = Instant::now();
    let mut tenants = Vec::with_capacity(w.tenants);
    let mut traces = Vec::with_capacity(w.tenants);
    for i in 0..w.tenants {
        let t = inputs::generate(w, seed, i);
        let tf = TraceFile::new(t.spec, t.trace.clone()).map_err(|e| format!("tenant {i}: {e}"))?;
        let path = scratch.join(format!("tenant-{i}.trace"));
        std::fs::write(&path, tf.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
        traces.push(path);
        tenants.push(t);
    }

    let t_spawn = Instant::now();
    let wal_roots: Vec<PathBuf> = (0..w.shards)
        .map(|s| scratch.join(format!("owner-{s}")))
        .collect();
    let mut handles = Vec::with_capacity(w.shards);
    let mut owners = Vec::with_capacity(w.shards);
    for (s, root) in wal_roots.iter().enumerate() {
        let mut wc = WorkerConfig::new(traces.clone(), s, w.shards);
        wc.routing = w.routing;
        wc.online = w.online;
        wc.threads = w.threads;
        wc.budget_ms = match w.budget {
            BudgetMode::Wallclock(ms) => ms,
            BudgetMode::Deterministic => 0,
        };
        // Long enough for the router's 50 ms report poll to find the owner.
        wc.linger_ms = 150;
        if let Some(fsync) = w.wal {
            wc.wal_dir = Some(root.clone());
            wc.fsync = fsync;
        }
        let h = worker::spawn(wc)?;
        owners.push(h.addr().to_string());
        handles.push(h);
    }
    let mut rc = RouterConfig::new(traces.clone(), owners.clone());
    rc.routing = w.routing;
    let rh = router::spawn(rc)?;
    let addr = rh.addr().to_string();
    let spawn_s = t_spawn.elapsed().as_secs_f64();
    for owner in &owners {
        wait_ready(owner)?;
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut diff = RegistryDiff::new();
    diff.advance(mbta_telemetry::global().snapshot());
    let offered: u64 = tenants.iter().map(|t| t.events.len() as u64).sum();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (logs, send_end, router, end, samples) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| poll_applied(&owners, offered, &stop));
        let senders: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(ns, t)| {
                let addr = addr.as_str();
                scope.spawn(move || send_tenant(addr, ns as u32, &t.events))
            })
            .collect();
        let logs: Vec<Result<Vec<Frame>, String>> = senders
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("sender panicked".into())))
            .collect();
        let send_end = Instant::now();
        let router = Client::connect_retry(&addr, PATIENCE)
            .map_err(|e| format!("FIN connect: {e}"))
            .and_then(|mut fin| {
                fin.request(&Request::Fin)
                    .map_err(|e| format!("FIN failed: {e}"))
            })
            .and_then(|_| rh.join());
        let end = Instant::now();
        // The poll ends by itself once everything is applied; the flag
        // only matters when events went missing.
        stop.store(true, Ordering::Release);
        let samples = poller.join().unwrap_or_default();
        (logs, send_end, router, end, samples)
    });
    let router = router?;
    let registry = diff.advance(mbta_telemetry::global().snapshot());

    let workers: Vec<WorkerSummary> = handles
        .into_iter()
        .map(|h| h.join())
        .collect::<Result<_, _>>()?;
    let logs: Vec<Vec<Frame>> = logs.into_iter().collect::<Result<_, _>>()?;

    let mut tracer = traced.then(Tracer::new);
    if let Some(tr) = tracer.as_mut() {
        let run = tr.open(ROOT, "run", start, 0);
        for (ns, frames) in logs.iter().enumerate() {
            let send = tr.open(run, "send", start, ns as u64);
            for (i, f) in frames.iter().enumerate() {
                tr.record(send, "frame", f.first_sent, f.acked, i as u64);
            }
            tr.close(send, frames.last().map_or(start, |f| f.acked));
        }
        tr.record(run, "fin_drain", send_end, end, 0);
        tr.close(run, end);
    }

    let (value, optimum, balance, rejected) = audit(&tenants, &wal_roots, &workers);
    let unit = ClusterUnit {
        setup_s,
        spawn_s,
        wall_s: (end - start).as_secs_f64(),
        send_s: (send_end - start).as_secs_f64(),
        fin_drain_s: (end - send_end).as_secs_f64(),
        frame_latency_s: applied_latency(&logs, &samples),
        admission_s: logs
            .iter()
            .flatten()
            .map(|f| (f.acked - f.first_sent).as_secs_f64())
            .collect(),
        offered,
        router,
        workers,
        value,
        optimum,
        balance,
        rejected,
        registry,
        tracer,
    };
    Ok(unit)
}
