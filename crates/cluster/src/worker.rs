//! The shard-owner worker: one process, one shard, N tenant namespaces.
//!
//! A worker binds a `mbta-net` ingress, reconstructs every tenant's
//! universe and plan from the shared topology, and runs one
//! [`DispatchService`] per namespace with
//! [`ServiceConfig::owned_shard`] pinned to its shard. Events arrive
//! already routed by the router; the service re-routes on arrival, so a
//! misrouted event lands in the `foreign_events` counter instead of a
//! foreign shard's state. Each namespace gets its own WAL subdirectory
//! (`<wal_dir>/ns-<i>`) and its own decision log — tenants share the
//! process, never dispatch state.
//!
//! After the FIN drain the worker publishes its final [`ShardReportInfo`]
//! and *lingers* for a configurable window, still answering
//! `QUERY_REPORT`, so the router can confirm delivery counts before the
//! process exits.
//!
//! [`DispatchService`]: mbta_service::DispatchService
//! [`ServiceConfig::owned_shard`]: mbta_service::ServiceConfig::owned_shard

use crate::topology::{build_plans, load_tenants};
use mbta_net::{NetConfig, NetIngress, ShardReportInfo};
use mbta_service::{
    BatchStats, BudgetMode, Decision, DecisionSink, DispatchService, FsyncPolicy, NullSink,
    OfferOutcome, OnlineConfig, Routing, ServiceConfig, ServiceReport, StoreConfig, WriteSink,
};
use mbta_store::store::DurableStore;
use std::io::{BufWriter, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shard-owner worker configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerConfig {
    /// Listen address (`127.0.0.1:0` binds an ephemeral port).
    pub listen: String,
    /// The one shard this worker owns.
    pub shard: usize,
    /// Total shards in the cluster plan.
    pub n_shards: usize,
    /// Task-to-shard routing (must match the router's).
    pub routing: Routing,
    /// Ordered tenant trace list (must match the router's).
    pub traces: Vec<PathBuf>,
    /// Optional placement file pinning the plans.
    pub placements: Option<PathBuf>,
    /// Per-owner WAL root; namespace `i` journals under `ns-<i>`.
    pub wal_dir: Option<PathBuf>,
    /// WAL fsync policy.
    pub fsync: FsyncPolicy,
    /// Group-commit window (records per combined WAL write).
    pub group_commit: u64,
    /// Snapshot cadence in committed batches (`0` = final only).
    pub snapshot_every: u64,
    /// Ingress queue capacity.
    pub queue_cap: usize,
    /// Solver threads per service (`0` = available parallelism).
    pub threads: usize,
    /// Per-event online dispatch with this drift threshold, instead of
    /// micro-batching.
    pub online: Option<f64>,
    /// Per-batch wall-clock solve budget; `0` = deterministic (exact).
    pub budget_ms: u64,
    /// How long to keep answering `QUERY_REPORT` after the FIN drain.
    pub linger_ms: u64,
    /// Directory for per-namespace decision logs (`ns-<i>.log`).
    pub decisions_dir: Option<PathBuf>,
    /// Capture per-namespace decision logs in the summary (tests).
    pub collect_decisions: bool,
}

impl WorkerConfig {
    /// A worker for `shard` of `n_shards` over the given tenant list,
    /// with defaults matching the single-process `serve` path.
    pub fn new(traces: Vec<PathBuf>, shard: usize, n_shards: usize) -> WorkerConfig {
        WorkerConfig {
            listen: "127.0.0.1:0".to_string(),
            shard,
            n_shards,
            routing: Routing::HashId,
            traces,
            placements: None,
            wal_dir: None,
            fsync: FsyncPolicy::Batch,
            group_commit: 1,
            snapshot_every: 0,
            queue_cap: 4096,
            threads: 0,
            online: None,
            budget_ms: 50,
            linger_ms: 3000,
            decisions_dir: None,
            collect_decisions: false,
        }
    }
}

/// What a worker run produced.
#[derive(Debug)]
pub struct WorkerSummary {
    /// The shard this worker owned.
    pub shard: usize,
    /// Per-namespace service reports, in namespace order.
    pub reports: Vec<ServiceReport>,
    /// Events popped from the ingress across all namespaces.
    pub events: u64,
    /// Events carrying a namespace id outside the tenant list (dropped).
    pub unknown_namespace: u64,
    /// Per-namespace decision logs, when
    /// [`WorkerConfig::collect_decisions`] was set (empty otherwise).
    pub decision_logs: Vec<Vec<u8>>,
}

impl WorkerSummary {
    /// Capacity violations summed across namespaces.
    pub fn violations(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.capacity_violations as u64)
            .sum()
    }

    /// Foreign (misrouted) events summed across namespaces.
    pub fn foreign_events(&self) -> u64 {
        self.reports.iter().map(|r| r.foreign_events).sum()
    }
}

/// A worker running on a background thread.
pub struct WorkerHandle {
    addr: SocketAddr,
    thread: JoinHandle<Result<WorkerSummary, String>>,
}

impl WorkerHandle {
    /// The bound ingress address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the worker to drain and finish.
    pub fn join(self) -> Result<WorkerSummary, String> {
        self.thread
            .join()
            .unwrap_or_else(|_| Err("worker thread panicked".into()))
    }
}

/// Binds the ingress, then runs the worker on a background thread.
///
/// Binding happens before the thread starts so the caller has the
/// ephemeral address immediately — the in-process tests and the client
/// simulator wire topologies together this way.
pub fn spawn(cfg: WorkerConfig) -> Result<WorkerHandle, String> {
    let ingress = bind(&cfg)?;
    let addr = ingress.local_addr();
    let thread = std::thread::spawn(move || run_with_ingress(cfg, ingress));
    Ok(WorkerHandle { addr, thread })
}

/// Runs a worker to completion on the calling thread, reporting the bound
/// address through `on_ready` before serving (the CLI prints it so shell
/// scripts can capture ephemeral ports).
pub fn run(cfg: WorkerConfig, on_ready: impl FnOnce(SocketAddr)) -> Result<WorkerSummary, String> {
    let ingress = bind(&cfg)?;
    on_ready(ingress.local_addr());
    run_with_ingress(cfg, ingress)
}

fn bind(cfg: &WorkerConfig) -> Result<NetIngress, String> {
    if cfg.shard >= cfg.n_shards {
        return Err(format!(
            "shard {} out of range for {} shards",
            cfg.shard, cfg.n_shards
        ));
    }
    NetIngress::bind(NetConfig {
        addr: cfg.listen.clone(),
        queue_cap: cfg.queue_cap,
        seed: cfg.shard as u64,
        ..NetConfig::default()
    })
    .map_err(|e| format!("cannot bind {}: {e}", cfg.listen))
}

/// Per-namespace decision sink: memory capture, file log, or discard.
enum WorkerSink {
    Null(NullSink),
    Collect(WriteSink<Vec<u8>>),
    File(WriteSink<BufWriter<std::fs::File>>),
}

impl DecisionSink for WorkerSink {
    fn on_batch(&mut self, stats: &BatchStats, decisions: &[Decision]) {
        match self {
            WorkerSink::Null(s) => s.on_batch(stats, decisions),
            WorkerSink::Collect(s) => s.on_batch(stats, decisions),
            WorkerSink::File(s) => s.on_batch(stats, decisions),
        }
    }
}

fn run_with_ingress(cfg: WorkerConfig, ingress: NetIngress) -> Result<WorkerSummary, String> {
    let tenants = load_tenants(&cfg.traces)?;
    let plans = build_plans(
        &tenants,
        cfg.n_shards,
        cfg.routing,
        cfg.placements.as_deref(),
    )?;

    let svc_cfg = ServiceConfig {
        queue_cap: cfg.queue_cap,
        threads: cfg.threads,
        budget: if cfg.budget_ms == 0 {
            BudgetMode::Deterministic
        } else {
            BudgetMode::Wallclock(cfg.budget_ms)
        },
        online: cfg
            .online
            .map(|drift_threshold| OnlineConfig { drift_threshold }),
        owned_shard: Some(cfg.shard),
        ..ServiceConfig::default()
    };

    let mut svcs: Vec<DispatchService> = tenants
        .iter()
        .zip(&plans)
        .map(|(t, plan)| DispatchService::new(&t.graph, plan, svc_cfg.clone()))
        .collect();

    if let Some(root) = &cfg.wal_dir {
        for (i, svc) in svcs.iter_mut().enumerate() {
            let dir = root.join(format!("ns-{i}"));
            // A fresh run per invocation: recovery agreement is checked
            // offline with `mbta recover` against the same WAL dir.
            let (store, _recovered) = DurableStore::open(
                &dir,
                StoreConfig {
                    fsync: cfg.fsync,
                    snapshot_every: cfg.snapshot_every,
                    group_every: cfg.group_commit,
                    ..StoreConfig::default()
                },
            )
            .map_err(|e| format!("cannot open WAL dir {}: {e}", dir.display()))?;
            svc.attach_store(store);
        }
    }

    let mut sinks: Vec<WorkerSink> = (0..svcs.len())
        .map(|i| {
            if cfg.collect_decisions {
                Ok(WorkerSink::Collect(WriteSink::new(Vec::new())))
            } else if let Some(dir) = &cfg.decisions_dir {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
                let path = dir.join(format!("ns-{i}.log"));
                let file = std::fs::File::create(&path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
                Ok(WorkerSink::File(WriteSink::new(BufWriter::new(file))))
            } else {
                Ok(WorkerSink::Null(NullSink))
            }
        })
        .collect::<Result<_, String>>()?;

    let mut popped: u64 = 0;
    let mut unknown_namespace: u64 = 0;
    loop {
        match ingress.pop_wait(Duration::from_millis(50)) {
            Some((ns, a)) => {
                let i = ns as usize;
                if i >= svcs.len() {
                    unknown_namespace += 1;
                } else {
                    popped += 1;
                    while let OfferOutcome::Deferred = svcs[i].offer(a) {
                        svcs[i].pump(&mut sinks[i]);
                    }
                    svcs[i].pump(&mut sinks[i]);
                }
            }
            None => {
                for (svc, sink) in svcs.iter_mut().zip(sinks.iter_mut()) {
                    svc.pump(sink);
                }
                if ingress.fin_received() && ingress.is_drained() {
                    break;
                }
            }
        }
        publish_live(&ingress, &cfg, &svcs, popped);
    }

    let reports: Vec<ServiceReport> = svcs
        .into_iter()
        .zip(sinks.iter_mut())
        .map(|(svc, sink)| svc.finish(sink))
        .collect();

    ingress.set_report(ShardReportInfo {
        shard: cfg.shard as u32,
        n_shards: cfg.n_shards as u32,
        poisoned: false,
        namespaces: reports.len() as u32,
        events: popped,
        foreign_events: reports.iter().map(|r| r.foreign_events).sum(),
        decisions: reports.iter().map(|r| r.decisions).sum(),
        assignments: reports.iter().map(|r| r.final_assignments as u64).sum(),
        total_weight: reports.iter().map(|r| r.final_value).sum(),
    });

    // Linger so the router can poll the final report before we exit.
    let deadline = Instant::now() + Duration::from_millis(cfg.linger_ms);
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }

    let decision_logs = sinks
        .into_iter()
        .map(|sink| match sink {
            WorkerSink::Collect(s) => {
                if let Some(e) = &s.error {
                    return Err(format!("decision log write failed: {e}"));
                }
                Ok(s.into_inner())
            }
            WorkerSink::File(s) => {
                if let Some(e) = &s.error {
                    return Err(format!("decision log write failed: {e}"));
                }
                s.into_inner()
                    .flush()
                    .map_err(|e| format!("decision log flush failed: {e}"))?;
                Ok(Vec::new())
            }
            WorkerSink::Null(_) => Ok(Vec::new()),
        })
        .collect::<Result<Vec<_>, String>>()?;

    Ok(WorkerSummary {
        shard: cfg.shard,
        reports,
        events: popped,
        unknown_namespace,
        decision_logs,
    })
}

fn publish_live(ingress: &NetIngress, cfg: &WorkerConfig, svcs: &[DispatchService], popped: u64) {
    let assignments: usize = svcs.iter().map(|s| s.current_assignments()).sum();
    let total_weight: f64 = svcs.iter().map(|s| s.current_value()).sum();
    let batches: u64 = svcs.iter().map(|s| s.batches_committed()).sum();
    ingress.set_status(batches, assignments, total_weight);
    ingress.set_report(ShardReportInfo {
        shard: cfg.shard as u32,
        n_shards: cfg.n_shards as u32,
        poisoned: false,
        namespaces: svcs.len() as u32,
        events: popped,
        foreign_events: 0,
        decisions: 0,
        assignments: assignments as u64,
        total_weight,
    });
}
