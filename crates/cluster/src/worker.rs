//! The shard-owner worker: one process, one shard, N tenant namespaces.
//!
//! A worker binds a `mbta-net` ingress, reconstructs every tenant's
//! universe and plan from the shared topology, and runs one ordinary
//! [`DispatchService`] per namespace. *Owning* a shard is nothing the
//! service knows about: it is what the router forwards here, plus one
//! safety check at this process boundary — an event whose plan route
//! names another shard is counted in `foreign_events` and never offered,
//! so a router/worker disagreement shows up as a counter instead of as a
//! foreign shard's state. Each namespace gets its own WAL subdirectory
//! (`<wal_dir>/ns-<i>`) and its own decision log — tenants share the
//! process, never dispatch state.
//!
//! The worker answers `QUERY_REPORT` with a live [`ShardReportInfo`] for
//! the whole run — events received, foreign count, assignments, weight,
//! republished after each applied frame and idle tick; `decisions` is
//! end-of-run only, 0 until then. After the FIN drain it publishes the
//! final report and *lingers* for a configurable window, still
//! answering, so the router can confirm delivery counts before the
//! process exits.
//!
//! [`DispatchService`]: mbta_service::DispatchService
//! [`ShardReportInfo`]: mbta_net::ShardReportInfo

use crate::process::{self, shard_report, Handle};
use crate::topology::{build_plans, load_tenants};
use mbta_net::{NetConfig, NetIngress};
use mbta_service::{
    BatchStats, BudgetMode, Decision, DecisionSink, DispatchService, FsyncPolicy, NullSink,
    OnlineConfig, Route, Routing, ServiceConfig, ServiceEvent, ServiceReport, ShardPlan,
    StoreConfig, WriteSink,
};
use mbta_store::store::DurableStore;
use std::io::{BufWriter, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

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
pub type WorkerHandle = Handle<WorkerSummary>;

/// Binds the ingress, then runs the worker on a background thread; the
/// handle has the (possibly ephemeral) address immediately.
pub fn spawn(cfg: WorkerConfig) -> Result<WorkerHandle, String> {
    process::spawn(net_config(&cfg), move |ingress| serve(cfg, ingress))
}

/// Runs a worker to completion on the calling thread, reporting the bound
/// address through `on_ready` before serving.
pub fn run(cfg: WorkerConfig, on_ready: impl FnOnce(SocketAddr)) -> Result<WorkerSummary, String> {
    process::run(net_config(&cfg), on_ready, |ingress| serve(cfg, ingress))
}

fn net_config(cfg: &WorkerConfig) -> Result<NetConfig, String> {
    if cfg.shard >= cfg.n_shards {
        return Err(format!(
            "shard {} out of range for {} shards",
            cfg.shard, cfg.n_shards
        ));
    }
    Ok(NetConfig {
        addr: cfg.listen.clone(),
        queue_cap: cfg.queue_cap,
        seed: cfg.shard as u64,
        ..NetConfig::default()
    })
}

/// The boundary filter: whether `plan` routes `ev` to a shard other than
/// `own`. A correctly routing upstream never sends such an event, so the
/// count doubles as a routing-agreement check. Cross-shard and malformed
/// events route to no shard; the service counts those itself.
fn is_foreign(plan: &ShardPlan, own: usize, ev: &ServiceEvent) -> bool {
    matches!(plan.route(ev), Route::Shard(s) if s != own)
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

fn serve(cfg: WorkerConfig, ingress: NetIngress) -> Result<WorkerSummary, String> {
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

    let id = (cfg.shard, cfg.n_shards);
    let mut popped: u64 = 0;
    let mut unknown_namespace: u64 = 0;
    let mut foreign = vec![0u64; svcs.len()];
    ingress.drive(|ns, events| {
        let i = ns as usize;
        if events.is_empty() {
            for (svc, sink) in svcs.iter_mut().zip(sinks.iter_mut()) {
                svc.pump(sink);
            }
        } else if i >= svcs.len() {
            unknown_namespace += events.len() as u64;
        } else {
            popped += events.len() as u64;
            for &a in events {
                if is_foreign(&plans[i], cfg.shard, &a.event) {
                    foreign[i] += 1;
                    mbta_telemetry::counter_add!("mbta_service_foreign_events_total", 1);
                } else {
                    svcs[i].submit(a, &mut sinks[i]);
                }
            }
        }
        // The live view, once per frame: `decisions` stays 0 until the
        // final report.
        let batches: u64 = svcs.iter().map(|s| s.batches_committed()).sum();
        let live = svcs
            .iter()
            .map(|s| (0, s.current_assignments() as u64, s.current_value()));
        let report = shard_report(id, false, svcs.len(), popped, foreign.iter().sum(), live);
        ingress.set_status(batches, report.assignments as usize, report.total_weight);
        ingress.set_report(report);
        Ok::<(), String>(())
    })?;

    let reports: Vec<ServiceReport> = svcs
        .into_iter()
        .zip(sinks.iter_mut())
        .zip(&foreign)
        .map(|((svc, sink), &foreign_events)| ServiceReport {
            foreign_events,
            ..svc.finish(sink)
        })
        .collect();

    let done = reports
        .iter()
        .map(|r| (r.decisions, r.final_assignments as u64, r.final_value));
    let report = shard_report(id, false, reports.len(), popped, foreign.iter().sum(), done);
    ingress.set_report(report);

    // Linger so the router can poll the final report before we exit.
    std::thread::sleep(Duration::from_millis(cfg.linger_ms));

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

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::{random_bipartite, RandomGraphSpec};
    use mbta_service::{Arrival, BenefitDrift, CollectSink};
    use mbta_workload::trace::TraceSpec;

    /// Ownership composes: one ordinary online service per shard, each fed
    /// the stream through the boundary filter, yields exactly the full
    /// run's decisions partitioned by shard. (In batch mode an owner's
    /// batches close on its own events only, so only the per-event mode
    /// partitions exactly.)
    #[test]
    fn filtered_owner_runs_partition_the_full_online_run() {
        let spec = RandomGraphSpec {
            n_workers: 80,
            n_tasks: 60,
            avg_degree: 5.0,
            capacity: 2,
            demand: 2,
        };
        let g = random_bipartite(&spec, 21);
        let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        let plan = ShardPlan::build(&g, &w, 3, Routing::HashId);
        let trace = TraceSpec {
            horizon: 50.0,
            mean_session: 10.0,
            mean_task_lifetime: 15.0,
            seed: 29,
        }
        .generate(g.n_workers(), g.n_tasks());
        let events =
            BenefitDrift::new(&g, 0.2, 29).weave(trace.into_iter().map(Arrival::from_trace));

        let run = |own: Option<usize>| {
            let cfg = ServiceConfig {
                budget: BudgetMode::Deterministic,
                threads: 1,
                online: Some(OnlineConfig {
                    drift_threshold: 0.1,
                }),
                ..ServiceConfig::default()
            };
            let mut svc = DispatchService::new(&g, &plan, cfg);
            let mut sink = CollectSink::default();
            let mut foreign = 0u64;
            for &a in &events {
                if own.is_some_and(|own| is_foreign(&plan, own, &a.event)) {
                    foreign += 1;
                } else {
                    svc.submit(a, &mut sink);
                }
            }
            let report = svc.finish(&mut sink);
            (sink.decisions, report, foreign)
        };

        let (full, full_rep, _) = run(None);
        assert!(!full.is_empty());
        let mut union: Vec<Decision> = Vec::new();
        let mut processed = 0u64;
        for s in 0..plan.n_shards() {
            let (dec, rep, foreign) = run(Some(s));
            assert!(
                dec.iter().all(|d| d.shard == s as u32),
                "owner {s} emitted a decision for a shard it does not own"
            );
            assert_eq!(rep.capacity_violations, 0);
            assert!(foreign > 0, "3 shards must see foreign events");
            // Conservation: every event is foreign, processed, invalid or
            // cross-shard — nothing vanishes silently.
            assert_eq!(
                events.len() as u64,
                foreign + rep.events_processed + rep.invalid_events + rep.cross_benefit_drops
            );
            processed += rep.events_processed;
            union.extend(dec);
        }
        assert_eq!(processed, full_rep.events_processed);
        // Same decisions, shard by shard.
        let key = |d: &Decision| (d.shard, d.edge, d.action as u8, d.weight.to_bits());
        let mut full_sorted: Vec<_> = full.iter().map(key).collect();
        let mut union_sorted: Vec<_> = union.iter().map(key).collect();
        full_sorted.sort_unstable();
        union_sorted.sort_unstable();
        assert_eq!(full_sorted, union_sorted);
    }
}
