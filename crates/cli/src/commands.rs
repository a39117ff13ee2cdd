//! Command implementations.

use crate::args::{
    Command, FallbackMode, FollowOpts, SendMode, SendOpts, ServeOpts, Source, USAGE,
};
use mbta_cluster::{RouterConfig, WorkerConfig};
use mbta_core::algorithms::solve;
use mbta_core::budget::{greedy_budgeted, lagrangian_budgeted};
use mbta_core::engine::{solve_robust, EngineConfig, EngineError, QualityTier};
use mbta_core::evaluate::Evaluation;
use mbta_core::frontier::lambda_sweep;
use mbta_core::maxmin::maxmin_with_weights;
use mbta_core::online::run_online;
use mbta_core::report::AssignmentReport;
use mbta_graph::serial::{read_graph, write_graph};
use mbta_graph::stats::GraphStats;
use mbta_graph::BipartiteGraph;
use mbta_market::benefit::edge_weights;
use mbta_market::{BenefitParams, Combiner};
use mbta_matching::kbest::k_best_bmatchings;
use mbta_net::{
    send_events, Client, NetConfig, NetIngress, Reply, Request, Role, StatusInfo, StatusServer,
};
use mbta_service::{
    capacity_violations, recover, Arrival, BatchConfig, BatchStats, BenefitDrift, BudgetMode,
    Decision, DecisionSink, DeferBackoff, DispatchService, DurableStore, NullSink, OnlineConfig,
    RecoveredState, ServiceConfig, ServiceReport, ShardPlan, StoreConfig, WriteSink,
};
use mbta_store::{heartbeat_age, heartbeat_touch, TailStatus, WalTail};
use mbta_telemetry::{MetricValue, RegistryDiff, Snapshot};
use mbta_util::table::{fnum, Table};
use mbta_workload::faults::adversarial_instance;
use mbta_workload::trace::TraceSpec;
use mbta_workload::TraceFile;
use std::collections::BTreeMap;
use std::error::Error;
use std::fs;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

/// Runs a parsed command.
pub fn run(cmd: Command) -> Result<(), Box<dyn Error>> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Gen { spec, out } => {
            let g = spec.generate().realize(&BenefitParams::default())?;
            fs::write(&out, write_graph(&g))?;
            println!(
                "wrote {}: {} workers, {} tasks, {} edges ({} profile, seed {})",
                out.display(),
                g.n_workers(),
                g.n_tasks(),
                g.n_edges(),
                spec.profile.name(),
                spec.seed
            );
            Ok(())
        }
        Command::Stats { file } => {
            // A telemetry snapshot (as written by `serve --metrics-out`) is
            // Prometheus text with `# TYPE` headers; anything else is a
            // persisted graph instance.
            let bytes = fs::read(&file)?;
            if let Ok(text) = std::str::from_utf8(&bytes) {
                if text.contains("# TYPE ") {
                    let snap = Snapshot::parse_prometheus(text).map_err(|e| {
                        format!("cannot parse metrics snapshot {}: {e}", file.display())
                    })?;
                    print!("{}", render_metrics(&file, &snap));
                    return Ok(());
                }
            }
            let g = read_graph(&bytes[..])?;
            let s = GraphStats::compute(&g);
            let mut t = Table::new(format!("stats: {}", file.display()), &["metric", "value"]);
            let rows: Vec<(&str, String)> = vec![
                ("workers", s.n_workers.to_string()),
                ("tasks", s.n_tasks.to_string()),
                ("edges", s.n_edges.to_string()),
                ("density %", fnum(s.density * 100.0, 3)),
                ("worker degree mean", fnum(s.worker_degree_mean, 2)),
                ("worker degree max", s.worker_degree_max.to_string()),
                ("task degree mean", fnum(s.task_degree_mean, 2)),
                ("task degree max", s.task_degree_max.to_string()),
                ("isolated workers", s.isolated_workers.to_string()),
                ("isolated tasks", s.isolated_tasks.to_string()),
                ("total capacity", s.total_capacity.to_string()),
                ("total demand", s.total_demand.to_string()),
                ("mean requester benefit", fnum(s.mean_rb, 4)),
                ("mean worker benefit", fnum(s.mean_wb, 4)),
                ("connected components", s.components.to_string()),
            ];
            for (k, v) in rows {
                t.row(vec![k.to_string(), v]);
            }
            print!("{}", t.render());
            Ok(())
        }
        Command::Solve {
            file,
            algorithm,
            combiner,
            pairs,
            deadline_ms,
            fallback,
        } => {
            let g = load(&file)?;
            let robust = deadline_ms.is_some() || fallback.is_some();
            let start = Instant::now();
            let (m, tier) = if robust {
                // Route through the fault-tolerant engine: --fallback picks
                // the degradation policy, --deadline-ms bounds the solve.
                // --algorithm is ignored here (the engine picks its chain).
                let weights = edge_weights(&g, combiner);
                let mut cfg = match fallback {
                    Some(FallbackMode::Chain) => EngineConfig::new(),
                    // `--fallback none` and bare `--deadline-ms` both run
                    // exact-only; only the former makes degradation fatal.
                    Some(FallbackMode::None) | None => EngineConfig::new().exact_only(),
                };
                if let Some(ms) = deadline_ms {
                    cfg = cfg.with_deadline_ms(ms);
                }
                let sol = solve_robust(&g, &weights, &cfg)?;
                if fallback == Some(FallbackMode::None) && sol.tier < QualityTier::Exact {
                    return Err(format!(
                        "solve degraded to tier '{}' under --fallback none \
                         (exact tier required; raise --deadline-ms or use --fallback chain)",
                        sol.tier
                    )
                    .into());
                }
                (sol.matching, Some(sol.tier))
            } else {
                (solve(&g, combiner, algorithm), None)
            };
            let elapsed = start.elapsed();
            m.validate(&g)?;
            let ev = Evaluation::compute(&g, &m, combiner);
            match tier {
                Some(t) => println!(
                    "robust engine under {:?}: {} pairs in {:.2?} [tier: {t}]",
                    combiner,
                    m.len(),
                    elapsed
                ),
                None => println!(
                    "{} under {:?}: {} pairs in {:.2?}",
                    algorithm.name(),
                    combiner,
                    m.len(),
                    elapsed
                ),
            }
            println!("  total mutual benefit : {:.3}", ev.total_mb);
            println!("  requester side       : {:.3}", ev.total_rb);
            println!("  worker side          : {:.3}", ev.total_wb);
            println!("  min edge benefit     : {:.4}", ev.min_edge_mb);
            println!(
                "  demand coverage      : {:.1}%",
                ev.demand_coverage * 100.0
            );
            println!(
                "  worker participation : {:.1}%",
                ev.worker_participation * 100.0
            );
            if pairs {
                for &e in &m.edges {
                    println!(
                        "  w{} -> t{}  (rb {:.3}, wb {:.3})",
                        g.worker_of(e).raw(),
                        g.task_of(e).raw(),
                        g.rb(e),
                        g.wb(e)
                    );
                }
            }
            Ok(())
        }
        Command::FaultCampaign {
            instances,
            deadline_ms,
            seed,
        } => {
            println!(
                "fault-injection campaign: {instances} instances, \
                 {deadline_ms} ms deadline, base seed {seed}"
            );
            let mut injected: BTreeMap<&'static str, usize> = BTreeMap::new();
            let mut tiers: BTreeMap<&'static str, usize> = BTreeMap::new();
            let mut errors: BTreeMap<&'static str, usize> = BTreeMap::new();
            let (mut solved, mut rejected) = (0usize, 0usize);
            let start = Instant::now();
            for i in 0..instances {
                let inst = adversarial_instance(seed.wrapping_add(i as u64));
                for k in &inst.injected {
                    *injected.entry(k.name()).or_insert(0) += 1;
                }
                let cfg = EngineConfig::new().with_deadline_ms(deadline_ms);
                match solve_robust(&inst.graph, &inst.weights, &cfg) {
                    Ok(sol) => {
                        sol.matching.validate(&inst.graph).map_err(|e| {
                            format!("seed {}: engine returned invalid matching: {e}", inst.seed)
                        })?;
                        *tiers.entry(sol.tier.name()).or_insert(0) += 1;
                        solved += 1;
                    }
                    Err(e) => {
                        *errors.entry(engine_error_class(&e)).or_insert(0) += 1;
                        rejected += 1;
                    }
                }
            }
            let elapsed = start.elapsed();
            let mut t = Table::new("campaign outcomes", &["outcome", "count"]);
            t.row(vec!["solved (valid matching)".into(), solved.to_string()]);
            t.row(vec!["rejected (typed error)".into(), rejected.to_string()]);
            for (name, n) in &tiers {
                t.row(vec![format!("tier: {name}"), n.to_string()]);
            }
            for (name, n) in &errors {
                t.row(vec![format!("error: {name}"), n.to_string()]);
            }
            for (name, n) in &injected {
                t.row(vec![format!("fault: {name}"), n.to_string()]);
            }
            print!("{}", t.render());
            println!("campaign passed: no panics, every matching valid, in {elapsed:.2?}");
            Ok(())
        }
        Command::MaxMin { file, combiner } => {
            let g = load(&file)?;
            let weights = edge_weights(&g, combiner);
            let start = Instant::now();
            let r = maxmin_with_weights(&g, &weights);
            let elapsed = start.elapsed();
            r.matching.validate(&g)?;
            println!("egalitarian (bottleneck) solve in {elapsed:.2?}:");
            println!("  cardinality (max)    : {}", r.cardinality);
            println!("  bottleneck floor     : {:.4}", r.bottleneck);
            println!(
                "  total benefit        : {:.3}",
                r.matching.total_weight(&weights)
            );
            println!("  feasibility probes   : {}", r.probes);
            Ok(())
        }
        Command::Budget {
            file,
            limit,
            combiner,
            iters,
        } => {
            let g = load(&file)?;
            let weights = edge_weights(&g, combiner);
            // Persisted graphs carry benefits, not task pay: unit costs.
            let costs = vec![1.0; g.n_edges()];
            let gr = greedy_budgeted(&g, &weights, &costs, limit);
            let la = lagrangian_budgeted(&g, &weights, &costs, limit, iters);
            println!("budget-constrained solve (limit {limit}, unit edge costs):");
            println!(
                "  greedy     : benefit {:.3}, cost {:.1}, {} pairs",
                gr.total_weight,
                gr.total_cost,
                gr.matching.len()
            );
            println!(
                "  lagrangian : benefit {:.3}, cost {:.1}, {} pairs (mu {:.4}, {} solves)",
                la.total_weight,
                la.total_cost,
                la.matching.len(),
                la.mu,
                la.solves
            );
            Ok(())
        }
        Command::Online {
            file,
            policy,
            order,
        } => {
            let g = load(&file)?;
            let out = run_online(&g, mbta_market::Combiner::balanced(), order, policy);
            out.matching.validate(&g)?;
            println!("online simulation ({policy:?}, {order:?}):");
            println!("  online value   : {:.3}", out.online_value);
            println!("  offline optimum: {:.3}", out.offline_value);
            println!("  competitive    : {:.1}%", out.competitive_ratio() * 100.0);
            println!("  pairs          : {}", out.matching.len());
            Ok(())
        }
        Command::Report {
            file,
            algorithm,
            combiner,
            top,
        } => {
            let g = load(&file)?;
            let m = solve(&g, combiner, algorithm);
            m.validate(&g)?;
            let report = AssignmentReport::build(&g, &m, combiner);
            print!("{}", report.render(top));
            Ok(())
        }
        Command::TopK { file, k, combiner } => {
            let g = load(&file)?;
            let weights = edge_weights(&g, combiner);
            let solutions = k_best_bmatchings(&g, &weights, k);
            println!("top {} assignments (of {} requested):", solutions.len(), k);
            for (rank, s) in solutions.iter().enumerate() {
                s.matching.validate(&g)?;
                println!(
                    "  #{:<2} weight {:>10.4}  pairs {}",
                    rank + 1,
                    s.weight,
                    s.matching.len()
                );
            }
            Ok(())
        }
        Command::GenTrace {
            spec,
            horizon,
            repeats,
            out,
        } => {
            let (workers, tasks, seed) = (spec.n_workers, spec.n_tasks, spec.seed);
            let tspec = TraceSpec {
                horizon,
                mean_session: horizon * 0.2,
                mean_task_lifetime: horizon * 0.3,
                seed,
            };
            let events = tspec.generate_repeated(workers, tasks, repeats);
            let tf = TraceFile::new(spec, events)?;
            let n = tf.events.len();
            fs::write(&out, tf.render())?;
            println!(
                "wrote {}: {n} events over horizon {horizon} \
                 ({workers} workers x {repeats} sessions, {tasks} tasks x {repeats} postings, seed {seed})",
                out.display()
            );
            Ok(())
        }
        Command::Serve(opts) => run_service(&opts, false),
        Command::Replay(opts) => run_service(&opts, true),
        Command::PlanStats { trace, shards } => run_plan_stats(&trace, &shards),
        Command::Follow(opts) => run_follow(&opts),
        Command::Send(opts) => run_send(&opts),
        Command::ShardWorker(cfg) => run_shard_worker(cfg),
        Command::Route(cfg) => run_route(cfg),
        Command::Recover { trace, wal_dir } => run_recover(&trace, &wal_dir),
        Command::Sweep { file, steps } => {
            let g = load(&file)?;
            let lambdas: Vec<f64> = (0..steps).map(|i| i as f64 / (steps - 1) as f64).collect();
            let pts = lambda_sweep(&g, &lambdas);
            let mut t = Table::new(
                format!("lambda sweep: {}", file.display()),
                &[
                    "lambda",
                    "total_rb",
                    "total_wb",
                    "welfare",
                    "worker_share%",
                    "pairs",
                ],
            );
            for p in pts {
                t.row(vec![
                    fnum(p.lambda, 2),
                    fnum(p.total_rb, 2),
                    fnum(p.total_wb, 2),
                    fnum(p.total_welfare(), 2),
                    fnum(p.worker_share() * 100.0, 1),
                    p.cardinality.to_string(),
                ]);
            }
            print!("{}", t.render());
            Ok(())
        }
    }
}

/// Stable short labels for campaign accounting (the `Display` impl
/// interpolates instance-specific numbers, which would fragment the tally).
fn engine_error_class(e: &EngineError) -> &'static str {
    match e {
        EngineError::WeightLenMismatch { .. } => "weight-len-mismatch",
        EngineError::NonFiniteWeight { .. } => "non-finite-weight",
        EngineError::NegativeWeight { .. } => "negative-weight",
        EngineError::EmptyGraph { .. } => "empty-graph",
        EngineError::NoAssignableCapacity => "no-assignable-capacity",
    }
}

/// Pretty-prints a parsed telemetry snapshot: one table per metric kind,
/// with histogram quantiles derived from the shared bucket layout.
fn render_metrics(path: &Path, snap: &Snapshot) -> String {
    let mut counters = Table::new(
        format!("metrics: counters ({})", path.display()),
        &["name", "total"],
    );
    let mut gauges = Table::new(
        "metrics: gauges",
        &["name", "last", "mean", "min", "max", "sets"],
    );
    let mut hists = Table::new(
        "metrics: histograms",
        &["name", "count", "p50", "p99", "max", "mean"],
    );
    let (mut nc, mut ng, mut nh) = (0usize, 0usize, 0usize);
    for m in &snap.metrics {
        match &m.value {
            MetricValue::Counter(v) => {
                nc += 1;
                counters.row(vec![m.name.clone(), v.to_string()]);
            }
            MetricValue::Gauge {
                last,
                count,
                mean,
                min,
                max,
            } => {
                ng += 1;
                gauges.row(vec![
                    m.name.clone(),
                    fnum(*last, 3),
                    fnum(*mean, 3),
                    fnum(*min, 3),
                    fnum(*max, 3),
                    count.to_string(),
                ]);
            }
            MetricValue::Histogram(h) => {
                nh += 1;
                hists.row(vec![
                    m.name.clone(),
                    h.count.to_string(),
                    fnum(h.quantile(0.5), 3),
                    fnum(h.quantile(0.99), 3),
                    fnum(h.max, 3),
                    fnum(h.mean(), 3),
                ]);
            }
        }
    }
    let mut out = String::new();
    for (n, t) in [(nc, counters), (ng, gauges), (nh, hists)] {
        if n > 0 {
            out.push_str(&t.render());
        }
    }
    if out.is_empty() {
        out.push_str("metrics snapshot is empty\n");
    }
    out
}

/// Renders a snapshot for `--metrics-out`: JSON when the path ends in
/// `.json`, Prometheus text exposition otherwise.
fn render_snapshot_file(snap: &Snapshot, path: &Path) -> String {
    if path.extension().is_some_and(|e| e == "json") {
        snap.to_json()
    } else {
        snap.to_prometheus()
    }
}

/// Passes every batch through to `inner`; when interval scraping was
/// requested (`--metrics-out` + `--metrics-every`), every `every` batches
/// the registry delta since the previous write also overwrites `path` (the
/// file is a scrape target, not a log — it keeps the counters of a primary
/// that is later `kill -9`ed). The final cumulative snapshot lands after
/// the run via `run_service`.
struct MetricsTee<'a, S> {
    inner: &'a mut S,
    scrape: Option<(&'a Path, u64)>,
    seen: u64,
    diff: RegistryDiff,
    error: Option<io::Error>,
}

impl<S: DecisionSink> DecisionSink for MetricsTee<'_, S> {
    fn on_batch(&mut self, stats: &BatchStats, decisions: &[Decision]) {
        self.inner.on_batch(stats, decisions);
        self.seen += 1;
        let Some((path, every)) = self.scrape else {
            return;
        };
        if self.error.is_none() && self.seen.is_multiple_of(every) {
            let delta = self.diff.advance(mbta_telemetry::global().snapshot());
            if let Err(e) = fs::write(path, render_snapshot_file(&delta, path)) {
                self.error = Some(e);
            }
        }
    }
}

/// Streams every arrival through the service, pumping between offers so
/// watermark flushes happen promptly and `Defer` backpressure makes
/// progress instead of spinning.
///
/// Runs as an epoch loop: when `--replan-threshold` is set and the live
/// cut degrades past it, the service is detached at the batch boundary, a
/// fresh plan is built from the live weights, and the carried state is
/// resumed under it (journaling a plan record if a WAL is attached). With
/// no threshold the loop is a single epoch over the initial plan.
#[allow(clippy::too_many_arguments)]
fn drive_trace(
    g: &BipartiteGraph,
    mut plan: ShardPlan,
    cfg: &ServiceConfig,
    replan_threshold: Option<f64>,
    poison_shard: Option<usize>,
    mut store: Option<DurableStore>,
    events: &[Arrival],
    sink: &mut impl DecisionSink,
) -> ServiceReport {
    let mut idx = 0usize;
    let mut carried = None;
    loop {
        let mut svc = match carried.take() {
            None => {
                let mut svc = DispatchService::new(g, &plan, cfg.clone());
                if let Some(s) = poison_shard {
                    svc.poison_shard(s);
                }
                if let Some(store) = store.take() {
                    svc.attach_store(store);
                }
                svc
            }
            Some(c) => DispatchService::resume(g, &plan, c, sink),
        };
        while idx < events.len() {
            svc.submit(events[idx], sink);
            idx += 1;
            if replan_threshold.is_some_and(|t| svc.cut_degradation() > t) {
                break;
            }
        }
        if idx >= events.len() {
            return svc.finish(sink);
        }
        let c = svc.detach();
        plan = ShardPlan::build(g, c.live_weights(), plan.n_shards(), plan.routing);
        carried = Some(c);
    }
}

/// Network analogue of [`drive_trace`]: applies each admitted frame as
/// [`NetIngress::drive`] hands it over (to the end of the stream), keeps
/// the primary's heartbeat file fresh, and publishes live status for
/// `QUERY_STATUS` replies once per frame and idle tick.
fn drive_net(
    mut svc: DispatchService<'_>,
    ingress: &NetIngress,
    wal_dir: Option<&Path>,
    sink: &mut impl DecisionSink,
) -> Result<ServiceReport, Box<dyn Error>> {
    let beat_every = Duration::from_millis(100);
    let mut last_beat = Instant::now();
    ingress.drive(|_ns, events| {
        if let Some(dir) = wal_dir {
            if last_beat.elapsed() >= beat_every {
                heartbeat_touch(dir)
                    .map_err(|e| format!("cannot write heartbeat in {}: {e}", dir.display()))?;
                last_beat = Instant::now();
            }
        }
        if events.is_empty() {
            svc.pump(sink);
        }
        for &a in events {
            svc.submit(a, sink);
        }
        ingress.set_status(
            svc.batches_committed(),
            svc.current_assignments(),
            svc.current_value(),
        );
        Ok::<(), String>(())
    })?;
    Ok(svc.finish(sink))
}

/// Reads a trace file and realizes the market universe its spec describes.
fn load_trace(path: &Path) -> Result<(TraceFile, BipartiteGraph), Box<dyn Error>> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
    let tf = TraceFile::parse(&text)?;
    let g = tf.spec.generate().realize(&BenefitParams::default())?;
    Ok((tf, g))
}

/// The trace's events as service arrivals, with benefit drift woven in
/// when `drift > 0` (seeded by the trace, so sender and server agree).
fn trace_arrivals(tf: &TraceFile, g: &BipartiteGraph, drift: f64) -> Vec<Arrival> {
    let base = tf.events.iter().copied().map(Arrival::from_trace);
    if drift > 0.0 {
        BenefitDrift::new(g, drift, tf.spec.seed).weave(base)
    } else {
        base.collect()
    }
}

/// Shared implementation of `serve` (wall-clock solve budgets) and
/// `replay` (deterministic budgets; the decision log is byte-identical
/// across runs). Exits non-zero if the final assignment violates any
/// capacity, or if `--max-wall-ms` is exceeded.
fn run_service(opts: &ServeOpts, deterministic: bool) -> Result<(), Box<dyn Error>> {
    let (tf, g) = load_trace(&opts.trace)?;
    let weights = edge_weights(&g, Combiner::balanced());
    let plan = ShardPlan::build(&g, &weights, opts.shards, opts.routing);

    let cfg = ServiceConfig {
        batch: BatchConfig {
            max_events: opts.batch_max,
            max_bytes: opts.batch_bytes,
            flush_interval: opts.flush_ms,
        },
        queue_cap: opts.queue_cap,
        drop_policy: opts.drop_policy,
        budget: if deterministic {
            BudgetMode::Deterministic
        } else {
            BudgetMode::Wallclock(opts.budget_ms)
        },
        threads: opts.threads,
        boundary_pass: opts.boundary_pass,
        online: opts.online.then_some(OnlineConfig {
            drift_threshold: opts.drift_threshold,
        }),
    };
    let store = match &opts.wal_dir {
        Some(dir) => {
            let store_cfg = StoreConfig {
                fsync: opts.fsync,
                snapshot_every: opts.snapshot_every,
                group_every: opts.group_commit,
                ..StoreConfig::default()
            };
            let (store, recovered) = DurableStore::open(dir, store_cfg)
                .map_err(|e| format!("cannot open WAL dir {}: {e}", dir.display()))?;
            if recovered.watermark != 0 {
                // Resuming a half-served trace would double-apply its prefix;
                // the journal is for post-mortem recovery, not continuation.
                return Err(format!(
                    "WAL dir {} already holds {} committed batches; \
                     inspect it with `mbta recover` or point --wal-dir at a fresh directory",
                    dir.display(),
                    recovered.watermark
                )
                .into());
            }
            Some(store)
        }
        None => None,
    };

    let report = match &opts.decisions {
        Some(path) => {
            let mut sink = WriteSink::new(io::BufWriter::new(fs::File::create(path)?));
            let report = serve_into(opts, &tf, &g, plan, cfg, store, &mut sink)?;
            if let Some(e) = sink.error.take() {
                return Err(Box::new(e));
            }
            sink.into_inner().flush()?;
            report
        }
        None => serve_into(opts, &tf, &g, plan, cfg, store, &mut NullSink)?,
    };

    // The final write is the cumulative run snapshot (replacing the last
    // interval delta, if any) — what the CI smoke test greps and what
    // `mbta stats` pretty-prints.
    if let Some(path) = &opts.metrics_out {
        let snap = mbta_telemetry::global().snapshot();
        fs::write(path, render_snapshot_file(&snap, path))
            .map_err(|e| format!("cannot write metrics to {}: {e}", path.display()))?;
        println!("metrics snapshot: {}", path.display());
    }

    print!("{}", report.render());
    println!(
        "{}: {} events in, {} decisions, {} violations, {} ms",
        if deterministic { "replay" } else { "serve" },
        report.events_in,
        report.decisions,
        report.capacity_violations,
        fnum(report.wall_ms, 1)
    );
    // Stable one-line quality summary (the CI sharding smoke greps it).
    println!(
        "sharding: retained {}, effective {}, rescued weight {}, \
         {} rescue solves, {} replans",
        fnum(report.retained_weight, 4),
        fnum(report.effective_retained, 4),
        fnum(report.rescued_weight, 4),
        report.rescue_solves,
        report.replans
    );
    if report.capacity_violations > 0 {
        return Err(format!(
            "capacity invariant violated: {} violations in final assignment",
            report.capacity_violations
        )
        .into());
    }
    if let Some(budget) = opts.max_wall_ms {
        if report.wall_ms > budget as f64 {
            return Err(format!(
                "wall-clock budget exceeded: {} ms > {budget} ms",
                fnum(report.wall_ms, 1)
            )
            .into());
        }
    }
    Ok(())
}

/// Feeds the service from `opts.source` until the source is exhausted,
/// teeing interval metrics off the batches on their way to `sink`.
fn serve_into(
    opts: &ServeOpts,
    tf: &TraceFile,
    g: &BipartiteGraph,
    plan: ShardPlan,
    cfg: ServiceConfig,
    store: Option<DurableStore>,
    sink: &mut impl DecisionSink,
) -> Result<ServiceReport, Box<dyn Error>> {
    let mut tee = MetricsTee {
        inner: sink,
        scrape: opts.metrics_out.as_deref().zip(opts.metrics_every),
        seen: 0,
        diff: RegistryDiff::new(),
        error: None,
    };
    let report = match &opts.source {
        Source::Trace {
            drift,
            replan_threshold,
        } => {
            let events = trace_arrivals(tf, g, *drift);
            let (threshold, poison) = (*replan_threshold, opts.poison_shard);
            drive_trace(g, plan, &cfg, threshold, poison, store, &events, &mut tee)
        }
        Source::Listen(addr) => {
            // The network loop pulls events as they arrive and never detaches,
            // so the initial plan lives for the whole run.
            let mut svc = DispatchService::new(g, &plan, cfg);
            if let Some(s) = opts.poison_shard {
                svc.poison_shard(s);
            }
            if let Some(store) = store {
                svc.attach_store(store);
            }
            // The trace defines the universe, the events arrive over TCP.
            // Heartbeat before binding, so any follower that can see the
            // socket can also see a beat.
            if let Some(dir) = &opts.wal_dir {
                heartbeat_touch(dir)
                    .map_err(|e| format!("cannot write heartbeat in {}: {e}", dir.display()))?;
            }
            let ingress = NetIngress::bind(NetConfig {
                addr: addr.clone(),
                queue_cap: opts.queue_cap,
                seed: tf.spec.seed,
                ..NetConfig::default()
            })
            .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            println!("serve: listening on {}", ingress.local_addr());
            let report = drive_net(svc, &ingress, opts.wal_dir.as_deref(), &mut tee)?;
            let s = ingress.stats();
            let mut t = Table::new(
                format!("net ingress: {}", ingress.local_addr()),
                &["metric", "value"],
            );
            let rows: Vec<(&str, u64)> = vec![
                ("connections", s.conns),
                ("frames", s.frames),
                ("events accepted", s.accepted),
                ("retry-after bounces", s.retry_after),
                ("malformed frames", s.malformed),
                ("bytes in", s.bytes_in),
                ("queue high watermark", s.queue_high_watermark as u64),
            ];
            for (k, v) in rows {
                t.row(vec![k.to_string(), v.to_string()]);
            }
            print!("{}", t.render());
            report
        }
    };
    if let (Some(e), Some((path, _))) = (tee.error, tee.scrape) {
        return Err(format!("cannot write metrics to {}: {e}", path.display()).into());
    }
    Ok(report)
}

/// `mbta plan-stats`: tabulate shard-plan quality — cross edges and the
/// fraction of planned edge weight kept intra-shard — for every routing
/// policy at each requested shard count, over the trace's universe.
fn run_plan_stats(trace: &Path, shards: &[usize]) -> Result<(), Box<dyn Error>> {
    let (_, g) = load_trace(trace)?;
    let weights = edge_weights(&g, Combiner::balanced());

    let mut t = Table::new(
        format!("plan-stats: {}", trace.display()),
        &["shards", "routing", "cross edges", "retained wt"],
    );
    let mut best: Option<(usize, &'static str, f64)> = None;
    for &k in shards {
        for routing in [
            mbta_service::Routing::HashId,
            mbta_service::Routing::Range,
            mbta_service::Routing::MinCut,
        ] {
            let plan = ShardPlan::build(&g, &weights, k, routing);
            t.row(vec![
                k.to_string(),
                routing.name().to_string(),
                plan.cross_edges.to_string(),
                fnum(plan.retained_weight, 4),
            ]);
            if best.is_none_or(|(_, _, r)| plan.retained_weight > r) {
                best = Some((k, routing.name(), plan.retained_weight));
            }
        }
    }
    print!("{}", t.render());
    if let Some((k, name, r)) = best {
        // Stable one-line summary (scripts grep it).
        println!(
            "plan-stats: best {name} at {k} shards, retained {}",
            fnum(r, 4)
        );
    }
    Ok(())
}

/// `mbta recover`: rebuild assignment state from a WAL directory (latest
/// valid snapshot + log-tail replay) and validate it against the trace's
/// universe graph. Exits non-zero on any capacity violation — the durable
/// state must be safe to act on, not merely parseable.
fn run_recover(trace: &Path, wal_dir: &Path) -> Result<(), Box<dyn Error>> {
    let (_, g) = load_trace(trace)?;

    let start = Instant::now();
    let state =
        recover(wal_dir).map_err(|e| format!("cannot recover from {}: {e}", wal_dir.display()))?;
    let elapsed = start.elapsed();
    let violations = capacity_violations(&g, state.shards.iter().flatten().copied());

    let mut t = Table::new(
        format!("recover: {}", wal_dir.display()),
        &["metric", "value"],
    );
    let rows: Vec<(&str, String)> = vec![
        ("batch watermark", state.watermark.to_string()),
        (
            "snapshot base",
            state
                .snapshot_watermark
                .map_or_else(|| "none (pure WAL replay)".into(), |w| w.to_string()),
        ),
        ("wal records replayed", state.records_replayed.to_string()),
        ("torn bytes dropped", state.truncated_bytes.to_string()),
        ("shards", state.shards.len().to_string()),
        ("assignments", state.assignments().to_string()),
        ("total weight", fnum(state.total_weight(), 4)),
        ("capacity violations", violations.to_string()),
        ("recovery time", format!("{elapsed:.2?}")),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v]);
    }
    print!("{}", t.render());
    // Stable one-line summary (the CI crash-recovery smoke greps it).
    println!(
        "recover: watermark {}, {} assignments, total weight {}, \
         {} capacity violations, {} bytes truncated",
        state.watermark,
        state.assignments(),
        fnum(state.total_weight(), 4),
        violations,
        state.truncated_bytes
    );
    if violations > 0 {
        return Err(format!(
            "recovered state violates {violations} capacities against {}",
            trace.display()
        )
        .into());
    }
    Ok(())
}

/// Whether nothing is listening on `addr`. Promotion gate: a `kill -9`'d
/// primary can leave its port in TIME_WAIT, where a fresh bind fails even
/// though the primary is gone — so a failed bind falls back to a connect
/// probe, and a refused connect proves no listener exists. Only a port
/// that *answers* keeps the follower waiting (split-brain avoidance).
fn port_is_dead(addr: &str) -> bool {
    if let Ok(l) = TcpListener::bind(addr) {
        drop(l);
        return true;
    }
    match addr.to_socket_addrs().ok().and_then(|mut it| it.next()) {
        Some(sa) => matches!(
            TcpStream::connect_timeout(&sa, Duration::from_millis(250)),
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused
        ),
        None => false,
    }
}

fn follower_status(f: &RecoveredState, role: Role) -> StatusInfo {
    StatusInfo {
        role,
        watermark: f.watermark,
        assignments: f.assignments() as u64,
        total_weight: f.total_weight(),
    }
}

/// `mbta follow`: tail a primary's WAL directory as a warm read-only
/// replica, serve status queries, and on primary death (stale heartbeat
/// and dead ingress port) promote — replay the durable tail, persist a
/// warm snapshot, and validate the promoted state against the trace's
/// universe. Exits non-zero on any capacity violation.
fn run_follow(o: &FollowOpts) -> Result<(), Box<dyn Error>> {
    let (_, g) = load_trace(&o.trace)?;

    // Anchor a relative --wal-dir to the startup cwd once: the heartbeat
    // file is re-read on every poll, and resolving the path at poll time
    // would silently follow any later cwd change to a different (stale)
    // heartbeat. Not `canonicalize` — the primary may not have created
    // the directory yet.
    let wal_dir = if o.wal_dir.is_absolute() {
        o.wal_dir.clone()
    } else {
        std::env::current_dir()
            .map_err(|e| format!("cannot resolve current dir for --wal-dir: {e}"))?
            .join(&o.wal_dir)
    };

    // Wait for the primary to exist: WAL dir with a first heartbeat.
    let deadline = Instant::now() + Duration::from_millis(o.max_wait_ms);
    while !matches!(heartbeat_age(&wal_dir), Ok(Some(_))) {
        if Instant::now() >= deadline {
            return Err(format!(
                "no primary heartbeat in {} after {} ms",
                wal_dir.display(),
                o.max_wait_ms
            )
            .into());
        }
        thread::sleep(Duration::from_millis(o.poll_ms));
    }

    // Warm start from the durable state, then follow the live tail.
    let mut follower =
        recover(&wal_dir).map_err(|e| format!("cannot recover from {}: {e}", wal_dir.display()))?;
    let mut tail = WalTail::resume_from(&wal_dir, follower.watermark);
    println!(
        "follow: warm at watermark {}, {} assignments",
        follower.watermark,
        follower.assignments()
    );

    let status = match &o.query_listen {
        Some(addr) => {
            let srv = StatusServer::bind(addr, follower_status(&follower, Role::Follower))
                .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            println!("follow: status queries on {}", srv.local_addr());
            Some(srv)
        }
        None => None,
    };

    loop {
        let poll = tail.poll()?;
        mbta_telemetry::counter_add!("mbta_follow_polls_total", 1);
        if !poll.records.is_empty() {
            mbta_telemetry::counter_add!("mbta_follow_records_total", poll.records.len() as u64);
        }
        for rec in &poll.records {
            follower.apply(rec);
        }
        if poll.status == TailStatus::Gap {
            // The primary compacted past our position: re-seed from the
            // latest snapshot instead of replaying a hole.
            mbta_telemetry::counter_add!("mbta_follow_gaps_total", 1);
            follower = recover(&wal_dir)
                .map_err(|e| format!("cannot re-recover from {}: {e}", wal_dir.display()))?;
            tail = WalTail::resume_from(&wal_dir, follower.watermark);
        }
        if let Some(s) = &status {
            s.update(follower_status(&follower, Role::Follower));
        }

        let age = heartbeat_age(&wal_dir)?.unwrap_or(Duration::MAX);
        if age >= Duration::from_millis(o.heartbeat_ms)
            && o.listen.as_deref().is_none_or(port_is_dead)
        {
            break;
        }
        thread::sleep(Duration::from_millis(o.poll_ms));
    }

    // Promote. The writer is dead, so a torn tail frame is final: one
    // last poll picks up every completed record, then the torn suffix is
    // dropped exactly as crash recovery would drop it.
    let last = tail.poll()?;
    for rec in &last.records {
        follower.apply(rec);
    }
    let violations = capacity_violations(&g, follower.shards.iter().flatten().copied());
    let snap_path = follower
        .write_snapshot(&wal_dir)
        .map_err(|e| format!("cannot write promotion snapshot: {e}"))?;
    if let Some(s) = &status {
        s.update(follower_status(&follower, Role::Primary));
    }
    println!("follow: warm snapshot {}", snap_path.display());
    // Stable one-line summary (the CI failover smoke greps it).
    println!(
        "follow: promoted at watermark {}, {} assignments, total weight {}, \
         {} capacity violations, {} bytes in flight dropped",
        follower.watermark,
        follower.assignments(),
        fnum(follower.total_weight(), 4),
        violations,
        last.blocked_bytes
    );
    if violations > 0 {
        return Err(format!(
            "promoted state violates {violations} capacities against {}",
            o.trace.display()
        )
        .into());
    }
    Ok(())
}

/// `mbta send`: stream a trace's events to a serving ingress over TCP
/// (with RETRY-AFTER-aware backoff), or probe an endpoint's status.
fn run_send(o: &SendOpts) -> Result<(), Box<dyn Error>> {
    let mut client = Client::connect_retry(&o.addr, Duration::from_millis(o.connect_wait_ms))
        .map_err(|e| format!("cannot connect to {}: {e}", o.addr))?;
    let SendMode::Trace {
        trace,
        batch,
        namespace,
        drift,
    } = &o.mode
    else {
        return match client.request(&Request::QueryStatus)? {
            Reply::Status(s) => {
                println!(
                    "status: role {}, watermark {}, {} assignments, total weight {}",
                    s.role.name(),
                    s.watermark,
                    s.assignments,
                    fnum(s.total_weight, 4)
                );
                Ok(())
            }
            other => Err(format!("unexpected reply to status query: {other:?}").into()),
        };
    };
    let (tf, g) = load_trace(trace)?;
    let events = trace_arrivals(&tf, &g, *drift);

    let mut backoff = DeferBackoff::new(5, 500, tf.spec.seed);
    let start = Instant::now();
    let summary = send_events(&mut client, *namespace, &events, *batch, &mut backoff)?;
    client.request(&Request::Fin)?;
    // Stable one-line summary (the CI overload smoke greps it).
    println!(
        "send: {} events in {} batches, {} retries, {:.2?}",
        summary.sent,
        summary.batches,
        summary.retries,
        start.elapsed()
    );
    if summary.sent as usize != events.len() {
        return Err(format!(
            "server acknowledged {} of {} events",
            summary.sent,
            events.len()
        )
        .into());
    }
    Ok(())
}

/// `mbta shard-worker`: one cluster shard-owner process. Prints the bound
/// address on startup (scripts capture ephemeral ports from it), serves
/// until the router FINs, then prints per-namespace reports. Fails if any
/// namespace ended with capacity violations.
fn run_shard_worker(cfg: WorkerConfig) -> Result<(), Box<dyn Error>> {
    let (shard, shards) = (cfg.shard, cfg.n_shards);
    let summary = mbta_cluster::worker::run(cfg, |addr| {
        // Stable one-line banner (scripts grep the address out of it).
        println!("shard-worker: shard {shard}/{shards} listening on {addr}");
    })?;

    let mut t = Table::new(
        format!("shard-worker report: shard {shard}/{shards}"),
        &[
            "ns",
            "events_in",
            "processed",
            "foreign",
            "decisions",
            "batches",
            "violations",
            "value",
        ],
    );
    for (ns, r) in summary.reports.iter().enumerate() {
        t.row(vec![
            ns.to_string(),
            r.events_in.to_string(),
            r.events_processed.to_string(),
            r.foreign_events.to_string(),
            r.decisions.to_string(),
            r.batches.to_string(),
            r.capacity_violations.to_string(),
            fnum(r.final_value, 4),
        ]);
    }
    print!("{}", t.render());
    println!(
        "shard-worker: {} events, {} unknown-namespace, {} violations",
        summary.events,
        summary.unknown_namespace,
        summary.violations()
    );
    if summary.violations() > 0 {
        return Err(format!(
            "shard {shard} finished with {} capacity violations",
            summary.violations()
        )
        .into());
    }
    Ok(())
}

/// `mbta route`: the cluster router. Admits client events exactly-once,
/// routes them with the shared per-namespace plans, fans out to the
/// shard owners, and reports the aggregated outcome. Poisoned shards
/// degrade the run (and are surfaced here) but never abort it; the exit
/// is non-zero only if events went *unaccounted*.
fn run_route(cfg: RouterConfig) -> Result<(), Box<dyn Error>> {
    let owners = cfg.owners.clone();
    let (n_owners, n_tenants) = (owners.len(), cfg.traces.len());
    let summary = mbta_cluster::router::run(cfg, |addr| {
        println!("route: listening on {addr} ({n_owners} owners, {n_tenants} tenants)");
    })?;

    let mut t = Table::new(
        "router report: per-owner outcome".to_string(),
        &[
            "shard",
            "owner",
            "sent",
            "state",
            "events",
            "decisions",
            "assignments",
            "weight",
        ],
    );
    for (s, addr) in owners.iter().enumerate() {
        let state = if summary.poisoned[s] {
            "POISONED"
        } else {
            "ok"
        };
        let (events, decisions, assignments, weight) = match &summary.owner_reports[s] {
            Some(r) => (
                r.events.to_string(),
                r.decisions.to_string(),
                r.assignments.to_string(),
                fnum(r.total_weight, 4),
            ),
            None => ("-".into(), "-".into(), "-".into(), "-".into()),
        };
        t.row(vec![
            s.to_string(),
            addr.clone(),
            summary.per_owner_sent[s].to_string(),
            state.to_string(),
            events,
            decisions,
            assignments,
            weight,
        ]);
    }
    print!("{}", t.render());
    println!(
        "route: {} admitted = {} forwarded + {} degraded + {} invalid + {} cross + {} unknown-ns",
        summary.admitted,
        summary.forwarded,
        summary.degraded,
        summary.invalid,
        summary.cross_benefit,
        summary.unknown_namespace
    );
    if !summary.conserved() {
        return Err(format!(
            "router lost track of {} admitted events",
            summary.admitted
                - summary.forwarded
                - summary.degraded
                - summary.invalid
                - summary.cross_benefit
                - summary.unknown_namespace
        )
        .into());
    }
    Ok(())
}

fn load(path: &Path) -> Result<BipartiteGraph, Box<dyn Error>> {
    let bytes = fs::read(path)?;
    Ok(read_graph(&bytes[..])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_core::algorithms::Algorithm;
    use mbta_market::Combiner;
    use mbta_matching::mcmf::PathAlgo;
    use mbta_workload::{Profile, WorkloadSpec};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mbta_cli_{}_{name}", std::process::id()))
    }

    #[test]
    fn gen_stats_solve_sweep_roundtrip() {
        let out = tmp("roundtrip.mbta");
        run(Command::Gen {
            spec: WorkloadSpec {
                profile: Profile::Uniform,
                n_workers: 50,
                n_tasks: 25,
                avg_worker_degree: 4.0,
                skill_dims: 4,
                seed: 9,
            },
            out: out.clone(),
        })
        .unwrap();
        assert!(out.exists());

        run(Command::Stats { file: out.clone() }).unwrap();
        run(Command::Solve {
            file: out.clone(),
            algorithm: Algorithm::ExactMB {
                algo: PathAlgo::Dijkstra,
            },
            combiner: Combiner::balanced(),
            pairs: true,
            deadline_ms: None,
            fallback: None,
        })
        .unwrap();
        run(Command::Solve {
            file: out.clone(),
            algorithm: Algorithm::ExactMB {
                algo: PathAlgo::Dijkstra,
            },
            combiner: Combiner::balanced(),
            pairs: false,
            deadline_ms: Some(50),
            fallback: Some(FallbackMode::Chain),
        })
        .unwrap();
        run(Command::Sweep {
            file: out.clone(),
            steps: 3,
        })
        .unwrap();
        run(Command::MaxMin {
            file: out.clone(),
            combiner: Combiner::balanced(),
        })
        .unwrap();
        run(Command::Budget {
            file: out.clone(),
            limit: 10.0,
            combiner: Combiner::Harmonic,
            iters: 10,
        })
        .unwrap();
        run(Command::Online {
            file: out.clone(),
            policy: mbta_matching::online::OnlinePolicy::Greedy,
            order: mbta_core::online::ArrivalOrder::Random { seed: 1 },
        })
        .unwrap();
        run(Command::Report {
            file: out.clone(),
            algorithm: Algorithm::GreedyMB,
            combiner: Combiner::balanced(),
            top: 5,
        })
        .unwrap();
        run(Command::TopK {
            file: out.clone(),
            k: 3,
            combiner: Combiner::balanced(),
        })
        .unwrap();
        let _ = std::fs::remove_file(out);
    }

    fn small_serve_opts(trace: PathBuf, decisions: Option<PathBuf>) -> ServeOpts {
        ServeOpts {
            trace,
            shards: 4,
            threads: 2,
            batch_max: 64,
            batch_bytes: 1 << 20,
            flush_ms: 5.0,
            queue_cap: 4096,
            drop_policy: mbta_service::DropPolicy::Defer,
            routing: mbta_service::Routing::HashId,
            boundary_pass: false,
            online: false,
            drift_threshold: 0.2,
            budget_ms: 50,
            poison_shard: None,
            max_wall_ms: None,
            decisions,
            metrics_out: None,
            metrics_every: None,
            wal_dir: None,
            snapshot_every: 64,
            fsync: mbta_service::FsyncPolicy::Batch,
            group_commit: 1,
            source: Source::Trace {
                drift: 0.1,
                replan_threshold: None,
            },
        }
    }

    #[test]
    fn serve_with_wal_then_recover_matches() {
        let trace = tmp("walserve.trace");
        run(Command::GenTrace {
            spec: WorkloadSpec {
                profile: Profile::Uniform,
                n_workers: 50,
                n_tasks: 30,
                avg_worker_degree: 4.0,
                skill_dims: 4,
                seed: 29,
            },
            horizon: 30.0,
            repeats: 2,
            out: trace.clone(),
        })
        .unwrap();

        let dir = tmp("walserve.wal");
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = small_serve_opts(trace.clone(), None);
        opts.wal_dir = Some(dir.clone());
        opts.snapshot_every = 8;
        opts.fsync = mbta_service::FsyncPolicy::Never;
        run(Command::Replay(opts.clone())).unwrap();

        // The sealed run recovers cleanly and validates against the trace.
        run(Command::Recover {
            trace: trace.clone(),
            wal_dir: dir.clone(),
        })
        .unwrap();

        // Re-serving into the same (non-empty) WAL dir must refuse — the
        // journal is post-mortem state, not a resume point.
        let r = run(Command::Replay(opts));
        assert!(r.is_err(), "non-empty WAL dir must be rejected");
        let msg = r.unwrap_err().to_string();
        assert!(msg.contains("already holds"), "unexpected error: {msg}");

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn online_serve_with_wal_then_recover_matches() {
        let trace = tmp("online-serve.trace");
        run(Command::GenTrace {
            spec: WorkloadSpec {
                profile: Profile::Uniform,
                n_workers: 50,
                n_tasks: 30,
                avg_worker_degree: 4.0,
                skill_dims: 4,
                seed: 31,
            },
            horizon: 30.0,
            repeats: 2,
            out: trace.clone(),
        })
        .unwrap();

        let dir = tmp("online-serve.wal");
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = small_serve_opts(trace.clone(), None);
        opts.online = true;
        opts.drift_threshold = 0.1;
        opts.source = Source::Trace {
            drift: 0.3,
            replan_threshold: None,
        };
        opts.wal_dir = Some(dir.clone());
        opts.snapshot_every = 8;
        opts.fsync = mbta_service::FsyncPolicy::Never;
        run(Command::Replay(opts)).unwrap();

        // The per-event journal recovers cleanly and validates against
        // the trace (zero capacity violations, weights consistent).
        run(Command::Recover {
            trace: trace.clone(),
            wal_dir: dir.clone(),
        })
        .unwrap();

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn serve_over_network_then_follow_promotes() {
        let trace = tmp("net.trace");
        run(Command::GenTrace {
            spec: WorkloadSpec {
                profile: Profile::Uniform,
                n_workers: 50,
                n_tasks: 30,
                avg_worker_degree: 4.0,
                skill_dims: 4,
                seed: 31,
            },
            horizon: 30.0,
            repeats: 2,
            out: trace.clone(),
        })
        .unwrap();

        let dir = tmp("net.wal");
        let _ = std::fs::remove_dir_all(&dir);
        // Reserve an ephemeral port, then reuse it for the real ingress
        // so the sender and the follower's takeover gate know the address.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };

        let mut opts = small_serve_opts(trace.clone(), None);
        opts.wal_dir = Some(dir.clone());
        opts.snapshot_every = 8;
        opts.fsync = mbta_service::FsyncPolicy::Never;
        // With --listen, drift is woven by the sender.
        opts.source = Source::Listen(addr.clone());
        let primary =
            std::thread::spawn(move || run(Command::Serve(opts)).map_err(|e| e.to_string()));

        // Follower tails the same WAL dir while the primary is serving.
        let follow_opts = crate::args::FollowOpts {
            trace: trace.clone(),
            wal_dir: dir.clone(),
            listen: Some(addr.clone()),
            query_listen: Some("127.0.0.1:0".to_string()),
            heartbeat_ms: 500,
            poll_ms: 10,
            max_wait_ms: 20_000,
        };
        let follower = std::thread::spawn(move || {
            run(Command::Follow(follow_opts)).map_err(|e| e.to_string())
        });

        run(Command::Send(SendOpts {
            addr,
            connect_wait_ms: 20_000,
            mode: SendMode::Trace {
                trace: trace.clone(),
                batch: 64,
                namespace: 0,
                drift: 0.1,
            },
        }))
        .unwrap();

        // FIN drains the primary; its heartbeat then goes stale and its
        // port dies, so the follower promotes with zero violations.
        primary.join().unwrap().unwrap();
        follower.join().unwrap().unwrap();

        // The durable state — including the follower's warm promotion
        // snapshot — recovers cleanly against the trace's universe.
        run(Command::Recover {
            trace: trace.clone(),
            wal_dir: dir.clone(),
        })
        .unwrap();

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn recover_without_wal_dir_errors() {
        let trace = tmp("norecover.trace");
        run(Command::GenTrace {
            spec: WorkloadSpec {
                profile: Profile::Uniform,
                n_workers: 20,
                n_tasks: 10,
                avg_worker_degree: 3.0,
                skill_dims: 2,
                seed: 5,
            },
            horizon: 10.0,
            repeats: 1,
            out: trace.clone(),
        })
        .unwrap();
        let r = run(Command::Recover {
            trace: trace.clone(),
            wal_dir: PathBuf::from("/nonexistent/mbta-wal-dir"),
        });
        assert!(r.is_err());
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn serve_writes_parseable_metrics_snapshot() {
        let trace = tmp("metrics.trace");
        run(Command::GenTrace {
            spec: WorkloadSpec {
                profile: Profile::Uniform,
                n_workers: 50,
                n_tasks: 30,
                avg_worker_degree: 4.0,
                skill_dims: 4,
                seed: 19,
            },
            horizon: 30.0,
            repeats: 2,
            out: trace.clone(),
        })
        .unwrap();

        let mpath = tmp("metrics.prom");
        let mut opts = small_serve_opts(trace.clone(), None);
        opts.metrics_out = Some(mpath.clone());
        opts.metrics_every = Some(2);
        run(Command::Serve(opts)).unwrap();

        let text = std::fs::read_to_string(&mpath).unwrap();
        let snap = Snapshot::parse_prometheus(&text).unwrap();
        let batches = snap.metrics.iter().find_map(|m| match (&m.name, &m.value) {
            (n, MetricValue::Counter(v)) if n == "mbta_service_batches_total" => Some(*v),
            _ => None,
        });
        assert!(
            batches.unwrap_or(0) > 0,
            "mbta_service_batches_total missing or zero in snapshot:\n{text}"
        );
        // `mbta stats` sniffs the snapshot and pretty-prints it.
        run(Command::Stats {
            file: mpath.clone(),
        })
        .unwrap();

        for p in [trace, mpath] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn gen_trace_then_replay_is_deterministic() {
        let trace = tmp("replay.trace");
        run(Command::GenTrace {
            spec: WorkloadSpec {
                profile: Profile::Uniform,
                n_workers: 60,
                n_tasks: 40,
                avg_worker_degree: 4.0,
                skill_dims: 4,
                seed: 11,
            },
            horizon: 40.0,
            repeats: 2,
            out: trace.clone(),
        })
        .unwrap();

        let log_a = tmp("replay_a.log");
        let log_b = tmp("replay_b.log");
        run(Command::Replay(small_serve_opts(
            trace.clone(),
            Some(log_a.clone()),
        )))
        .unwrap();
        run(Command::Replay(small_serve_opts(
            trace.clone(),
            Some(log_b.clone()),
        )))
        .unwrap();
        let a = std::fs::read(&log_a).unwrap();
        let b = std::fs::read(&log_b).unwrap();
        assert!(!a.is_empty(), "replay produced an empty decision log");
        assert_eq!(a, b, "replay decision logs differ between runs");

        for p in [trace, log_a, log_b] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn replay_min_cut_with_rescue_and_replan_is_deterministic() {
        let trace = tmp("mincut.trace");
        run(Command::GenTrace {
            spec: WorkloadSpec {
                profile: Profile::Uniform,
                n_workers: 80,
                n_tasks: 50,
                avg_worker_degree: 5.0,
                skill_dims: 4,
                seed: 17,
            },
            horizon: 40.0,
            repeats: 2,
            out: trace.clone(),
        })
        .unwrap();

        let mk = |log: PathBuf, threads: usize| {
            let mut o = small_serve_opts(trace.clone(), Some(log));
            o.routing = mbta_service::Routing::MinCut;
            o.boundary_pass = true;
            o.source = Source::Trace {
                drift: 0.3,
                replan_threshold: Some(0.01),
            };
            o.shards = 8;
            o.threads = threads;
            o
        };
        let log_a = tmp("mincut_a.log");
        let log_b = tmp("mincut_b.log");
        run(Command::Replay(mk(log_a.clone(), 1))).unwrap();
        run(Command::Replay(mk(log_b.clone(), 4))).unwrap();
        let a = std::fs::read(&log_a).unwrap();
        let b = std::fs::read(&log_b).unwrap();
        assert!(!a.is_empty(), "replay produced an empty decision log");
        assert_eq!(a, b, "boundary pass broke cross-width determinism");

        // The plan-quality tabulation runs over the same universe.
        run(Command::PlanStats {
            trace: trace.clone(),
            shards: vec![2, 4, 8],
        })
        .unwrap();

        for p in [trace, log_a, log_b] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Byte-level pin of the `replay --decisions` log per dispatch mode.
    /// The run-vs-run tests above would still pass if the drive loop's
    /// pump cadence changed; these constants would not. Re-pin only in a
    /// PR that means to change decisions.
    #[test]
    fn replay_decision_logs_match_their_pinned_hashes() {
        fn cli(line: &str) -> Result<(), String> {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            run(crate::args::parse(&argv).map_err(|e| e.to_string())?).map_err(|e| e.to_string())
        }
        let trace = tmp("pinned.trace");
        let t = trace.display();
        cli(&format!(
            "gen-trace --workers 80 --tasks 50 --degree 5 --dims 4 --seed 23 \
             --horizon 40 --repeats 2 --out {t}"
        ))
        .unwrap();
        let pinned: [(&str, &str, u64); 4] = [
            ("hash4", "--shards 4", 0xf02f_2ed5_fbc9_a1f3),
            (
                "mincut8",
                "--routing min-cut --shards 8 --boundary-pass",
                0xd07c_208f_444c_d307,
            ),
            (
                "replan",
                "--routing min-cut --shards 8 --boundary-pass --replan-threshold 1e-4 --drift 0.3 \
                 --wal-dir WAL",
                0xa61f_4279_d3a5_e3ad,
            ),
            ("online", "--online --wal-dir WAL", 0xbf0f_f69d_2f40_5e97),
        ];
        for (name, flags, want) in pinned {
            let log = tmp(&format!("pinned_{name}.log"));
            let wal = tmp(&format!("pinned_{name}.wal"));
            let _ = std::fs::remove_dir_all(&wal);
            let flags = flags.replace("WAL", &wal.display().to_string());
            cli(&format!(
                "replay --trace {t} --batch-max 32 --flush-ms 5 --threads 2 {flags} \
                 --decisions {}",
                log.display()
            ))
            .unwrap();
            let bytes = std::fs::read(&log).unwrap();
            assert!(!bytes.is_empty(), "{name}: empty decision log");
            let got = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            assert_eq!(got, want, "{name}: decision log hash {got:#018x}");
            let _ = std::fs::remove_file(log);
            let _ = std::fs::remove_dir_all(wal);
        }
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn serve_with_poisoned_shard_completes() {
        let trace = tmp("poison.trace");
        run(Command::GenTrace {
            spec: WorkloadSpec {
                profile: Profile::Uniform,
                n_workers: 50,
                n_tasks: 30,
                avg_worker_degree: 4.0,
                skill_dims: 4,
                seed: 13,
            },
            horizon: 30.0,
            repeats: 2,
            out: trace.clone(),
        })
        .unwrap();

        let mut opts = small_serve_opts(trace.clone(), None);
        opts.poison_shard = Some(0);
        run(Command::Serve(opts)).unwrap();
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn solve_fallback_none_fails_on_degraded_tier() {
        let out = tmp("fallback_none.mbta");
        run(Command::Gen {
            spec: WorkloadSpec {
                profile: Profile::Uniform,
                n_workers: 400,
                n_tasks: 200,
                avg_worker_degree: 8.0,
                skill_dims: 4,
                seed: 7,
            },
            out: out.clone(),
        })
        .unwrap();

        // A zero-ms deadline forces degradation below the exact tier;
        // under `--fallback none` that must surface as a hard error.
        let r = run(Command::Solve {
            file: out.clone(),
            algorithm: Algorithm::ExactMB {
                algo: PathAlgo::Dijkstra,
            },
            combiner: Combiner::balanced(),
            pairs: false,
            deadline_ms: Some(0),
            fallback: Some(FallbackMode::None),
        });
        assert!(r.is_err(), "--fallback none must fail when tier < exact");
        let msg = r.unwrap_err().to_string();
        assert!(msg.contains("fallback none"), "unexpected error: {msg}");

        // Same deadline under `--fallback chain` degrades gracefully.
        run(Command::Solve {
            file: out.clone(),
            algorithm: Algorithm::ExactMB {
                algo: PathAlgo::Dijkstra,
            },
            combiner: Combiner::balanced(),
            pairs: false,
            deadline_ms: Some(0),
            fallback: Some(FallbackMode::Chain),
        })
        .unwrap();
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn fault_campaign_runs_clean() {
        run(Command::FaultCampaign {
            instances: 120,
            deadline_ms: 50,
            seed: 0,
        })
        .unwrap();
    }

    #[test]
    fn missing_file_errors() {
        let r = run(Command::Stats {
            file: PathBuf::from("/nonexistent/definitely_missing.mbta"),
        });
        assert!(r.is_err());
    }

    #[test]
    fn corrupt_file_errors() {
        let out = tmp("corrupt.mbta");
        std::fs::write(&out, b"this is not a graph").unwrap();
        let r = run(Command::Stats { file: out.clone() });
        assert!(r.is_err());
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn help_prints() {
        run(Command::Help).unwrap();
    }
}
