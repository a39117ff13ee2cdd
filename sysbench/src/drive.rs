//! The in-process driver: one timed pass of a workload through
//! `DispatchService::{offer, pump, finish}`.
//!
//! Closed loop, back to back, one thread: per event the driver stamps
//! before `offer` and after `pump` returns (by which time the verifier
//! sink has returned from any `on_batch` the event triggered). Saturation
//! throughput comes from the wall clock; arrival-relative latency is
//! computed afterwards from the same service times (`stats::lindley`).

use crate::inputs::{self, GenTimes, Inputs};
use crate::spans::{Tracer, ROOT};
use crate::spec::Workload;
use crate::verify::{mutual_balance, Checkpoint, Verifier};
use mbta_service::{
    recover, BatchConfig, DispatchService, DurableStore, OfferOutcome, OnlineConfig,
    RecoveredState, ServiceConfig, ServiceReport, ShardPlan, StoreConfig,
};
use mbta_telemetry::{RegistryDiff, Snapshot};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// An event handled faster than this keeps its time in the stage sums but
/// not its own spans: at hundreds of thousands of microsecond events per
/// pass the span record itself (tens of MB) would be the overhead.
pub const SPAN_FLOOR: Duration = Duration::from_micros(20);

/// Switches of one timed pass. The defaults come from the workload; the
/// differential measurements flip one at a time.
#[derive(Debug, Clone, Copy)]
pub struct UnitOpts {
    /// Record a span around every call into a layer.
    pub traced: bool,
    /// Cross-shard boundary-rescue pass.
    pub boundary_pass: bool,
    /// Attach the workload's durable store.
    pub wal: bool,
    /// Leave telemetry recording on (the shipped default).
    pub telemetry: bool,
}

impl UnitOpts {
    /// The workload as specified.
    pub fn of(w: &Workload, traced: bool) -> Self {
        UnitOpts {
            traced,
            boundary_pass: w.boundary_pass,
            wal: w.wal.is_some(),
            telemetry: true,
        }
    }
}

/// What the crash copy of the WAL directory recovered to.
#[derive(Debug, Clone)]
pub struct CrashRecovery {
    /// The un-sealed copy taken before `finish()`.
    pub dir: PathBuf,
    /// `recover()` of the copy equals the live state at the pause, and
    /// `recover()` of the sealed directory equals the final state.
    pub consistent: bool,
}

/// Everything one timed pass measured.
pub struct Unit {
    /// Generation through service construction, before the first event.
    pub setup_s: f64,
    /// Input-generation stage times.
    pub gen: GenTimes,
    /// `ShardPlan::build`.
    pub plan_build_s: f64,
    /// `DispatchService::new` (+ store open).
    pub new_s: f64,
    /// First `offer` to `finish()` returned (crash-copy pause excluded).
    pub wall_s: f64,
    /// The `finish()` call alone (closing drain, seal).
    pub finish_s: f64,
    /// Summed `offer` calls (traced passes only).
    pub offer_s: f64,
    /// Summed `pump` calls (traced passes only).
    pub pump_s: f64,
    /// Per-event back-to-back service time, seconds (online shape).
    pub service_s: Vec<f64>,
    /// Per event: whether it produced decisions (online shape).
    pub decided: Vec<bool>,
    /// Service time of each event that closed a batch (batch shape).
    pub batch_latency_s: Vec<f64>,
    /// Events offered.
    pub offered: u64,
    /// Offers the full queue bounced.
    pub deferred: u64,
    /// The service's own report.
    pub report: ServiceReport,
    /// Verifier rejections.
    pub rejected: u64,
    /// FNV hash of the decision stream.
    pub decision_hash: u64,
    /// Eight evenly spaced checkpoints and the final state.
    pub checkpoints: Vec<Checkpoint>,
    /// Seconds inside the sink (traced passes only).
    pub sink_s: f64,
    /// Sum of the service-reported `solve_ms`.
    pub solve_s: f64,
    /// Registry counters and histograms accrued by the pass.
    pub registry: Snapshot,
    /// The span record (traced passes only).
    pub tracer: Option<Tracer>,
    /// Crash-recovery check (durable passes only).
    pub crash: Option<CrashRecovery>,
}

impl Unit {
    /// Events the service applied per wall second.
    pub fn events_per_sec(&self) -> f64 {
        self.report.events_processed as f64 / self.wall_s
    }

    /// `min(sum rb, sum wb) / max(..)`, both sides summed over the
    /// assignments held at the checkpoints and the final state.
    pub fn balance(&self) -> f64 {
        let (rb, wb) = self
            .checkpoints
            .iter()
            .fold((0.0, 0.0), |(rb, wb), c| (rb + c.rb, wb + c.wb));
        mutual_balance(rb, wb)
    }

    /// Operations that failed: everything the service dropped, rejected
    /// or degraded, every decision the verifier rejected, every store
    /// error and every bounced offer.
    pub fn failed(&self) -> u64 {
        let r = &self.report;
        r.dropped_newest
            + r.dropped_oldest
            + r.invalid_events
            + r.foreign_events
            + r.cross_benefit_drops
            + r.capacity_violations as u64
            + u64::from(r.store_error.is_some())
            + self.rejected
            + self.deferred
    }
}

fn service_config(w: &Workload, opts: &UnitOpts) -> ServiceConfig {
    ServiceConfig {
        batch: BatchConfig {
            max_events: w.batch_max,
            ..BatchConfig::default()
        },
        budget: w.budget,
        threads: w.threads,
        boundary_pass: opts.boundary_pass,
        online: w
            .online
            .map(|drift_threshold| OnlineConfig { drift_threshold }),
        ..ServiceConfig::default()
    }
}

/// The store configuration of a durable pass of `w`: write-through
/// appends, no periodic snapshots (only the final seal). `None` when the
/// workload attaches no store.
pub fn store_config(w: &Workload) -> Option<StoreConfig> {
    Some(StoreConfig {
        fsync: w.wal?,
        snapshot_every: 0,
        group_every: 1,
        batch_fsync_every: w.fsync_every,
        ..StoreConfig::default()
    })
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Whether a recovered state holds exactly the verifier's assignment.
fn recovered_matches(rec: &RecoveredState, v: &Verifier<'_>) -> bool {
    let mut edges: Vec<u32> = rec.shards.iter().flatten().copied().collect();
    edges.sort_unstable();
    let value = v.value();
    edges.into_iter().eq(v.assigned_edges())
        && (rec.total_weight() - value).abs() <= 1e-9 * value.abs().max(1.0)
}

/// Runs one timed pass of tenant `tenant` of `w` under `seed` through one
/// in-process service (for the cluster workload this is the same-config
/// single-process baseline). `scratch` is a directory the pass may create
/// and fill (WAL, crash copy); the caller removes it.
pub fn run_unit(
    w: &Workload,
    seed: u64,
    tenant: usize,
    opts: UnitOpts,
    scratch: &Path,
) -> (Inputs, Unit) {
    mbta_telemetry::set_enabled(opts.telemetry);

    let t_setup = Instant::now();
    let inputs = inputs::generate(w, seed, tenant);
    let t_plan = Instant::now();
    let plan = ShardPlan::build(&inputs.graph, &inputs.weights, w.shards, w.routing);
    let t_new = Instant::now();
    let mut svc = DispatchService::new(&inputs.graph, &plan, service_config(w, &opts));
    let wal_dir = scratch.join("wal");
    let durable = opts.wal.then(|| store_config(w)).flatten();
    if let Some(cfg) = durable {
        let (store, _) = DurableStore::open(&wal_dir, cfg).expect("open WAL dir in scratch");
        svc.attach_store(store);
    }
    let t_ready = Instant::now();

    let mut sink = Verifier::new(&inputs.graph, &inputs.weights, &inputs.events);
    if opts.traced {
        sink.tracer = Some(Tracer::new());
    }
    let online = w.online.is_some();
    let mut service_s = Vec::with_capacity(if online { inputs.events.len() } else { 0 });
    let mut decided = Vec::with_capacity(service_s.capacity());
    let mut batch_latency_s = Vec::new();
    let mut deferred = 0u64;
    let (mut offer_s, mut pump_s) = (0.0f64, 0.0f64);
    let mut diff = RegistryDiff::new();
    diff.advance(mbta_telemetry::global().snapshot());

    let start = Instant::now();
    let run_span = sink.tracer.as_mut().map(|t| t.open(ROOT, "run", start, 0));
    let mut prev = start;
    for (i, &a) in inputs.events.iter().enumerate() {
        sink.offered = i + 1;
        let seen = sink.batches;
        // A traced pass stamps the top of each iteration too, so the
        // driver's own bookkeeping is left outside every span.
        let begin = if run_span.is_some() {
            Instant::now()
        } else {
            prev
        };
        // Pumping after every offer keeps the queue empty, so a bounce
        // never happens; if one does it is retried and counted as failed.
        while let OfferOutcome::Deferred = svc.offer(a) {
            deferred += 1;
            svc.pump(&mut sink);
        }
        let now = if let Some(run) = run_span {
            let t_offer = Instant::now();
            let tr = sink.tracer.as_mut().expect("traced pass");
            let mark = tr.len();
            let name = if online { "event" } else { "ingest" };
            let ev = tr.open(run, name, begin, i as u64);
            tr.record(ev, "offer", begin, t_offer, i as u64);
            sink.parent = tr.open(ev, "pump", t_offer, i as u64);
            svc.pump(&mut sink);
            let t_pump = Instant::now();
            let tr = sink.tracer.as_mut().expect("traced pass");
            if t_pump - begin < SPAN_FLOOR {
                tr.truncate(mark);
            } else {
                tr.close(sink.parent, t_pump);
                tr.close(ev, t_pump);
            }
            offer_s += (t_offer - begin).as_secs_f64();
            pump_s += (t_pump - t_offer).as_secs_f64();
            t_pump
        } else {
            svc.pump(&mut sink);
            Instant::now()
        };
        let s = (now - prev).as_secs_f64();
        if online {
            service_s.push(s);
            decided.push(sink.batches != seen);
        } else if sink.batches != seen {
            batch_latency_s.push(s);
        }
        prev = now;
    }
    let loop_end = prev;

    // The clock pauses here: a copy of the un-sealed WAL directory is
    // what a crash at this instant would leave behind.
    let mut crash = None;
    if durable.is_some() {
        let dir = scratch.join("crash");
        copy_dir(&wal_dir, &dir).expect("copy WAL dir inside scratch");
        let consistent = recover(&dir).is_ok_and(|rec| recovered_matches(&rec, &sink));
        crash = Some(CrashRecovery { dir, consistent });
    }

    let resume = Instant::now();
    if let Some(run) = run_span {
        let tr = sink.tracer.as_mut().expect("traced pass");
        sink.parent = tr.open(run, "finish", resume, inputs.events.len() as u64);
    }
    let report = svc.finish(&mut sink);
    let end = Instant::now();
    if let Some(run) = run_span {
        let tr = sink.tracer.as_mut().expect("traced pass");
        tr.close(sink.parent, end);
        tr.close(run, end);
    }
    let registry = diff.advance(mbta_telemetry::global().snapshot());
    mbta_telemetry::set_enabled(true);

    sink.finalize();
    if let Some(c) = crash.as_mut() {
        c.consistent &= recover(&wal_dir).is_ok_and(|rec| recovered_matches(&rec, &sink));
    }
    let unit = Unit {
        setup_s: (t_ready - t_setup).as_secs_f64(),
        gen: inputs.times,
        plan_build_s: (t_new - t_plan).as_secs_f64(),
        new_s: (t_ready - t_new).as_secs_f64(),
        wall_s: (loop_end - start).as_secs_f64() + (end - resume).as_secs_f64(),
        finish_s: (end - resume).as_secs_f64(),
        offer_s,
        pump_s,
        service_s,
        decided,
        batch_latency_s,
        offered: inputs.events.len() as u64,
        deferred,
        report,
        rejected: sink.rejected,
        decision_hash: sink.decision_hash(),
        sink_s: sink.sink_s,
        solve_s: sink.solve_s,
        tracer: sink.tracer.take(),
        checkpoints: std::mem::take(&mut sink.checkpoints),
        registry,
        crash,
    };
    drop(sink);
    (inputs, unit)
}
