//! One benchmark invocation: repeat timed passes of a workload for the
//! requested seconds, verify every pass, and assemble the metrics.
//!
//! An untraced invocation yields the end-to-end metrics. A traced one
//! splits its time between traced passes (boundary stamps and registry
//! diffs), untraced passes (the tracing overhead and the end-to-end
//! definitions that do not apply to every workload), one differential
//! pass set (feature on vs off) and the probes, and yields the per-layer
//! metrics. Times are medians over the passes of the invocation.

use crate::cluster::{self, ClusterUnit};
use crate::drive::{self, Unit, UnitOpts};
use crate::host;
use crate::inputs::Inputs;
use crate::mirror::oracle_optimum;
use crate::probes::{self, Values};
use crate::spans::Tracer;
use crate::spec::{Shape, Workload, END_TO_END, LATENCY_LIMIT_S, PER_LAYER};
use crate::stats::{
    highest_supported, lindley, median, percentile, sorted, supports, sustainable_rate,
};
use mbta_service::{BudgetMode, ServiceReport};
use mbta_telemetry::{MetricValue, Snapshot};
use mbta_util::fixed::objectives_close;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload (already at smoke scale if requested).
    pub workload: Workload,
    /// Run seed: every universe, trace and drift seed derives from it.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced invocation (per-layer metrics) or not (end-to-end).
    pub trace: bool,
}

/// One reported metric; `None` means it does not apply to the workload.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: Option<f64>,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check passed and nothing failed.
    pub correct: bool,
    /// Events offered across the measured passes.
    pub attempted: u64,
    /// Operations that failed across the measured passes.
    pub failed: u64,
    /// The invocation's metrics, in table order.
    pub metrics: Vec<Reported>,
    /// Informational values: pass count, `decision_hash`, exact counts.
    pub info: Vec<(&'static str, String)>,
    /// What went wrong, one line each (empty when `correct`).
    pub problems: Vec<String>,
}

impl Outcome {
    /// The driver's result line: one JSON object, metrics that do not
    /// apply reading 0.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    m.value.filter(|v| v.is_finite()).unwrap_or(0.0),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What the shared assembly needs from one pass, cluster or in-process.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    events_per_sec: f64,
    latency_ms: Vec<f64>,
    quality: f64,
    balance: f64,
}

/// Removes the invocation's scratch directory on every exit path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Ctx<'a> {
    args: &'a Args,
    clock: Instant,
    scratch: &'a Path,
    passes_run: usize,
    /// Oracle optimum at each checkpoint, per (tenant, pass seed): a pure
    /// function of the inputs, so computed the first time they are seen.
    optima: BTreeMap<(usize, u64), Vec<f64>>,
    /// Seconds spent so far on first-time oracle solves, kept out of the
    /// estimate of what another pass costs when its inputs are known.
    one_off_s: f64,
    /// `VmHWM` when the invocation's first pass (verification included)
    /// had finished.
    first_pass_rss: Option<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    info: Vec<(&'static str, String)>,
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Percentile `p` over several passes' samples: the median of per-pass
/// percentiles when every pass supports `p` on its own (robust to one
/// disturbed pass), else the percentile of the pooled sample.
fn run_percentile(samples: &[&[f64]], p: f64) -> Option<f64> {
    if samples.iter().all(|s| s.is_empty()) {
        return None;
    }
    if samples.iter().all(|s| supports(s.len(), p)) {
        let per_pass: Vec<f64> = samples.iter().map(|s| percentile(&sorted(s), p)).collect();
        return Some(median(&per_pass));
    }
    let pooled: Vec<f64> = samples.iter().flat_map(|s| s.iter().copied()).collect();
    Some(percentile(&sorted(&pooled), p))
}

/// One registry metric as a number: a counter's total, a histogram's
/// sum, a gauge's last value.
fn metric_total(value: &MetricValue) -> f64 {
    match value {
        MetricValue::Counter(c) => *c as f64,
        MetricValue::Histogram(h) => h.sum,
        MetricValue::Gauge { last, .. } => *last,
    }
}

/// The registry diff's total for `name` (0 when the pass never touched it).
fn registry_total(snap: &Snapshot, name: &str) -> f64 {
    snap.metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| metric_total(&m.value))
}

fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counts that must repeat exactly under a deterministic budget.
fn exact_counts(reports: &[&ServiceReport]) -> String {
    let sum = |f: fn(&ServiceReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    format!(
        "batches={} decisions={} solves={} reseeds={} fallbacks={} exchanges={} wal_records={}",
        sum(|r| r.batches),
        sum(|r| r.decisions),
        sum(|r| r.solves),
        sum(|r| r.reseeds),
        sum(|r| r.online_fallbacks),
        sum(|r| r.online_exchanges),
        sum(|r| r.wal_records),
    )
}

/// **R** metrics: the program's own report and registry counters.
fn report_metrics(reports: &[&ServiceReport], registry: &Snapshot, out: &mut Values) {
    let sum = |f: &dyn Fn(&ServiceReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    let first = reports[0];
    out.insert("partition.retained_fraction", first.retained_weight);
    out.insert("partition.effective_retained", first.effective_retained);
    out.insert("partition.rescue_solves", sum(&|r| r.rescue_solves as f64));
    out.insert(
        "partition.rescued_weight_share",
        share(sum(&|r| r.rescued_weight), sum(&|r| r.final_value)),
    );
    let warm_solves = sum(&|r| r.online_warm_solves as f64);
    out.insert(
        "core.warm_hit_share",
        share(sum(&|r| r.online_warm_hits as f64), warm_solves),
    );
    for (name, hist) in [
        ("core.engine_exact_ms_sum", "mbta_core_engine_exact_ms"),
        ("core.engine_greedy_ms_sum", "mbta_core_engine_greedy_ms"),
        (
            "core.engine_local_ms_sum",
            "mbta_core_engine_local_search_ms",
        ),
        ("store.fsync_ms_sum", "mbta_store_fsync_ms"),
    ] {
        out.insert(name, registry_total(registry, hist));
    }
    let solves = sum(&|r| r.solves as f64);
    out.insert("service.batches", sum(&|r| r.batches as f64));
    out.insert("service.solves", solves);
    out.insert(
        "service.reseed_share",
        share(sum(&|r| r.reseeds as f64), solves + warm_solves),
    );
    out.insert("service.decisions", sum(&|r| r.decisions as f64));
    out.insert(
        "service.tier_exact_share",
        share(sum(&|r| r.tier_exact as f64), solves),
    );
    out.insert("service.deferrals", sum(&|r| r.deferrals as f64));
    out.insert(
        "service.queue_peak",
        reports
            .iter()
            .map(|r| r.queue_high_watermark)
            .max()
            .unwrap_or(0) as f64,
    );
    out.insert("service.pool_steals", sum(&|r| r.steals as f64));
    out.insert(
        "service.online_fallbacks",
        sum(&|r| r.online_fallbacks as f64),
    );
    out.insert(
        "service.online_exchanges",
        sum(&|r| r.online_exchanges as f64),
    );
    out.insert("store.wal_records", sum(&|r| r.wal_records as f64));
    out.insert("store.wal_bytes", sum(&|r| r.wal_bytes as f64));
    let frames = registry_total(registry, "mbta_net_frames_total");
    out.insert("net.frames", frames);
    out.insert(
        "net.retry_after_share",
        share(
            registry_total(registry, "mbta_net_retry_after_total"),
            frames,
        ),
    );
}

/// **B** metrics: boundary stamps of the traced in-process passes.
fn stage_metrics(units: &[Unit], n_edges: usize, out: &mut Values) {
    let med = |f: &dyn Fn(&Unit) -> f64| median_of(units, f);
    out.insert("workload.universe_gen_s", med(&|u| u.gen.universe_s));
    out.insert("workload.trace_gen_s", med(&|u| u.gen.trace_s));
    out.insert("market.edge_weights_s", med(&|u| u.gen.weights_s));
    out.insert(
        "market.weights_ns_per_edge",
        med(&|u| u.gen.weights_s) * 1e9 / n_edges.max(1) as f64,
    );
    out.insert("partition.plan_build_s", med(&|u| u.plan_build_s));
    out.insert("service.new_s", med(&|u| u.new_s));
    out.insert("service.offer_s", med(&|u| u.offer_s));
    out.insert("service.pump_s", med(&|u| u.pump_s));
    out.insert("service.finish_s", med(&|u| u.finish_s));
    out.insert("service.sink_s", med(&|u| u.sink_s));
    out.insert("service.solve_s", med(&|u| u.solve_s));
    // Everything the service did inside pump/finish that was neither a
    // solve it reported nor the sink: route, apply, diff, journal, rescue.
    out.insert(
        "service.plumbing_s",
        med(&|u| (u.pump_s + u.finish_s - u.solve_s - u.sink_s).max(0.0)),
    );
    let cover = med(&|u| (u.offer_s + u.pump_s + u.finish_s) / u.wall_s);
    out.insert("service.stage_cover", cover);
    out.insert("bench.loop_share", 1.0 - cover);
    out.insert(
        "service.online_slow_share",
        med(&|u| {
            let slow_ns: u64 = u
                .tracer
                .as_ref()
                .map(|t| {
                    t.spans()
                        .iter()
                        .filter(|s| s.name == "pump" && s.end_ns - s.start_ns > 1_000_000)
                        .map(|s| s.end_ns - s.start_ns)
                        .sum()
                })
                .unwrap_or(0);
            slow_ns as f64 * 1e-9 / u.wall_s
        }),
    );
}

impl<'a> Ctx<'a> {
    fn w(&self) -> &'a Workload {
        &self.args.workload
    }

    fn elapsed(&self) -> f64 {
        self.clock.elapsed().as_secs_f64()
    }

    /// Whether another pass costing `cost` seconds still ends within
    /// `frac` of the invocation's time.
    fn fits(&self, frac: f64, cost: f64) -> bool {
        self.elapsed() + cost <= self.args.seconds * frac
    }

    fn pass_dir(&mut self) -> PathBuf {
        self.passes_run += 1;
        self.scratch.join(format!("pass-{}", self.passes_run))
    }

    fn problem(&mut self, what: String) {
        if !self.problems.contains(&what) {
            self.problems.push(what);
        }
    }

    /// Mean over the checkpoints of rebuilt value / oracle optimum, after
    /// checking the passes that must be exactly optimal.
    fn quality(&mut self, tenant: usize, seed: u64, inputs: &Inputs, unit: &Unit) -> f64 {
        let w = self.w();
        let t_oracle = Instant::now();
        let optima = self.optima.entry((tenant, seed)).or_insert_with(|| {
            unit.checkpoints
                .iter()
                .map(|c| oracle_optimum(&inputs.graph, &c.active_weights))
                .collect()
        });
        let optima = optima.clone();
        self.one_off_s += t_oracle.elapsed().as_secs_f64();
        let n_terms = inputs.graph.n_workers() + inputs.graph.n_tasks();
        let deterministic = w.budget == BudgetMode::Deterministic;
        let last = unit.checkpoints.len() - 1;
        let mut ratios = Vec::with_capacity(optima.len());
        for (k, (c, &opt)) in unit.checkpoints.iter().zip(&optima).enumerate() {
            ratios.push(if opt > 0.0 { c.value / opt } else { 1.0 });
            // A deterministic one-shard batch service is exactly optimal at
            // every batch boundary; the online path after its closing
            // drain, which runs unbudgeted whatever the budget mode.
            let must_be_optimal = w.shards == 1
                && if w.online.is_some() {
                    k == last
                } else {
                    deterministic
                };
            if must_be_optimal && !objectives_close(c.value, opt, n_terms) {
                self.problem(format!(
                    "{}: value {} differs from the oracle optimum {} at event {}",
                    w.name, c.value, opt, c.at_event
                ));
            }
        }
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }

    /// Input seed of the `k`-th pass of a phase. Every phase walks the
    /// same sequence, so pass `k` traced, untraced and with a feature off
    /// all see the same inputs, while the passes of one phase see
    /// different ones: the run's medians then average over inputs, which
    /// steadies them from one run seed to the next.
    fn pass_seed(&self, k: usize) -> u64 {
        mbta_util::SplitMix64::new(self.args.seed)
            .derive("pass")
            .derive(&k.to_string())
            .next_u64()
    }

    /// One in-process pass of `tenant` on the inputs of `seed`; `primary`
    /// passes run the workload as specified and count toward `attempted`
    /// and `failed`.
    fn inproc(
        &mut self,
        tenant: usize,
        seed: u64,
        opts: UnitOpts,
        primary: bool,
    ) -> (Inputs, Unit, Pass, PathBuf) {
        let w = self.w();
        let dir = self.pass_dir();
        let (inputs, unit) = drive::run_unit(w, seed, tenant, opts, &dir);
        let quality = self.quality(tenant, seed, &inputs, &unit);
        if primary {
            self.attempted += unit.offered;
            self.failed += unit.failed();
            if unit.failed() > 0 {
                self.problem(format!("{}: {} operations failed", w.name, unit.failed()));
            }
        } else if unit.rejected + unit.report.capacity_violations as u64 > 0 {
            self.problem(format!("{}: a differential pass broke capacity", w.name));
        }
        if unit.crash.as_ref().is_some_and(|c| !c.consistent) {
            self.problem(format!(
                "{}: recover() disagrees with the live state",
                w.name
            ));
        }
        // Online: every event queues (Lindley over all of them), but only
        // an event that decided something has a "decided" moment to time.
        let latency_ms: Vec<f64> = if w.shape == Shape::Online {
            lindley(&unit.service_s, w.rate)
                .into_iter()
                .zip(&unit.decided)
                .filter(|(_, &decided)| decided)
                .map(|(s, _)| s * 1e3)
                .collect()
        } else {
            unit.batch_latency_s.iter().map(|s| s * 1e3).collect()
        };
        let pass = Pass {
            setup_s: unit.setup_s,
            wall_s: unit.wall_s,
            events_per_sec: unit.events_per_sec(),
            latency_ms,
            quality,
            balance: unit.balance(),
        };
        (inputs, unit, pass, dir)
    }

    /// One pass through the TCP cluster.
    fn cluster(&mut self, seed: u64, traced: bool) -> Result<(ClusterUnit, Pass), String> {
        let w = self.w();
        let dir = self.pass_dir();
        let unit = cluster::run_unit(w, seed, traced, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        self.attempted += unit.offered;
        self.failed += unit.failed();
        if unit.failed() > 0 {
            self.problem(format!(
                "{}: {} operations failed (conserved: {})",
                w.name,
                unit.failed(),
                unit.conserved()
            ));
        }
        let pass = Pass {
            setup_s: unit.setup_s,
            wall_s: unit.wall_s,
            events_per_sec: unit.events_per_sec(),
            latency_ms: unit.frame_latency_s.iter().map(|s| s * 1e3).collect(),
            quality: share(unit.value, unit.optimum),
            balance: unit.balance,
        };
        Ok((unit, pass))
    }

    /// Passes of the workload as specified until `frac` of the time is
    /// used (at least one).
    fn passes_until(&mut self, frac: f64, traced: bool) -> Result<Measured, String> {
        let w = self.w();
        let mut m = Measured::default();
        loop {
            let t = Instant::now();
            let one_off = self.one_off_s;
            let seed = self.pass_seed(m.passes.len());
            if w.shape == Shape::Cluster {
                let (unit, pass) = self.cluster(seed, traced)?;
                m.cluster.push(unit);
                m.passes.push(pass);
            } else {
                let (inputs, unit, pass, dir) = self.inproc(0, seed, UnitOpts::of(w, traced), true);
                // Keep only the newest pass's files: the probes read them.
                if let Some((_, old)) = m.kept.replace((inputs, dir)) {
                    let _ = std::fs::remove_dir_all(old);
                }
                m.units.push(unit);
                m.passes.push(pass);
            }
            // The next pass pays the oracle again only for unseen inputs.
            let next = self.pass_seed(m.passes.len());
            let mut cost = t.elapsed().as_secs_f64();
            if self.optima.contains_key(&(0, next)) {
                cost -= self.one_off_s - one_off;
            }
            // The high-water mark of one pass: later passes only add what
            // the allocator keeps for threads that are gone.
            if self.first_pass_rss.is_none() {
                self.first_pass_rss = host::peak_rss_mib();
            }
            if !self.fits(frac, cost) {
                return Ok(m);
            }
        }
    }

    fn end_to_end(&self, passes: &[Pass]) -> Values {
        let samples: Vec<&[f64]> = passes.iter().map(|p| p.latency_ms.as_slice()).collect();
        let mut out = Values::new();
        out.insert("setup_s", median_of(passes, |p| p.setup_s));
        out.insert("events_per_sec", median_of(passes, |p| p.events_per_sec));
        if let Some(v) = run_percentile(&samples, 0.5) {
            out.insert("latency_p50_ms", v);
        }
        if let Some(v) = run_percentile(&samples, 0.95) {
            out.insert("latency_p95_ms", v);
        }
        out.insert("quality_ratio", median_of(passes, |p| p.quality));
        out.insert("mutual_balance", median_of(passes, |p| p.balance));
        if let Some(v) = self.first_pass_rss {
            out.insert("peak_rss_mb", v);
        }
        out
    }

    /// Counts and the decision hash repeat exactly under a deterministic
    /// budget (`agree` checks that); under a wall-clock budget they are
    /// recorded for information under another key.
    fn note_exact(&mut self, reports: &[&ServiceReport], hash: Option<u64>) {
        let exact = self.w().budget == BudgetMode::Deterministic;
        self.info.push((
            if exact { "exact_counts" } else { "counts" },
            exact_counts(reports),
        ));
        if let Some(h) = hash {
            self.info.push((
                if exact {
                    "exact_decision_hash"
                } else {
                    "decision_hash"
                },
                format!("{h:016x}"),
            ));
        }
    }

    fn untraced(&mut self) -> Result<Values, String> {
        let m = self.passes_until(1.0, false)?;
        self.info.push(("passes", m.passes.len().to_string()));
        let samples: usize = m.passes.iter().map(|p| p.latency_ms.len()).sum();
        let supported = highest_supported(samples).map_or(0.0, |p| p * 100.0);
        self.info.push((
            "latency_samples",
            format!("{samples} (percentiles up to p{supported} have ten samples beyond them)"),
        ));
        if let Some(u) = m.units.first() {
            self.note_exact(&[&u.report], Some(u.decision_hash));
        }
        if let Some(c) = m.cluster.first() {
            let reports: Vec<&ServiceReport> = c.workers.iter().flat_map(|w| &w.reports).collect();
            self.note_exact(&reports, None);
        }
        Ok(self.end_to_end(&m.passes))
    }

    fn traced(&mut self) -> Result<Values, String> {
        let w = self.w();
        let mut out = Values::new();
        let traced = self.passes_until(0.3, true)?;
        let plain = self.passes_until(0.6, false)?;
        self.info.push((
            "passes",
            format!(
                "{} traced + {} untraced",
                traced.passes.len(),
                plain.passes.len()
            ),
        ));

        // Compared on the inputs both phases ran.
        let both = traced.passes.len().min(plain.passes.len());
        let eps_traced = median_of(&traced.passes[..both], |p| p.events_per_sec);
        let eps_plain = median_of(&plain.passes[..both], |p| p.events_per_sec);
        out.insert(
            "bench.trace_overhead_share",
            (eps_plain - eps_traced) / eps_plain,
        );

        // The end-to-end definitions that apply to some workloads only.
        let samples: Vec<&[f64]> = plain
            .passes
            .iter()
            .map(|p| p.latency_ms.as_slice())
            .collect();
        let n_samples: usize = samples.iter().map(|s| s.len()).sum();
        out.insert("latency_samples", n_samples as f64);
        if w.shape != Shape::Batch && supports(n_samples, 0.999) {
            if let Some(v) = run_percentile(&samples, 0.999) {
                out.insert("latency_p999_ms", v);
            }
        }
        if w.shape == Shape::Online {
            out.insert(
                "sustainable_eps",
                median_of(&plain.units, |u| {
                    sustainable_rate(&u.service_s, LATENCY_LIMIT_S)
                }),
            );
        }

        let tracer = if w.shape == Shape::Cluster {
            self.traced_cluster(&traced, &mut out)?
        } else {
            let (inputs, dir) = traced.kept.as_ref().expect("an in-process pass was kept");
            let last = traced.units.last().expect("at least one traced pass");
            stage_metrics(&traced.units, inputs.graph.n_edges(), &mut out);
            report_metrics(&[&last.report], &last.registry, &mut out);
            out.insert("graph.edges", inputs.graph.n_edges() as f64);
            self.note_exact(&[&last.report], Some(last.decision_hash));
            self.differential(&plain, &mut out);
            let crash = last.crash.as_ref().map(|c| c.dir.as_path());
            let mut tracer = last.tracer.clone().unwrap_or_default();
            let probed = probes::run_probes(w, inputs, &last.checkpoints, crash, dir, &mut tracer)?;
            out.extend(probed);
            tracer
        };
        out.insert(
            "failed_share",
            share(self.failed as f64, self.attempted as f64),
        );
        self.write_spans(&tracer, traced.registry())?;
        Ok(out)
    }

    /// **D** metrics: the same trace with one feature switched off.
    fn differential(&mut self, plain: &Measured, out: &mut Values) {
        let w = self.w();
        // The feature the workload exists to load; the pure online path
        // is where per-event telemetry would show, so it carries that one.
        enum Feature {
            Rescue,
            Wal,
            Telemetry,
        }
        let mut opts = UnitOpts::of(w, false);
        let feature = if w.boundary_pass {
            opts.boundary_pass = false;
            Feature::Rescue
        } else if w.wal.is_some() {
            opts.wal = false;
            Feature::Wal
        } else if w.shape == Shape::Online {
            opts.telemetry = false;
            Feature::Telemetry
        } else {
            return;
        };
        let mut off = Vec::new();
        loop {
            let t = Instant::now();
            let seed = self.pass_seed(off.len());
            let (_, _, pass, dir) = self.inproc(0, seed, opts, false);
            let _ = std::fs::remove_dir_all(dir);
            off.push(pass);
            if off.len() == plain.passes.len() || !self.fits(0.85, t.elapsed().as_secs_f64()) {
                break;
            }
        }
        // Compare on the inputs both sides ran.
        let on = &plain.passes[..off.len()];
        let wall_on = median_of(on, |p| p.wall_s);
        let wall_off = median_of(&off, |p| p.wall_s);
        match feature {
            Feature::Rescue => {
                out.insert("partition.rescue_s", wall_on - wall_off);
                out.insert(
                    "partition.rescue_quality_gain",
                    median_of(on, |p| p.quality) - median_of(&off, |p| p.quality),
                );
            }
            Feature::Wal => {
                out.insert("store.run_share", (wall_on - wall_off) / wall_on);
            }
            Feature::Telemetry => {
                let eps_on = median_of(on, |p| p.events_per_sec);
                let eps_off = median_of(&off, |p| p.events_per_sec);
                out.insert("telemetry.overhead_share", (eps_off - eps_on) / eps_off);
            }
        }
    }

    /// The cluster's per-layer metrics: its own stamps and counters, plus
    /// the same tenants through one in-process service per tenant with
    /// the identical owner configuration (the single-process baseline),
    /// whose traced pass also feeds the service stamps and the probes.
    fn traced_cluster(&mut self, traced: &Measured, out: &mut Values) -> Result<Tracer, String> {
        let w = self.w();
        let units = &traced.cluster;
        let last = units.last().expect("at least one traced pass");
        out.insert("cluster.spawn_s", median_of(units, |u| u.spawn_s));
        out.insert("cluster.send_s", median_of(units, |u| u.send_s));
        out.insert("cluster.fin_drain_s", median_of(units, |u| u.fin_drain_s));
        out.insert(
            "net.admission_rtt_us_p50",
            median_of(units, |u| median(&u.admission_s) * 1e6),
        );
        out.insert("cluster.admitted", last.router.admitted as f64);
        out.insert("cluster.forwarded", last.router.forwarded as f64);
        out.insert("cluster.degraded", last.router.degraded as f64);
        out.insert("cluster.cross_benefit", last.router.cross_benefit as f64);
        let reports: Vec<&ServiceReport> = last.workers.iter().flat_map(|x| &x.reports).collect();
        self.note_exact(&reports, None);

        // Single-process baseline, untraced, every tenant in turn, on the
        // inputs of the newest traced cluster pass.
        let seed = self.pass_seed(units.len() - 1);
        let (mut events, mut wall, mut value) = (0u64, 0.0f64, 0.0f64);
        for tenant in 0..w.tenants {
            let (_, unit, _, dir) = self.inproc(tenant, seed, UnitOpts::of(w, false), false);
            let _ = std::fs::remove_dir_all(dir);
            events += unit.report.events_processed;
            wall += unit.wall_s;
            value += unit.checkpoints.last().map_or(0.0, |c| c.value);
        }
        out.insert(
            "cluster.vs_inprocess_ratio",
            last.events_per_sec() / (events as f64 / wall),
        );
        // Both end on an unbudgeted closing drain, so both are optimal per
        // shard: equal up to the solver's fixed-point resolution.
        let n_terms = w.tenants * (w.workers + w.tasks);
        if !objectives_close(value, last.value, n_terms) {
            self.problem(format!(
                "{}: cluster value {} differs from the in-process value {}",
                w.name, last.value, value
            ));
        }

        let (inputs, unit, _, dir) = self.inproc(0, seed, UnitOpts::of(w, true), false);
        stage_metrics(std::slice::from_ref(&unit), inputs.graph.n_edges(), out);
        out.insert("graph.edges", (inputs.graph.n_edges() * w.tenants) as f64);
        report_metrics(&reports, &last.registry, out);
        let mut tracer = last.tracer.clone().unwrap_or_default();
        let crash = unit.crash.as_ref().map(|c| c.dir.as_path());
        let probed = probes::run_probes(w, &inputs, &unit.checkpoints, crash, &dir, &mut tracer)?;
        out.extend(probed);
        let _ = std::fs::remove_dir_all(dir);
        Ok(tracer)
    }

    /// Writes the kept pass's spans and registry diff next to the binary.
    fn write_spans(&self, tracer: &Tracer, registry: Option<&Snapshot>) -> Result<(), String> {
        let dir = self.scratch.parent().unwrap_or(self.scratch);
        let path = dir.join(format!("{}.spans.jsonl", self.w().name));
        let write = || -> std::io::Result<()> {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            tracer.write_jsonl(&mut f)?;
            for (name, own) in tracer.self_times() {
                writeln!(f, "{{\"self_time\":\"{name}\",\"seconds\":{own}}}")?;
            }
            for m in registry.iter().flat_map(|s| &s.metrics) {
                let v = metric_total(&m.value);
                writeln!(f, "{{\"registry\":{:?},\"value\":{v}}}", m.name)?;
            }
            f.flush()
        };
        write().map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// The passes one phase of an invocation measured.
#[derive(Default)]
struct Measured {
    passes: Vec<Pass>,
    units: Vec<Unit>,
    cluster: Vec<ClusterUnit>,
    /// Inputs and scratch directory of the newest in-process pass.
    kept: Option<(Inputs, PathBuf)>,
}

impl Measured {
    fn registry(&self) -> Option<&Snapshot> {
        self.units
            .last()
            .map(|u| &u.registry)
            .or(self.cluster.last().map(|u| &u.registry))
    }
}

/// Runs one invocation. Everything it writes stays under `scratch_root`.
pub fn run(args: &Args, scratch_root: &Path) -> Result<Outcome, String> {
    let w = &args.workload;
    if w.threads > host::nproc() {
        return Err(format!(
            "{} needs {} cores for its solver threads; this host has {}",
            w.name,
            w.threads,
            host::nproc()
        ));
    }
    let scratch = Scratch(scratch_root.join(format!("{}-{}", w.name, std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("create {}: {e}", scratch.0.display()))?;
    let mut ctx = Ctx {
        args,
        clock: Instant::now(),
        scratch: &scratch.0,
        passes_run: 0,
        optima: BTreeMap::new(),
        one_off_s: 0.0,
        first_pass_rss: None,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        info: Vec::new(),
    };
    let values = if args.trace {
        ctx.traced()?
    } else {
        ctx.untraced()?
    };
    let table: Vec<(&'static str, &'static str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics: Vec<Reported> = table
        .into_iter()
        .map(|(name, unit)| Reported {
            name,
            unit,
            value: values.get(name).copied(),
        })
        .collect();
    if let Some(m) = metrics
        .iter()
        .find(|m| m.value.is_some_and(|v| !v.is_finite()))
    {
        ctx.problems
            .push(format!("{}: {} is not finite", w.name, m.name));
    }
    if !args.trace {
        if let Some(m) = metrics.iter().find(|m| m.value.is_none()) {
            ctx.problems
                .push(format!("{}: {} was not measured", w.name, m.name));
        }
    }
    Ok(Outcome {
        correct: ctx.problems.is_empty() && ctx.failed == 0,
        attempted: ctx.attempted,
        failed: ctx.failed,
        metrics,
        info: ctx.info,
        problems: ctx.problems,
    })
}
