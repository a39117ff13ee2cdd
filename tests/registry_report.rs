//! The telemetry registry agrees with the run report, and the recording
//! macros keep their contract.
//!
//! - `DispatchService` is driven over seeded traces in online mode with a
//!   WAL and in batch mode at 4 shards. A `RegistryDiff` taken across each
//!   run must count exactly what the `ServiceReport` and the store tally:
//!   events, online events, decisions, online fallbacks, batches and WAL
//!   records.
//! - `counter_add!`, `gauge_set!`, `observe!` and `span!` record nothing
//!   while telemetry is switched off, evaluate their value argument once
//!   either way, share one series between call sites that name it, record
//!   a span once into `<name>_ms`, and still panic on a kind mismatch.
//!
//! Every test here reads or switches the process-wide registry, so the
//! file is its own test binary and its tests take one lock.

use mbta::graph::random::{random_bipartite, RandomGraphSpec};
use mbta::graph::BipartiteGraph;
use mbta::service::{
    Arrival, BatchConfig, BenefitDrift, BudgetMode, DispatchService, DurableStore, FsyncPolicy,
    NullSink, OnlineConfig, Routing, ServiceConfig, ServiceReport, ShardPlan, StoreConfig,
};
use mbta::telemetry::{self, MetricValue, RegistryDiff, Snapshot};
use mbta::workload::trace::TraceSpec;
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

/// Serialises the tests: they share the global registry and its switch.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn universe(seed: u64) -> (BipartiteGraph, Vec<f64>) {
    let spec = RandomGraphSpec {
        n_workers: 120,
        n_tasks: 90,
        avg_degree: 6.0,
        capacity: 2,
        demand: 2,
    };
    let g = random_bipartite(&spec, seed);
    let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
    (g, w)
}

fn stream(g: &BipartiteGraph, seed: u64) -> Vec<Arrival> {
    let trace = TraceSpec {
        horizon: 60.0,
        mean_session: 20.0,
        mean_task_lifetime: 25.0,
        seed,
    }
    .generate(g.n_workers(), g.n_tasks());
    BenefitDrift::new(g, 0.3, seed).weave(trace.into_iter().map(Arrival::from_trace))
}

/// The counter `name` in `snap`, 0 when it never recorded.
fn counter(snap: &Snapshot, name: &str) -> u64 {
    match snap
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| &m.value)
    {
        None => 0,
        Some(MetricValue::Counter(n)) => *n,
        Some(other) => panic!("{name} is not a counter: {other:?}"),
    }
}

/// Runs one service over `seed`'s trace and returns its report with the
/// registry's delta across the run.
fn run(seed: u64, online: bool, wal: bool) -> (ServiceReport, Snapshot) {
    let (g, w) = universe(seed);
    let events = stream(&g, seed);
    let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
    let cfg = ServiceConfig {
        batch: BatchConfig {
            max_events: 24,
            max_bytes: 1 << 20,
            flush_interval: 4.0,
        },
        budget: BudgetMode::Deterministic,
        threads: if online { 1 } else { 4 },
        online: online.then_some(OnlineConfig {
            drift_threshold: 0.05,
        }),
        ..ServiceConfig::default()
    };
    let dir = std::env::temp_dir().join(format!(
        "mbta-registry-report-{seed}-{online}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut diff = RegistryDiff::new();
    diff.advance(telemetry::global().snapshot());
    let mut svc = DispatchService::new(&g, &plan, cfg);
    if wal {
        let store_cfg = StoreConfig {
            fsync: FsyncPolicy::Never,
            snapshot_every: 8,
            ..StoreConfig::default()
        };
        svc.attach_store(DurableStore::open(&dir, store_cfg).unwrap().0);
    }
    let mut sink = NullSink;
    for a in events {
        svc.submit(a, &mut sink);
    }
    let report = svc.finish(&mut sink);
    let delta = diff.advance(telemetry::global().snapshot());
    let _ = std::fs::remove_dir_all(&dir);
    (report, delta)
}

#[test]
fn online_counters_equal_the_report_and_the_store() {
    let _g = registry_lock();
    for seed in [5, 17] {
        let (report, delta) = run(seed, true, true);
        let at = format!("online, seed {seed}");
        assert!(
            report.online_fallbacks > 0 && report.wal_records > 0,
            "{at}"
        );
        let tallies = [
            ("mbta_service_events_total", report.events_in),
            ("mbta_service_online_events_total", report.online_events),
            ("mbta_service_decisions_total", report.decisions),
            (
                "mbta_service_online_fallbacks_total",
                report.online_fallbacks,
            ),
            ("mbta_service_batches_total", 0),
            ("mbta_store_wal_records_total", report.wal_records),
        ];
        for (name, want) in tallies {
            assert_eq!(counter(&delta, name), want, "{name}, {at}");
        }
    }
}

#[test]
fn batch_counters_equal_the_report() {
    let _g = registry_lock();
    for seed in [5, 17] {
        let (report, delta) = run(seed, false, false);
        let at = format!("batch, seed {seed}");
        assert!(report.batches > 0 && report.decisions > 0, "{at}");
        let tallies = [
            ("mbta_service_events_total", report.events_in),
            ("mbta_service_online_events_total", 0),
            ("mbta_service_decisions_total", report.decisions),
            ("mbta_service_online_fallbacks_total", 0),
            ("mbta_service_batches_total", report.batches),
            ("mbta_store_wal_records_total", 0),
        ];
        for (name, want) in tallies {
            assert_eq!(counter(&delta, name), want, "{name}, {at}");
        }
    }
}

/// Names in the global registry that start with `prefix`.
fn registered(prefix: &str) -> Vec<String> {
    let snap = telemetry::global().snapshot();
    let names = snap.metrics.into_iter().map(|m| m.name);
    names.filter(|n| n.starts_with(prefix)).collect()
}

#[test]
fn switched_off_the_macros_record_nothing_but_evaluate_once() {
    let _g = registry_lock();
    let evaluated = Cell::new(0);
    let value = |x| {
        evaluated.set(evaluated.get() + 1);
        x
    };
    telemetry::set_enabled(false);
    telemetry::counter_add!("test_off_total", value(1.0) as u64);
    telemetry::gauge_set!("test_off_gauge", value(2.0));
    telemetry::observe!("test_off_ms", value(3.0));
    {
        let _s = telemetry::span!("test_off_span");
    }
    telemetry::set_enabled(true);
    assert_eq!(registered("test_off"), Vec::<String>::new());
    assert_eq!(evaluated.get(), 3);

    telemetry::counter_add!("test_on_total", value(1.0) as u64);
    telemetry::gauge_set!("test_on_gauge", value(2.0));
    telemetry::observe!("test_on_ms", value(3.0));
    assert_eq!(evaluated.get(), 6);
    assert_eq!(telemetry::global().counter("test_on_total").get(), 1);
    assert_eq!(telemetry::global().gauge("test_on_gauge").last(), 2.0);
    assert_eq!(telemetry::global().histogram("test_on_ms").sum(), 3.0);
}

#[test]
fn call_sites_naming_one_series_share_it() {
    let _g = registry_lock();
    for n in [3, 4] {
        telemetry::counter_add!("test_shared_total", n);
        telemetry::counter_add!("test_shared_total", 10 * n);
    }
    assert_eq!(telemetry::global().counter("test_shared_total").get(), 77);
}

#[test]
fn a_span_records_once_into_its_ms_histogram() {
    let _g = registry_lock();
    {
        let _s = telemetry::span!("test_span_once");
    }
    assert_eq!(registered("test_span_once"), ["test_span_once_ms"]);
    assert_eq!(
        telemetry::global().histogram("test_span_once_ms").count(),
        1
    );
}

#[test]
#[should_panic(expected = "is a counter, not a gauge")]
fn a_kind_mismatch_still_panics() {
    let _g = registry_lock();
    telemetry::counter_add!("test_kind_clash", 1);
    telemetry::gauge_set!("test_kind_clash", 1.0);
}
