//! Sharded name → metric registry.
//!
//! Sixteen mutex-guarded shards keyed by FxHash of the metric name keep
//! registration cheap and contention-free. A lookup hashes the name, locks
//! its shard and clones an `Arc`, so nothing records through one per event:
//! the recording macros keep each call site's handle in a `static`
//! [`Site`], and a labelled series keeps one handle per label value in a
//! [`HistogramFamily`]. Either way the name is looked up once, when the
//! site (or label value) first records.
//!
//! Metric names follow the workspace convention `mbta_<crate>_<name>`,
//! with optional labels encoded in the name itself in canonical form:
//! `mbta_service_shard_solve_ms{shard="3"}`. Keeping labels in the key
//! string keeps the registry dependency-free; the Prometheus exporter
//! splits them back out.

use crate::hist::Histogram;
use crate::metrics::{Counter, Gauge};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mbta_util::fxhash::FxBuildHasher;
use mbta_util::FxHashMap;

const SHARDS: usize = 16;

/// One registered metric.
#[derive(Debug, Clone)]
pub enum MetricEntry {
    /// Monotone counter.
    Counter(Arc<Counter>),
    /// Last-value gauge with running stats.
    Gauge(Arc<Gauge>),
    /// Log-scale histogram.
    Histogram(Arc<Histogram>),
}

impl MetricEntry {
    fn kind(&self) -> &'static str {
        match self {
            MetricEntry::Counter(_) => "counter",
            MetricEntry::Gauge(_) => "gauge",
            MetricEntry::Histogram(_) => "histogram",
        }
    }
}

/// A sharded collection of named metrics.
///
/// Instruments register on first use and hand back cacheable `Arc`
/// handles; a snapshot is an immutable point-in-time copy that the
/// exporters render:
///
/// ```
/// use mbta_telemetry::Registry;
///
/// let r = Registry::new();
/// r.counter("mbta_doc_requests_total").add(3);
/// r.histogram("mbta_doc_latency_ms").observe(1.25);
///
/// let snap = r.snapshot();
/// let text = snap.to_prometheus();
/// assert!(text.contains("mbta_doc_requests_total 3"));
/// assert!(text.contains("mbta_doc_latency_ms_count 1"));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    shards: [Mutex<FxHashMap<String, MetricEntry>>; SHARDS],
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, name: &str) -> &Mutex<FxHashMap<String, MetricEntry>> {
        let mut h = FxBuildHasher::default().build_hasher();
        h.write(name.as_bytes());
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Looks `name` up by `&str`; only a first registration allocates the
    /// key.
    fn get_or_register(&self, name: &str, make: fn() -> MetricEntry) -> MetricEntry {
        let mut shard = self.shard(name).lock().expect("registry shard lock");
        if let Some(entry) = shard.get(name) {
            return entry.clone();
        }
        shard.entry(name.to_owned()).or_insert_with(make).clone()
    }

    /// Returns the counter named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_register(name, || MetricEntry::Counter(Arc::default())) {
            MetricEntry::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_register(name, || MetricEntry::Gauge(Arc::default())) {
            MetricEntry::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Returns the histogram named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_register(name, || MetricEntry::Histogram(Arc::default())) {
            MetricEntry::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// All registered metrics, sorted by name.
    pub fn entries(&self) -> Vec<(String, MetricEntry)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("registry shard lock");
            out.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// The process-wide registry the recording macros, spans and labelled
/// families record into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// One call site's instrument in the [`global`] registry: its name, the
/// [`Registry`] method that registers its kind, and its handle once the
/// site first records. The recording macros ([`crate::counter_add!`],
/// [`crate::gauge_set!`], [`crate::observe!`], [`crate::span!`]) keep one
/// in a `static` per call site, so a record after the first costs one
/// `OnceLock` load and the instrument's atomics.
#[derive(Debug)]
pub struct Site<T> {
    name: &'static str,
    register: fn(&Registry, &str) -> Arc<T>,
    handle: OnceLock<Arc<T>>,
}

impl<T> Site<T> {
    /// A site for the instrument `name`, which `register` (one of
    /// [`Registry::counter`], [`Registry::gauge`], [`Registry::histogram`])
    /// looks up on first use.
    pub const fn new(name: &'static str, register: fn(&Registry, &str) -> Arc<T>) -> Self {
        Site {
            name,
            register,
            handle: OnceLock::new(),
        }
    }

    /// The instrument, looked up in [`global`] on the first call only.
    ///
    /// # Panics
    /// If the name is registered as a different metric kind.
    pub fn get(&self) -> &T {
        self.handle
            .get_or_init(|| (self.register)(global(), self.name))
    }
}

/// The histograms of one labelled series, `name{label="i"}` for `i` in
/// `0..n` (a shard, a solver thread): each label value's handle is looked
/// up in [`global`] when that value first records and held after that. A
/// value that never records is never registered.
#[derive(Debug)]
pub struct HistogramFamily {
    name: &'static str,
    label: &'static str,
    handles: Box<[OnceLock<Arc<Histogram>>]>,
}

impl HistogramFamily {
    /// The family `name{label="i"}` for label values `0..n`.
    pub fn new(name: &'static str, label: &'static str, n: usize) -> Self {
        HistogramFamily {
            name,
            label,
            handles: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Observes `v` into label value `i`'s histogram. No-op when telemetry
    /// is disabled.
    ///
    /// # Panics
    /// If `i` is not below the family's `n`.
    pub fn observe(&self, i: usize, v: f64) {
        if enabled() {
            let name = || format!("{}{{{}=\"{i}\"}}", self.name, self.label);
            self.handles[i]
                .get_or_init(|| global().histogram(&name()))
                .observe(v);
        }
    }
}

/// Runtime kill-switch consulted by the recording macros and spans.
static RUNTIME_ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns recording through the [`global`] registry on or off at runtime.
/// Used by benches to measure instrumentation overhead within a single
/// binary.
pub fn set_enabled(on: bool) {
    RUNTIME_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the recording macros, spans and families record.
#[inline]
pub fn enabled() -> bool {
    RUNTIME_ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_same_instance() {
        let r = Registry::new();
        r.counter("a_total").add(3);
        r.counter("a_total").add(4);
        assert_eq!(r.counter("a_total").get(), 7);
        assert!(Arc::ptr_eq(&r.counter("a_total"), &r.counter("a_total")));
        assert!(Arc::ptr_eq(&r.gauge("m_depth"), &r.gauge("m_depth")));
        assert!(Arc::ptr_eq(&r.histogram("z_ms"), &r.histogram("z_ms")));
        assert_eq!(r.entries().len(), 3, "a hit registers nothing");
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn entries_are_sorted() {
        let r = Registry::new();
        r.histogram("z_ms");
        r.counter("a_total");
        r.gauge("m_depth");
        let names: Vec<_> = r.entries().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a_total", "m_depth", "z_ms"]);
    }
}
