//! `mbta-telemetry`: zero-dependency metrics for the `mbta` workspace.
//!
//! Production task assignment lives and dies by visibility: which solver
//! phase ate the batch budget, which shard degraded, how many augmenting
//! paths the exact solve needed. This crate is the workspace's shared
//! measurement vocabulary:
//!
//! * [`Registry`] — a sharded map of named [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket log-scale [`Histogram`]s. Recording is lock-free
//!   atomics; a name lookup takes one short shard lock.
//! * [`counter_add!`], [`gauge_set!`], [`observe!`] — record into the
//!   [`global`] registry. Each call site looks its instrument up once, on
//!   its first record, and keeps the handle in a `static` [`Site`]; a
//!   labelled series keeps one handle per label value in a
//!   [`HistogramFamily`].
//! * [`Span`] / [`span!`] — monotonic-clock timers feeding `<name>_ms`
//!   histograms (cached per call site the same way), with nesting.
//! * [`Snapshot`] — plain-data registry copies with two exporters
//!   (Prometheus text exposition, JSON) and a parser for the Prometheus
//!   subset this crate writes; [`RegistryDiff`] turns successive
//!   snapshots into interval deltas for scraping.
//!
//! Metric names follow `mbta_<crate>_<name>` with `_total` / `_ms`
//! suffixes for counters / latency histograms; labels ride inline in the
//! name (`mbta_service_shard_solve_ms{shard="3"}`).
//!
//! One off-switch: [`set_enabled`] flips recording at runtime, so a
//! single binary can measure its own instrumentation overhead (see
//! `service_bench` and `mbta-bench`). Switched off, a macro, a span or a
//! family costs one relaxed atomic load (a macro's arguments are still
//! evaluated once); switched on, a record after a site's first costs that
//! load, one `OnceLock` load and the instrument's own atomics. The data
//! structures and exporters keep working either way.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod export;
pub mod hist;
pub mod metrics;
pub mod registry;
pub mod span;

pub use export::{HistSnapshot, Metric, MetricValue, RegistryDiff, Snapshot};
pub use hist::Histogram;
pub use metrics::{Counter, Gauge};
pub use registry::{enabled, global, set_enabled, HistogramFamily, MetricEntry, Registry, Site};
pub use span::Span;

/// Adds `n` (a `u64`) to the global counter `name`, a string literal:
/// `counter_add!("mbta_x_total", 1)`. No-op when telemetry is disabled.
///
/// The counter is looked up once per call site, on its first record, and
/// held in a `static` [`Site`] after that. `n` is evaluated exactly once,
/// whether telemetry is enabled or not.
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $n:expr $(,)?) => {
        $crate::__record!(Counter, counter, add, u64, $name, $n)
    };
}

/// Sets the global gauge `name`, a string literal, to `v` (an `f64`).
/// No-op when telemetry is disabled; cached per call site and evaluated
/// once like [`counter_add!`].
#[macro_export]
macro_rules! gauge_set {
    ($name:literal, $v:expr $(,)?) => {
        $crate::__record!(Gauge, gauge, set, f64, $name, $v)
    };
}

/// Observes `v` (an `f64`) into the global histogram `name`, a string
/// literal. No-op when telemetry is disabled; cached per call site and
/// evaluated once like [`counter_add!`].
#[macro_export]
macro_rules! observe {
    ($name:literal, $v:expr $(,)?) => {
        $crate::__record!(Histogram, histogram, observe, f64, $name, $v)
    };
}

/// The recording macros' shared body: evaluates the value once, then
/// records it through the call site's `static` [`Site`] if telemetry is
/// enabled.
#[doc(hidden)]
#[macro_export]
macro_rules! __record {
    ($kind:ident, $register:ident, $record:ident, $ty:ty, $name:literal, $value:expr) => {{
        let value: $ty = $value;
        if $crate::enabled() {
            static SITE: $crate::Site<$crate::$kind> =
                $crate::Site::new($name, $crate::Registry::$register);
            SITE.get().$record(value);
        }
    }};
}

/// Drop-guard counter for solver inner loops with multiple exit points:
/// accumulate locally (a plain `u64` add, no atomics in the loop), emit
/// once on every exit path.
///
/// ```
/// let mut phases = mbta_telemetry::DeferredCount::new("mbta_matching_dinic_phases_total");
/// loop {
///     phases.add(1);
///     break; // every early return still flushes via Drop
/// }
/// ```
#[derive(Debug)]
pub struct DeferredCount {
    name: &'static str,
    n: u64,
}

impl DeferredCount {
    /// Creates a deferred counter for the global counter `name`.
    pub fn new(name: &'static str) -> Self {
        DeferredCount { name, n: 0 }
    }

    /// Accumulates locally; nothing is published until drop.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.n += n;
    }
}

impl Drop for DeferredCount {
    /// Looks the counter up by name: once per loop run, in solvers the
    /// serving path does not call.
    fn drop(&mut self) {
        if self.n > 0 && enabled() {
            global().counter(self.name).add(self.n);
        }
    }
}

/// Serializes unit tests that read or toggle the runtime kill-switch —
/// they share one process-wide flag and otherwise race under the parallel
/// test runner.
#[cfg(test)]
pub(crate) fn test_flag_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_kill_switch_gates_macros() {
        let _g = test_flag_guard();
        let c = global().counter("mbta_telemetry_test_kill_switch_total");
        for (on, n) in [(true, 1), (false, 10), (true, 1)] {
            set_enabled(on);
            counter_add!("mbta_telemetry_test_kill_switch_total", n);
        }
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn a_family_registers_only_the_values_that_record() {
        let _g = test_flag_guard();
        let family = HistogramFamily::new("mbta_telemetry_test_family_ms", "shard", 3);
        family.observe(2, 1.5);
        family.observe(2, 2.5);
        let names: Vec<String> = global()
            .entries()
            .into_iter()
            .map(|(name, _)| name)
            .filter(|name| name.starts_with("mbta_telemetry_test_family_ms"))
            .collect();
        assert_eq!(names, ["mbta_telemetry_test_family_ms{shard=\"2\"}"]);
        let h = global().histogram("mbta_telemetry_test_family_ms{shard=\"2\"}");
        assert_eq!((h.count(), h.sum()), (2, 4.0));
    }

    #[test]
    fn deferred_count_flushes_on_drop() {
        let _g = test_flag_guard();
        {
            let mut d = DeferredCount::new("mbta_telemetry_test_deferred_total");
            d.add(3);
            d.add(4);
        }
        assert_eq!(
            global().counter("mbta_telemetry_test_deferred_total").get(),
            7
        );
    }
}
