//! `mbta-telemetry`: zero-dependency metrics for the `mbta` workspace.
//!
//! Production task assignment lives and dies by visibility: which solver
//! phase ate the batch budget, which shard degraded, how many augmenting
//! paths the exact solve needed. This crate is the workspace's shared
//! measurement vocabulary:
//!
//! * [`Registry`] — a sharded map of named [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket log-scale [`Histogram`]s. All hot-path operations are
//!   lock-free atomics; registration takes one short shard lock.
//! * [`Span`] / [`span!`] — monotonic-clock timers feeding `<name>_ms`
//!   histograms, with nesting and per-span attribute counters.
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
//! `service_bench` and `mbta-bench`). Switched off, a helper or a span
//! costs one relaxed atomic load; the data structures and exporters keep
//! working either way.

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
pub use registry::{enabled, global, set_enabled, MetricEntry, Registry};
pub use span::Span;

/// Adds `n` to the global counter `name`. No-op when telemetry is
/// disabled.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if enabled() {
        global().counter(name).add(n);
    }
}

/// Sets the global gauge `name` to `v`. No-op when telemetry is disabled.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        global().gauge(name).set(v);
    }
}

/// Observes `v` into the global histogram `name`. No-op when telemetry is
/// disabled.
#[inline]
pub fn observe(name: &str, v: f64) {
    if enabled() {
        global().histogram(name).observe(v);
    }
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

    /// Locally accumulated value (for tests / reuse as a plain counter).
    pub fn get(&self) -> u64 {
        self.n
    }
}

impl Drop for DeferredCount {
    fn drop(&mut self) {
        if self.n > 0 {
            counter_add(self.name, self.n);
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
    fn runtime_kill_switch_gates_helpers() {
        let _g = test_flag_guard();
        let c = global().counter("mbta_telemetry_test_kill_switch_total");
        counter_add("mbta_telemetry_test_kill_switch_total", 1);
        set_enabled(false);
        counter_add("mbta_telemetry_test_kill_switch_total", 10);
        set_enabled(true);
        counter_add("mbta_telemetry_test_kill_switch_total", 1);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn deferred_count_flushes_on_drop() {
        let _g = test_flag_guard();
        {
            let mut d = DeferredCount::new("mbta_telemetry_test_deferred_total");
            d.add(3);
            d.add(4);
            assert_eq!(d.get(), 7);
        }
        assert_eq!(
            global().counter("mbta_telemetry_test_deferred_total").get(),
            7
        );
    }
}
