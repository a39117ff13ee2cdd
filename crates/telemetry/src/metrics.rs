//! Counter and gauge primitives.
//!
//! [`Counter`] is a single `AtomicU64` — monotone, wrap-free in practice.
//! [`Gauge`] records the *last* value lock-free and additionally feeds a
//! mutex-guarded [`OnlineStats`] so exports can show count/mean/min/max of
//! everything ever set (the satellite requirement: `OnlineStats` is the
//! gauge backend). The mutex is uncontended in realistic use — gauges are
//! set at batch cadence, not per-event.

use mbta_util::OnlineStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    n: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.n.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }
}

/// A last-value gauge with running distribution statistics.
#[derive(Debug)]
pub struct Gauge {
    last_bits: AtomicU64,
    stats: Mutex<OnlineStats>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// Creates a gauge at 0.0 with empty statistics.
    pub fn new() -> Self {
        Gauge {
            last_bits: AtomicU64::new(0f64.to_bits()),
            stats: Mutex::new(OnlineStats::new()),
        }
    }

    /// Sets the gauge. `NaN` is ignored — a poisoned value must not wedge
    /// min/max for the rest of the process.
    pub fn set(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.last_bits.store(v.to_bits(), Ordering::Relaxed);
        self.stats.lock().expect("gauge stats lock").push(v);
    }

    /// Most recently set value (0.0 before the first set).
    pub fn last(&self) -> f64 {
        f64::from_bits(self.last_bits.load(Ordering::Relaxed))
    }

    /// Snapshot of the running statistics over all sets.
    pub fn stats(&self) -> OnlineStats {
        self.stats.lock().expect("gauge stats lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.add(1);
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_tracks_last_and_distribution() {
        let g = Gauge::new();
        assert_eq!(g.last(), 0.0);
        g.set(3.0);
        g.set(1.0);
        g.set(2.0);
        assert_eq!(g.last(), 2.0);
        let s = g.stats();
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gauge_ignores_nan() {
        let g = Gauge::new();
        g.set(5.0);
        g.set(f64::NAN);
        assert_eq!(g.last(), 5.0);
        assert_eq!(g.stats().count(), 1);
    }
}
