//! Fixed-bucket log-scale histograms on lock-free atomics.
//!
//! The bucket layout is compile-time fixed: [`N_BUCKETS`] buckets whose
//! upper bounds double from [`FIRST_UPPER`] (bucket 0 is `(-∞, 0.001]`,
//! bucket 1 is `(0.001, 0.002]`, …), with the final bucket catching
//! overflow (`+Inf`). In the unit convention of this workspace values are
//! milliseconds, so the finite range spans one microsecond to roughly
//! three days — latencies outside that are clamped into the edge buckets
//! without losing the count or the exact sum/min/max.
//!
//! Everything is `Relaxed` atomics: [`Histogram::observe`] is one indexed
//! `fetch_add` plus CAS loops folding in the sum, min and max (a fold that
//! leaves its value unchanged — most min/max updates — skips its CAS),
//! safe to call from any
//! number of threads without locks. The invariant the property tests pin
//! down is that bucket counts always sum to [`Histogram::count`] once all
//! recorders have quiesced.

use std::sync::atomic::{AtomicU64, Ordering};

/// Total bucket count, including the final `+Inf` overflow bucket.
pub const N_BUCKETS: usize = 40;

/// Number of buckets with a finite upper bound.
pub const N_FINITE: usize = N_BUCKETS - 1;

/// Upper bound of bucket 0.
pub const FIRST_UPPER: f64 = 0.001;

/// Upper bound of finite bucket `i` (`FIRST_UPPER * 2^i`).
///
/// # Panics
/// If `i >= N_FINITE` (the last bucket's bound is `+Inf`, not finite).
pub fn bucket_upper(i: usize) -> f64 {
    assert!(i < N_FINITE, "bucket {i} has no finite upper bound");
    // Multiplying by an exact power of two only shifts the exponent, so
    // this matches the repeated-doubling scan in `bucket_index` bit-exactly.
    FIRST_UPPER * 2f64.powi(i as i32)
}

/// Index of the bucket that records value `v`.
///
/// Bucket boundaries are inclusive on the upper side, so
/// `bucket_index(bucket_upper(i)) == i` — the property the Prometheus
/// round-trip relies on to map parsed `le` bounds back to bucket slots.
pub fn bucket_index(v: f64) -> usize {
    let mut bound = FIRST_UPPER;
    for i in 0..N_FINITE {
        if v <= bound {
            return i;
        }
        bound *= 2.0;
    }
    N_BUCKETS - 1
}

/// Estimates the `q`-quantile from bucket counts plus the exact observed
/// extrema, by linear interpolation inside the target bucket. Shared by
/// the live [`Histogram`] and parsed snapshots. Returns 0.0 when empty.
pub fn quantile_from(buckets: &[u64], min: f64, max: f64, q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        cum += c;
        if c > 0 && cum >= rank {
            let lower = if i == 0 { 0.0 } else { bucket_upper(i - 1) };
            let upper = if i < N_FINITE { bucket_upper(i) } else { max };
            // Clamp the interpolation interval to the observed extrema so
            // a single-sample histogram reports the sample itself.
            let lower = lower.clamp(min.min(max), max);
            let upper = upper.clamp(lower, max);
            let into = (rank - (cum - c)) as f64 / c as f64;
            return lower + (upper - lower) * into;
        }
    }
    max
}

/// A concurrent log-scale histogram. See the module docs for the layout.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one observation. `NaN` is ignored (an upstream bug should
    /// not poison a process-wide metric); negative values clamp to 0.
    pub fn observe(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let v = v.max(0.0);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        f64_update(&self.sum_bits, |s| s + v);
        f64_update(&self.min_bits, |m| m.min(v));
        f64_update(&self.max_bits, |m| m.max(v));
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Smallest observation (0.0 when empty — snapshot-friendly, unlike a
    /// NaN sentinel).
    pub fn min(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            f64::from_bits(self.min_bits.load(Ordering::Relaxed))
        }
    }

    /// Largest observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            f64::from_bits(self.max_bits.load(Ordering::Relaxed))
        }
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Per-bucket counts (index order; last bucket is the overflow).
    pub fn bucket_counts(&self) -> [u64; N_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimated `q`-quantile (see [`quantile_from`]).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from(&self.bucket_counts(), self.min(), self.max(), q)
    }
}

/// CAS loop applying `f` to an f64 stored as bits; no write when `f`
/// leaves the bits as they are.
fn f64_update(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        if next == cur {
            return;
        }
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_round_trip_through_index() {
        for i in 0..N_FINITE {
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper bound {i}");
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn observe_tracks_exact_extrema_and_sum() {
        let h = Histogram::new();
        for v in [0.5, 3.0, 42.0, 0.002] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 45.502).abs() < 1e-12);
        assert_eq!(h.min(), 0.002);
        assert_eq!(h.max(), 42.0);
        let buckets = h.bucket_counts();
        assert_eq!(buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn concurrent_observers_fold_exactly() {
        // Dyadic values, so every partial sum is exact in any order.
        const THREADS: usize = 4;
        const ROUNDS: usize = 500;
        let values = [0.25, 0.5, 1.0, 3.0, 64.0];
        let h = Histogram::new();
        // Every thread starts at once, so the CASes contend.
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (h, start) = (&h, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..ROUNDS {
                        for v in values {
                            h.observe(v * (t + 1) as f64);
                        }
                    }
                });
            }
        });
        let n = (THREADS * ROUNDS * values.len()) as u64;
        let per_round: f64 = values.iter().sum();
        let sum = per_round * ROUNDS as f64 * (1..=THREADS).sum::<usize>() as f64;
        assert_eq!(h.count(), n);
        assert_eq!(h.sum(), sum);
        assert_eq!(h.min(), 0.25);
        assert_eq!(h.max(), 64.0 * THREADS as f64);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), n);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn nan_is_ignored() {
        let h = Histogram::new();
        h.observe(f64::NAN);
        assert_eq!(h.count(), 0);
        h.observe(1.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn single_sample_quantiles_report_the_sample() {
        let h = Histogram::new();
        h.observe(7.25);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 7.25, "q={q}");
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded_by_extrema() {
        let h = Histogram::new();
        for i in 0..1000 {
            h.observe(0.01 * (i as f64 + 1.0));
        }
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile not monotone at q={q}");
            assert!(v >= h.min() && v <= h.max());
            prev = v;
        }
        // p50 of uniform 0.01..=10.0 should land within a bucket of 5.
        let p50 = h.quantile(0.5);
        assert!((1.0..=10.0).contains(&p50), "p50 {p50}");
    }
}
