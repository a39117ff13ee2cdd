//! Property tests for the telemetry invariants the rest of the workspace
//! builds on: histogram bucket counts always sum to the observation
//! counter even under concurrent recording, and the Prometheus text
//! exposition round-trips snapshots exactly.

use mbta_telemetry::{Histogram, MetricValue, Registry, Snapshot};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent observers never lose or double-count: after all threads
    /// join, the per-bucket counts sum to `count()` and the exact sum /
    /// extrema match a sequential reduction of the same values.
    #[test]
    fn buckets_sum_to_count_under_concurrent_recording(
        per_thread in vec(vec(0.0f64..5_000.0, 1..64), 2..8)
    ) {
        let h = Histogram::new();
        std::thread::scope(|s| {
            let h = &h;
            for chunk in &per_thread {
                s.spawn(move || {
                    for &v in chunk {
                        h.observe(v);
                    }
                });
            }
        });

        let total: usize = per_thread.iter().map(Vec::len).sum();
        prop_assert_eq!(h.count(), total as u64);
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), total as u64);

        let flat: Vec<f64> = per_thread.iter().flatten().copied().collect();
        let expect_sum: f64 = flat.iter().sum();
        let expect_min = flat.iter().copied().fold(f64::INFINITY, f64::min);
        let expect_max = flat.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((h.sum() - expect_sum).abs() <= 1e-9 * expect_sum.abs().max(1.0));
        prop_assert_eq!(h.min(), expect_min);
        prop_assert_eq!(h.max(), expect_max);
    }

    /// snapshot → prometheus text → parse → identical snapshot, for a
    /// randomized mix of counters, gauges, and labeled histograms.
    #[test]
    fn prometheus_round_trip(
        counters in vec(0u64..1_000_000, 1..5),
        gauge_sets in vec(0.0f64..100.0, 0..6),
        hist_obs in vec(vec(0.0f64..10_000.0, 0..40), 1..4),
    ) {
        let r = Registry::new();
        for (i, v) in counters.iter().enumerate() {
            r.counter(&format!("mbta_prop_c{i}_total")).add(*v);
        }
        let g = r.gauge("mbta_prop_depth");
        for &v in &gauge_sets {
            g.set(v);
        }
        for (i, obs) in hist_obs.iter().enumerate() {
            let h = r.histogram(&format!("mbta_prop_lat_ms{{shard=\"{i}\"}}"));
            for &v in obs {
                h.observe(v);
            }
        }

        let snap = r.snapshot();
        let text = snap.to_prometheus();
        let parsed = Snapshot::parse_prometheus(&text)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(&parsed, &snap);

        // Spot-check the parsed values are real, not vacuously equal.
        let total_obs: usize = hist_obs.iter().map(Vec::len).sum();
        let parsed_obs: u64 = parsed
            .metrics
            .iter()
            .filter_map(|m| match &m.value {
                MetricValue::Histogram(h) => Some(h.count),
                _ => None,
            })
            .sum();
        prop_assert_eq!(parsed_obs, total_obs as u64);
    }
}
