//! Order statistics, the percentile picker, and the Lindley queue model.
//!
//! Everything here is a pure function of its input slice, so the unit
//! tests check each against hand-computed cases.

/// Sorts a copy of `xs` ascending (total order; the benchmark never
/// produces NaN samples).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation at fractional 1-based rank `pos` of a sorted
/// slice, clamped to the ends.
fn at_rank(sorted: &[f64], pos: f64) -> f64 {
    let n = sorted.len();
    if pos <= 1.0 {
        return sorted[0];
    }
    if pos >= n as f64 {
        return sorted[n - 1];
    }
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// `(q1, median, q3)` by the exclusive method — the same cut points
/// Python's `statistics.quantiles(xs, n=4)` returns, which is what the
/// driver computes the run-to-run spread from.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let s = sorted(xs);
    let n1 = (s.len() + 1) as f64;
    (
        at_rank(&s, n1 * 0.25),
        at_rank(&s, n1 * 0.5),
        at_rank(&s, n1 * 0.75),
    )
}

/// The median of `xs`.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// Interquartile range as a share of the median (the driver's spread).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether a sample of `n` supports percentile `p`: at least ten samples
/// must lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) >= 10.0
}

/// The highest of the reported percentiles (p50, p90, p95, p99, p99.9)
/// that a sample of `n` supports, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// Arrival-relative latencies of a synchronous single-threaded server fed
/// at a fixed rate, from its measured back-to-back service times.
///
/// Event `i` arrives at `i / rate`; the server starts it when both the
/// event has arrived and the previous one is done (the Lindley recursion
/// `done_i = max(i / rate, done_{i-1}) + s_i`), so a stall delays every
/// arrival queued behind it.
pub fn lindley(service: &[f64], rate: f64) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut done = 0.0f64;
    service
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let arrival = i as f64 / rate;
            done = arrival.max(done) + s;
            done - arrival
        })
        .collect()
}

/// Whether `rate` is sustainable: the 95th-percentile Lindley latency
/// stays within `limit` and the last arrival does not find a backlog
/// older than `limit` (a growing backlog fails both sooner or later; the
/// second test catches it on short traces).
pub fn sustainable(service: &[f64], rate: f64, limit: f64) -> bool {
    let lat = lindley(service, rate);
    let Some((&last, &s_last)) = lat.last().zip(service.last()) else {
        return true;
    };
    percentile(&sorted(&lat), 0.95) <= limit && last - s_last <= limit
}

/// The highest arrival rate (events/sec, bisected to 1%) that is
/// [`sustainable`]; `0.0` when not even a near-idle server meets the
/// limit. Waits are monotone in the rate for a fixed service sequence,
/// so bisection is exact up to its tolerance.
pub fn sustainable_rate(service: &[f64], limit: f64) -> f64 {
    let total: f64 = service.iter().sum();
    if service.is_empty() || total <= 0.0 {
        return 0.0;
    }
    // Capacity bounds the answer from above: past it the backlog grows.
    let mut hi = service.len() as f64 / total;
    let mut lo = hi * 1e-4;
    if !sustainable(service, lo, limit) {
        return 0.0;
    }
    if sustainable(service, hi, limit) {
        return hi;
    }
    while (hi - lo) / hi > 0.01 {
        let mid = 0.5 * (lo + hi);
        if sustainable(service, mid, limit) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + b.abs())
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&xs);
        assert!(close(q1, 2.75) && close(med, 5.5) && close(q3, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, med, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert!(close(q1, 1.0) && close(med, 2.0) && close(q3, 3.0));
        assert!(close(median(&[4.0, 1.0]), 2.5));
        assert!(close(spread(&xs), 1.0));
    }

    #[test]
    fn picker_wants_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(199), Some(0.9));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(9_999), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert!(supports(xs.len(), 0.95) && !supports(xs.len(), 0.99));
        assert_eq!(percentile(&xs, 0.95), 190.0);
        assert_eq!(percentile(&xs, 0.5), 100.0);
    }

    #[test]
    fn lindley_constant_service_never_waits_below_capacity() {
        let s = vec![0.001; 1000];
        assert!(lindley(&s, 500.0).iter().all(|&l| close(l, 0.001)));
        // At exactly capacity each event starts as the previous ends.
        assert!(lindley(&s, 1000.0)
            .iter()
            .all(|&l| (l - 0.001).abs() < 1e-9));
        let r = sustainable_rate(&s, 0.010);
        assert!((r - 1000.0).abs() <= 10.0, "rate {r}");
    }

    #[test]
    fn lindley_counts_the_wait_behind_one_long_stall() {
        // 100 quick events, one 500 ms stall, then quick ones, at 100/s.
        let mut s = vec![0.001; 1000];
        s[100] = 0.5;
        let lat = lindley(&s, 100.0);
        assert!(close(lat[99], 0.001));
        assert!(close(lat[100], 0.5));
        // Event 101 arrives at 1.01 s, starts at 1.5 s, done at 1.501 s.
        assert!(close(lat[101], 0.491));
        // The queue drains 9 ms per arrival: event 100+k waits 0.5 - 0.009k.
        assert!(close(lat[150], 0.5 - 0.009 * 50.0));
        assert!(close(lat[155], 0.5 - 0.009 * 55.0));
        assert!(close(lat[156], 0.001));
        // 55 of 1000 latencies exceed 10 ms, so p95 breaks the limit at
        // this rate. At most 50 may: the stall itself and the 49 arrivals
        // behind it, so arrival 150 must be within it:
        // 0.5 - 50 (1/R - 0.001) <= 0.010, i.e. R <= 1/0.0108 = 92.59/s.
        assert!(!sustainable(&s, 100.0, 0.010));
        let r = sustainable_rate(&s, 0.010);
        assert!(r > 91.6 && r <= 92.6, "rate {r}");
        assert!(sustainable(&s, r, 0.010));
    }

    #[test]
    fn overload_grows_a_backlog_and_is_not_sustainable() {
        let s = vec![0.002; 2000];
        let lat = lindley(&s, 1000.0);
        // done_i = 2(i+1) ms, arrival = i ms.
        assert!(close(lat[0], 0.002));
        assert!(close(lat[1999], 0.002 * 2000.0 - 1.999));
        assert!(!sustainable(&s, 1000.0, 0.010));
        let r = sustainable_rate(&s, 0.010);
        assert!((r - 500.0).abs() <= 5.0, "rate {r}");
        // Service slower than the limit itself: nothing is sustainable.
        assert_eq!(sustainable_rate(&[0.02; 100], 0.010), 0.0);
    }
}
