//! Snapshots and exporters: Prometheus text exposition, JSON, and
//! interval diffs.
//!
//! A [`Snapshot`] is a point-in-time, plain-data copy of a [`Registry`] —
//! comparable with `==`, which is what the round-trip test
//! (snapshot → prometheus text → parse → same values) leans on. Metric
//! names may carry labels inline (`base{k="v"}`); the Prometheus writer
//! splits them out and merges its own `le` / `stat` labels in.
//!
//! Label values are restricted to `[A-Za-z0-9_.-]` (no quotes, commas, or
//! backslashes) — every label this workspace emits is a shard index, tier
//! name, or policy name, so the writer and parser skip escaping entirely.

use crate::hist::{bucket_index, bucket_upper, quantile_from, N_BUCKETS, N_FINITE};
use crate::registry::{MetricEntry, Registry};
use std::fmt::Write as _;

/// Plain-data copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Per-bucket counts, index order (see [`crate::hist`]).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Exact smallest observation (0.0 when empty).
    pub min: f64,
    /// Exact largest observation (0.0 when empty).
    pub max: f64,
}

impl HistSnapshot {
    /// Estimated `q`-quantile (interpolated within the target bucket,
    /// clamped to the exact extrema).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from(&self.buckets, self.min, self.max, q)
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Plain-data copy of one metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge last value plus running distribution over all sets.
    Gauge {
        /// Most recently set value.
        last: f64,
        /// Number of sets.
        count: u64,
        /// Mean of all sets.
        mean: f64,
        /// Smallest set value (0.0 when never set).
        min: f64,
        /// Largest set value (0.0 when never set).
        max: f64,
    },
    /// Histogram contents.
    Histogram(HistSnapshot),
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Full metric name, labels inline (`base{k="v"}`).
    pub name: String,
    /// The captured value.
    pub value: MetricValue,
}

/// Point-in-time copy of a registry, sorted by metric name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// All metrics, sorted by name.
    pub metrics: Vec<Metric>,
}

fn sanitize(v: f64) -> f64 {
    // Empty-accumulator NaN sentinels become 0.0 so snapshots stay
    // PartialEq-comparable and text exports stay parseable.
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

impl Registry {
    /// Captures every registered metric. Concurrent recorders keep
    /// running; per-metric reads are atomic, cross-metric consistency is
    /// best-effort (standard for scrape-based telemetry).
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self
            .entries()
            .into_iter()
            .map(|(name, entry)| {
                let value = match entry {
                    MetricEntry::Counter(c) => MetricValue::Counter(c.get()),
                    MetricEntry::Gauge(g) => {
                        let s = g.stats();
                        MetricValue::Gauge {
                            last: g.last(),
                            count: s.count(),
                            mean: s.mean(),
                            min: sanitize(s.min()),
                            max: sanitize(s.max()),
                        }
                    }
                    MetricEntry::Histogram(h) => MetricValue::Histogram(HistSnapshot {
                        buckets: h.bucket_counts().to_vec(),
                        count: h.count(),
                        sum: h.sum(),
                        min: h.min(),
                        max: h.max(),
                    }),
                };
                Metric { name, value }
            })
            .collect();
        Snapshot { metrics }
    }
}

/// Splits `base{k="v",k2="v2"}` into `("base", "k=\"v\",k2=\"v2\"")`.
/// The label part is empty for unlabeled names.
fn split_labels(name: &str) -> (&str, &str) {
    match (name.find('{'), name.ends_with('}')) {
        (Some(i), true) => (&name[..i], &name[i + 1..name.len() - 1]),
        _ => (name, ""),
    }
}

/// Joins a base name with existing labels plus one extra `k="v"` pair.
fn with_labels(base: &str, labels: &str, extra: Option<(&str, &str)>) -> String {
    let mut parts = Vec::new();
    if !labels.is_empty() {
        parts.push(labels.to_owned());
    }
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        base.to_owned()
    } else {
        format!("{base}{{{}}}", parts.join(","))
    }
}

impl Snapshot {
    /// Renders the snapshot in Prometheus text exposition format.
    ///
    /// Families share one `# TYPE` line. Histograms emit cumulative
    /// `_bucket{le=...}` lines for non-empty buckets (plus `+Inf`),
    /// `_sum` / `_count`, and non-standard `_min` / `_max` lines carrying
    /// the exact extrema. Gauges emit the last value plus
    /// `{stat="count|mean|min|max"}` lines from the running
    /// distribution.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for m in &self.metrics {
            let (base, labels) = split_labels(&m.name);
            match &m.value {
                MetricValue::Counter(v) => {
                    if last_family != base {
                        writeln!(out, "# TYPE {base} counter").unwrap();
                        last_family = base.to_owned();
                    }
                    writeln!(out, "{} {v}", with_labels(base, labels, None)).unwrap();
                }
                MetricValue::Gauge {
                    last,
                    count,
                    mean,
                    min,
                    max,
                } => {
                    if last_family != base {
                        writeln!(out, "# TYPE {base} gauge").unwrap();
                        last_family = base.to_owned();
                    }
                    writeln!(out, "{} {last}", with_labels(base, labels, None)).unwrap();
                    let stat = |k: &str| with_labels(base, labels, Some(("stat", k)));
                    writeln!(out, "{} {count}", stat("count")).unwrap();
                    writeln!(out, "{} {mean}", stat("mean")).unwrap();
                    writeln!(out, "{} {min}", stat("min")).unwrap();
                    writeln!(out, "{} {max}", stat("max")).unwrap();
                }
                MetricValue::Histogram(h) => {
                    if last_family != base {
                        writeln!(out, "# TYPE {base} histogram").unwrap();
                        last_family = base.to_owned();
                    }
                    let bucket = format!("{base}_bucket");
                    let mut cum = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        cum += c;
                        if c == 0 && i < N_FINITE {
                            continue;
                        }
                        let le = if i < N_FINITE {
                            bucket_upper(i).to_string()
                        } else {
                            "+Inf".to_owned()
                        };
                        writeln!(
                            out,
                            "{} {cum}",
                            with_labels(&bucket, labels, Some(("le", &le)))
                        )
                        .unwrap();
                    }
                    let part =
                        |suffix: &str| with_labels(&format!("{base}_{suffix}"), labels, None);
                    writeln!(out, "{} {}", part("sum"), h.sum).unwrap();
                    writeln!(out, "{} {}", part("count"), h.count).unwrap();
                    writeln!(out, "{} {}", part("min"), h.min).unwrap();
                    writeln!(out, "{} {}", part("max"), h.max).unwrap();
                }
            }
        }
        out
    }

    /// Parses text produced by [`Snapshot::to_prometheus`] back into a
    /// snapshot equal to the original (`f64` text round-trips exactly in
    /// Rust, and `le` bounds map back to bucket slots via
    /// [`bucket_index`]).
    ///
    /// This is a reader for our own exposition subset, not a general
    /// Prometheus parser: it relies on the `# TYPE` lines this writer
    /// emits.
    pub fn parse_prometheus(text: &str) -> Result<Snapshot, String> {
        use std::collections::BTreeMap;

        #[derive(Default)]
        struct HistAcc {
            cum: Vec<(usize, u64)>, // (bucket index, cumulative count)
            sum: f64,
            count: u64,
            min: f64,
            max: f64,
        }

        let mut families: BTreeMap<String, &str> = BTreeMap::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, [f64; 5]> = BTreeMap::new(); // last,count,mean,min,max
        let mut hists: BTreeMap<String, HistAcc> = BTreeMap::new();

        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let fam = it.next().ok_or("bare TYPE line")?;
                let kind = it.next().ok_or("TYPE line without kind")?;
                let kind = match kind {
                    "counter" => "counter",
                    "gauge" => "gauge",
                    "histogram" => "histogram",
                    other => return Err(format!("unknown metric kind {other:?}")),
                };
                families.insert(fam.to_owned(), kind);
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed sample line {line:?}"))?;
            let (base, labels) = split_labels(name);

            // Resolve the owning family: exact base match first, then the
            // histogram sub-series suffixes.
            let (family, kind, suffix) = if let Some(&k) = families.get(base) {
                (base.to_owned(), k, "")
            } else {
                let mut found = None;
                for suffix in ["_bucket", "_sum", "_count", "_min", "_max"] {
                    if let Some(fam) = base.strip_suffix(suffix) {
                        if families.get(fam) == Some(&"histogram") {
                            found = Some((fam.to_owned(), "histogram", suffix));
                            break;
                        }
                    }
                }
                found.ok_or_else(|| format!("sample {name:?} has no # TYPE family"))?
            };

            // Pull writer-added labels (`le`, `stat`) out; the rest is the
            // metric's own label set, restored to its inline-name form.
            let mut own = Vec::new();
            let mut le = None;
            let mut stat = None;
            for pair in labels.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("malformed label {pair:?}"))?;
                let v = v.trim_matches('"');
                match k {
                    "le" => le = Some(v.to_owned()),
                    "stat" if kind == "gauge" => stat = Some(v.to_owned()),
                    _ => own.push(format!("{k}=\"{v}\"")),
                }
            }
            let key = if own.is_empty() {
                family.clone()
            } else {
                format!("{family}{{{}}}", own.join(","))
            };
            let parse_f = |s: &str| -> Result<f64, String> {
                s.parse::<f64>()
                    .map_err(|e| format!("bad value {s:?}: {e}"))
            };

            match kind {
                "counter" => {
                    counters.insert(key, value.parse().map_err(|e| format!("{e}"))?);
                }
                "gauge" => {
                    let slot = match stat.as_deref() {
                        None => 0,
                        Some("count") => 1,
                        Some("mean") => 2,
                        Some("min") => 3,
                        Some("max") => 4,
                        Some(other) => return Err(format!("unknown gauge stat {other:?}")),
                    };
                    gauges.entry(key).or_default()[slot] = parse_f(value)?;
                }
                _ => {
                    let acc = hists.entry(key).or_default();
                    match suffix {
                        "_bucket" => {
                            let le = le.ok_or("histogram bucket without le label")?;
                            let idx = if le == "+Inf" {
                                N_BUCKETS - 1
                            } else {
                                bucket_index(parse_f(&le)?)
                            };
                            acc.cum
                                .push((idx, value.parse().map_err(|e| format!("{e}"))?));
                        }
                        "_sum" => acc.sum = parse_f(value)?,
                        "_count" => acc.count = value.parse().map_err(|e| format!("{e}"))?,
                        "_min" => acc.min = parse_f(value)?,
                        "_max" => acc.max = parse_f(value)?,
                        _ => return Err(format!("unexpected histogram sample {name:?}")),
                    }
                }
            }
        }

        let mut metrics = Vec::new();
        for (name, v) in counters {
            metrics.push(Metric {
                name,
                value: MetricValue::Counter(v),
            });
        }
        for (name, [last, count, mean, min, max]) in gauges {
            metrics.push(Metric {
                name,
                value: MetricValue::Gauge {
                    last,
                    count: count as u64,
                    mean,
                    min,
                    max,
                },
            });
        }
        for (name, mut acc) in hists {
            acc.cum.sort_by_key(|&(idx, _)| idx);
            let mut buckets = vec![0u64; N_BUCKETS];
            let mut prev = 0u64;
            for (idx, cum) in acc.cum {
                if idx >= N_BUCKETS {
                    return Err(format!("bucket index {idx} out of range for {name:?}"));
                }
                buckets[idx] = cum
                    .checked_sub(prev)
                    .ok_or_else(|| format!("non-monotone cumulative buckets for {name:?}"))?;
                prev = cum;
            }
            metrics.push(Metric {
                name,
                value: MetricValue::Histogram(HistSnapshot {
                    buckets,
                    count: acc.count,
                    sum: acc.sum,
                    min: acc.min,
                    max: acc.max,
                }),
            });
        }
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Snapshot { metrics })
    }

    /// Renders the snapshot as a JSON document (hand-rolled — the
    /// telemetry crate takes no serialization dependency).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\n  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i + 1 < self.metrics.len() { "," } else { "" };
            match &m.value {
                MetricValue::Counter(v) => {
                    writeln!(
                        out,
                        "    {{\"name\": \"{}\", \"type\": \"counter\", \"value\": {v}}}{sep}",
                        esc(&m.name)
                    )
                    .unwrap();
                }
                MetricValue::Gauge {
                    last,
                    count,
                    mean,
                    min,
                    max,
                } => {
                    writeln!(
                        out,
                        "    {{\"name\": \"{}\", \"type\": \"gauge\", \"last\": {last}, \
                         \"count\": {count}, \"mean\": {mean}, \"min\": {min}, \"max\": {max}}}{sep}",
                        esc(&m.name)
                    )
                    .unwrap();
                }
                MetricValue::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, &c)| format!("[{i}, {c}]"))
                        .collect();
                    writeln!(
                        out,
                        "    {{\"name\": \"{}\", \"type\": \"histogram\", \"count\": {}, \
                         \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p99\": {}, \
                         \"buckets\": [{}]}}{sep}",
                        esc(&m.name),
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        h.quantile(0.5),
                        h.quantile(0.99),
                        buckets.join(", ")
                    )
                    .unwrap();
                }
            }
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Interval scraper: remembers the previous snapshot and yields deltas.
///
/// Counters and histogram buckets / counts / sums subtract; gauges pass
/// through unchanged (a gauge delta is meaningless); histogram min / max
/// stay cumulative because per-interval extrema are not recoverable from
/// a snapshot pair. Metrics registered since the base snapshot appear
/// whole.
#[derive(Debug, Default)]
pub struct RegistryDiff {
    base: Option<Snapshot>,
}

impl RegistryDiff {
    /// Creates a diff with no base — the first [`RegistryDiff::advance`]
    /// returns its input unchanged.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `cur - base` and makes `cur` the new base. A metric the
    /// base lacks diffs to its full value. Both snapshots are sorted by
    /// name (as [`Registry::snapshot`] makes them), so one merge walk
    /// pairs them up; the output keeps `cur`'s order.
    pub fn advance(&mut self, cur: Snapshot) -> Snapshot {
        debug_assert!(cur.metrics.is_sorted_by(|a, b| a.name < b.name));
        let out = match &self.base {
            None => cur.clone(),
            Some(base) => {
                let mut base = base.metrics.iter().peekable();
                let metrics = cur.metrics.iter().map(|m| {
                    while base.next_if(|b| b.name < m.name).is_some() {}
                    let prev = base.next_if(|b| b.name == m.name);
                    let value = match (&m.value, prev.map(|p| &p.value)) {
                        (MetricValue::Counter(c), Some(MetricValue::Counter(p))) => {
                            MetricValue::Counter(c.saturating_sub(*p))
                        }
                        (MetricValue::Histogram(h), Some(MetricValue::Histogram(p))) => {
                            MetricValue::Histogram(HistSnapshot {
                                buckets: h
                                    .buckets
                                    .iter()
                                    .zip(&p.buckets)
                                    .map(|(a, b)| a.saturating_sub(*b))
                                    .collect(),
                                count: h.count.saturating_sub(p.count),
                                sum: h.sum - p.sum,
                                min: h.min,
                                max: h.max,
                            })
                        }
                        (v, _) => v.clone(),
                    };
                    Metric {
                        name: m.name.clone(),
                        value,
                    }
                });
                Snapshot {
                    metrics: metrics.collect(),
                }
            }
        };
        self.base = Some(cur);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("mbta_test_events_total").add(11);
        r.counter("mbta_test_tier_total{tier=\"exact\"}").add(7);
        r.counter("mbta_test_tier_total{tier=\"degraded\"}").add(2);
        let g = r.gauge("mbta_test_queue_depth");
        g.set(4.0);
        g.set(9.0);
        let h = r.histogram("mbta_test_solve_ms{shard=\"3\"}");
        for v in [0.5, 1.5, 1.5, 200.0] {
            h.observe(v);
        }
        r.histogram("mbta_test_empty_ms");
        r
    }

    #[test]
    fn prometheus_round_trip_is_exact() {
        let snap = sample_registry().snapshot();
        let text = snap.to_prometheus();
        let parsed = Snapshot::parse_prometheus(&text).expect("parse");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_text_shape() {
        let text = sample_registry().snapshot().to_prometheus();
        assert!(text.contains("# TYPE mbta_test_events_total counter"));
        assert!(text.contains("mbta_test_events_total 11"));
        assert!(text.contains("mbta_test_tier_total{tier=\"exact\"} 7"));
        assert!(text.contains("mbta_test_queue_depth 9"));
        assert!(text.contains("mbta_test_queue_depth{stat=\"count\"} 2"));
        assert!(text.contains("mbta_test_solve_ms_bucket{shard=\"3\",le=\"+Inf\"} 4"));
        assert!(text.contains("mbta_test_solve_ms_count{shard=\"3\"} 4"));
        // One TYPE line per family, not per labeled series.
        assert_eq!(text.matches("# TYPE mbta_test_tier_total").count(), 1);
    }

    #[test]
    fn json_contains_all_metrics() {
        let json = sample_registry().snapshot().to_json();
        for name in [
            "mbta_test_events_total",
            "mbta_test_tier_total{tier=\\\"exact\\\"}",
            "mbta_test_queue_depth",
            "mbta_test_solve_ms{shard=\\\"3\\\"}",
        ] {
            assert!(json.contains(name), "missing {name} in {json}");
        }
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn diff_subtracts_counters_and_histograms() {
        let r = sample_registry();
        let mut diff = RegistryDiff::new();
        let first = diff.advance(r.snapshot());
        assert_eq!(first, r.snapshot());

        r.counter("mbta_test_events_total").add(5);
        r.histogram("mbta_test_solve_ms{shard=\"3\"}").observe(3.0);
        let delta = diff.advance(r.snapshot());

        let get = |name: &str| {
            delta
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value.clone())
                .unwrap()
        };
        assert_eq!(get("mbta_test_events_total"), MetricValue::Counter(5));
        match get("mbta_test_solve_ms{shard=\"3\"}") {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.buckets.iter().sum::<u64>(), 1);
                assert!((h.sum - 3.0).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unchanged counters delta to zero.
        assert_eq!(
            get("mbta_test_tier_total{tier=\"exact\"}"),
            MetricValue::Counter(0)
        );
    }

    #[test]
    fn a_base_metric_the_current_snapshot_lacks_is_stepped_over() {
        // Registries never drop a metric, but snapshots parsed from two
        // files can differ either way.
        let r = sample_registry();
        let mut diff = RegistryDiff::new();
        diff.advance(r.snapshot());
        r.counter("mbta_test_tier_total{tier=\"exact\"}").add(3);
        let mut cur = r.snapshot();
        cur.metrics.retain(|m| m.name != "mbta_test_events_total");
        let delta = diff.advance(cur);
        let get = |name: &str| {
            let m = delta.metrics.iter().find(|m| m.name == name).unwrap();
            m.value.clone()
        };
        let tier = |t: &str| get(&format!("mbta_test_tier_total{{tier=\"{t}\"}}"));
        assert_eq!(tier("degraded"), MetricValue::Counter(0));
        assert_eq!(tier("exact"), MetricValue::Counter(3));
    }

    #[test]
    fn a_metric_new_since_the_base_diffs_to_its_full_value_in_order() {
        let r = sample_registry();
        let mut diff = RegistryDiff::new();
        diff.advance(r.snapshot());
        // Sorts first, last and between the existing names.
        r.counter("mbta_a_new_total").add(4);
        r.counter("mbta_test_events_total").add(1);
        r.histogram("mbta_test_new_ms").observe(2.0);
        r.counter("mbta_zz_new_total").add(9);
        let cur = r.snapshot();
        let delta = diff.advance(cur.clone());
        let names = |s: &Snapshot| s.metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&delta), names(&cur));
        let get = |name: &str| {
            let m = delta.metrics.iter().find(|m| m.name == name).unwrap();
            m.value.clone()
        };
        assert_eq!(get("mbta_a_new_total"), MetricValue::Counter(4));
        assert_eq!(get("mbta_zz_new_total"), MetricValue::Counter(9));
        assert_eq!(get("mbta_test_events_total"), MetricValue::Counter(1));
        match get("mbta_test_new_ms") {
            MetricValue::Histogram(h) => assert_eq!((h.count, h.sum), (1, 2.0)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
