//! The benchmark's fixed vocabulary: six workloads and the metric tables.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! ([`manifest_json`]); a test keeps the committed file identical.

use mbta_service::{BudgetMode, FsyncPolicy, Routing};
use mbta_workload::Profile;

/// Seconds one benchmark invocation measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Latency limit of the sustainable-rate search (Lindley p95), seconds.
pub const LATENCY_LIMIT_S: f64 = 0.010;

/// Events per client frame on `cluster_tcp`, and per probed frame.
pub const FRAME_EVENTS: usize = 64;

/// Which driver runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Micro-batched dispatch: latency is per closed batch.
    Batch,
    /// Per-event online dispatch: latency is arrival-relative (Lindley).
    Online,
    /// Router + shard owners over loopback TCP: latency is per frame.
    Cluster,
}

/// One named workload. Sizes were tuned once on the 2-core reference host
/// so that a timed unit lasts 1-2 s and several fit in `RUN_SECONDS`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Fixed name.
    pub name: &'static str,
    /// One line on why it exists.
    pub why: &'static str,
    /// Driver shape.
    pub shape: Shape,
    /// Universe generator profile.
    pub profile: Profile,
    /// Universe workers (per tenant).
    pub workers: usize,
    /// Universe tasks (per tenant).
    pub tasks: usize,
    /// Average worker degree.
    pub degree: f64,
    /// Sessions per worker / postings per task over the horizon.
    pub repeats: u32,
    /// Benefit-drift events woven per lifecycle event.
    pub drift: f64,
    /// Tenants (namespaces); 1 outside the cluster workload.
    pub tenants: usize,
    /// Shards in the plan (owners, for the cluster).
    pub shards: usize,
    /// Task-to-shard routing.
    pub routing: Routing,
    /// Cross-shard boundary-rescue pass.
    pub boundary_pass: bool,
    /// Solve budget mode.
    pub budget: BudgetMode,
    /// Events per batch (count watermark).
    pub batch_max: usize,
    /// Solver threads.
    pub threads: usize,
    /// Online drift threshold (`Some` = per-event dispatch).
    pub online: Option<f64>,
    /// WAL fsync policy (`Some` = a durable store is attached).
    pub wal: Option<FsyncPolicy>,
    /// Records per fsync under `FsyncPolicy::Batch`.
    pub fsync_every: u64,
    /// Fixed arrival rate of the Lindley latency model, events/sec.
    pub rate: f64,
}

/// Trace horizon in stream-time units (shared by every workload).
pub const HORIZON: f64 = 60.0;

const BASE: Workload = Workload {
    name: "",
    why: "",
    shape: Shape::Batch,
    profile: Profile::Uniform,
    workers: 2000,
    tasks: 1000,
    degree: 8.0,
    repeats: 1,
    drift: 0.0,
    tenants: 1,
    shards: 1,
    routing: Routing::HashId,
    boundary_pass: false,
    budget: BudgetMode::Deterministic,
    batch_max: 256,
    threads: 1,
    online: None,
    wal: None,
    // The store's default cadence (the cluster's owners cannot change it).
    fsync_every: 16,
    rate: 0.0,
};

/// The six workloads, in reporting order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "batch_exact",
        why: "Fixed work: every batch solves to the exact tier, so matching::mcmf and core::engine are nearly all of wall and a solver or plumbing speed-up shows as time.",
        workers: 400,
        tasks: 200,
        repeats: 2,
        drift: 0.2,
        batch_max: 96,
        ..BASE
    },
    Workload {
        name: "batch_budget",
        why: "Fixed budget (wall-clock deadline per 256-event batch, as serve runs): throughput is pinned by the knob, so the outcome is quality achieved by the greedy, local-search, exact chain.",
        workers: 1000,
        tasks: 500,
        repeats: 6,
        drift: 0.2,
        budget: BudgetMode::Wallclock(25),
        ..BASE
    },
    Workload {
        name: "online_warm",
        why: "Per-event path: service::online with core::warm and matching::warm fallbacks; shows what an arriving event waits behind a fallback solve, not just the microsecond median.",
        shape: Shape::Online,
        workers: 300,
        tasks: 150,
        repeats: 3,
        drift: 0.2,
        budget: BudgetMode::Wallclock(50),
        online: Some(0.4),
        rate: 1000.0,
        ..BASE
    },
    Workload {
        name: "sharded_rescue",
        why: "Eight min-cut shards with boundary rescue on two solver threads: partition, graph::subgraph, service::pool and the merge dominate while solves are small.",
        workers: 1000,
        tasks: 500,
        repeats: 4,
        drift: 0.2,
        shards: 8,
        routing: Routing::MinCut,
        boundary_pass: true,
        batch_max: 128,
        threads: 2,
        ..BASE
    },
    Workload {
        name: "durable_online",
        why: "Online dispatch with fallbacks rare and a WAL append per deciding event (fsync every 256): store append and fsync are the largest share, and recovery replays what the run wrote.",
        shape: Shape::Online,
        workers: 500,
        tasks: 250,
        repeats: 96,
        drift: 0.2,
        budget: BudgetMode::Wallclock(50),
        online: Some(500.0),
        wal: Some(FsyncPolicy::Batch),
        // Far wider than the default 16: the host disk's flush latency
        // drifts 2x over minutes on the reference host, and at 16 or 64
        // that drift, not the code, set the numbers. The append path
        // (encode, CRC, one write per record) still runs per record.
        fsync_every: 256,
        // Low enough that the arrivals queued behind an fsync stay well
        // under 5% even when the disk is twice as slow: p95 then reads
        // the decision path, not the disk.
        rate: 5000.0,
        ..BASE
    },
    Workload {
        name: "cluster_tcp",
        why: "Two tenants through a router and two shard owners over loopback TCP with per-owner WALs: net framing and admission plus cluster routing, forwarding and FIN drain dominate.",
        shape: Shape::Cluster,
        profile: Profile::Zipfian,
        workers: 1000,
        tasks: 500,
        degree: 6.0,
        // About half a million events and a second of wall per pass: the
        // router's and owners' 50 ms drain polls are then 2-3% of it.
        repeats: 96,
        tenants: 2,
        shards: 2,
        // Owner work is kept light and fixed so that the network path is
        // what the clock reads: fallbacks rare (at 5.0 under a 50 ms
        // budget, twenty deadline-bound solves were most of a pass) and
        // no fsync in the timed region (at the owners' fixed cadence of 16
        // records it was 60% of the owner threads' wall, and the host
        // disk's flush latency moved throughput by 20% for half a minute
        // at a time). The WAL is still appended per deciding event, sealed
        // at finish and audited.
        online: Some(500.0),
        wal: Some(FsyncPolicy::Never),
        ..BASE
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at test scale: a universe an order of magnitude
    /// smaller and a single pass of churn, through the same code paths.
    pub fn smoke(mut self) -> Workload {
        self.workers = (self.workers / 10).max(40);
        self.tasks = (self.tasks / 10).max(20);
        self.repeats = 2;
        self.batch_max = self.batch_max.min(32);
        self
    }
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest keyword.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported on every workload by the untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Definition, one line.
    pub what: &'static str,
}

/// The end-to-end metrics. One bound per metric has to hold on its
/// noisiest workload; every spread (IQR / median over ten seeds) seen in
/// calibration on the reference host is below a third of its bound (times
/// up to 6%). The times keep the contract's cap of 0.25 because the host
/// that checks the benchmark spreads about twice as wide.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "universe + weights + trace + plan + service or cluster construction, before the first event (median over the run's units)",
    },
    EndToEnd {
        name: "events_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "events applied / wall from first offer or frame to finish() or router join returned (closing drain, seal and FIN drain included)",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "batch: closing event offered to sink return; online: arrival at the fixed rate to decided (Lindley); cluster: frame first sent to its events applied by the owners (2 ms report poll)",
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "same samples as latency_p50_ms, 95th percentile",
    },
    EndToEnd {
        name: "quality_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.06,
        what: "mean over 8 evenly spaced checkpoints and the final state of verifier-rebuilt value / exact oracle optimum of the mirrored market (cluster: final state only)",
    },
    EndToEnd {
        name: "mutual_balance",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
        what: "on the final matching: min(sum rb, sum wb) / max(sum rb, sum wb), the paper's two-sided claim",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
        what: "VmHWM of the benchmark process when its first pass (verification included) has finished",
    },
];

/// How a per-layer metric is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Boundary stamp around a call the driver makes.
    B,
    /// Probe after the run, on inputs captured from it.
    P,
    /// Differential: same trace, feature on vs off.
    D,
    /// Diff of the program's own registry / report counters.
    R,
    /// End-to-end definition that does not apply to every workload.
    E,
}

impl Source {
    /// One-letter tag.
    pub fn tag(self) -> &'static str {
        match self {
            Source::B => "B",
            Source::P => "P",
            Source::D => "D",
            Source::R => "R",
            Source::E => "E",
        }
    }
}

/// A per-layer metric: reported on every workload by the traced run
/// (`0` where the layer does no work on that workload).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// How it is taken.
    pub source: Source,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Better::{Higher, Lower};
use Source::{B, D, E, P, R};

const M_SETUP: &str = "setup_s on all";
const M_SHARD: &str = "setup_s, events_per_sec on sharded_rescue";
const M_PART: &str = "events_per_sec, latency_*, quality_ratio on sharded_rescue";
const M_MCMF: &str = "events_per_sec, latency_* on batch_exact (about 1:1) and sharded_rescue; quality_ratio, service.tier_exact_share on batch_budget";
const M_APPROX: &str = "quality_ratio on batch_budget only";
const M_WARM: &str =
    "events_per_sec, latency_p95_ms, latency_p999_ms, sustainable_eps on online_warm";
const M_ENGINE: &str = "events_per_sec, latency_* on batch_exact, batch_budget";
const M_INCR: &str = "latency_p50_ms on online_warm, durable_online";
const M_SVC: &str = "events_per_sec on the workload that reports it";
const M_PLUMB: &str = "events_per_sec on sharded_rescue, online_warm; small on batch_exact";
const M_SLOW: &str = "sustainable_eps on online_warm";
const M_FINISH: &str = "events_per_sec only, never latency_*";
const M_POOL: &str = "events_per_sec on sharded_rescue only";
const M_STORE: &str =
    "events_per_sec, latency_*, sustainable_eps on durable_online; slight on cluster_tcp";
const M_REPLAY: &str = "recover_s on durable_online";
const M_NET: &str = "events_per_sec, latency_* on cluster_tcp only";
const M_GUARD: &str = "guard: below 0.03 (telemetry) and 0.05 (bench)";
const M_E2E: &str = "end-to-end definition, reported where it applies";

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: [PerLayer; 85] = [
    pl("workload.universe_gen_s", "s", Lower, B, M_SETUP),
    pl("workload.trace_gen_s", "s", Lower, B, M_SETUP),
    pl("market.edge_weights_s", "s", Lower, B, M_SETUP),
    pl("market.weights_ns_per_edge", "ns", Lower, B, M_SETUP),
    pl("graph.induce_ms", "ms", Lower, P, M_SHARD),
    pl("graph.edges", "count", Higher, R, M_SHARD),
    pl("partition.plan_build_s", "s", Lower, B, M_SHARD),
    pl("partition.mincut_plan_ms", "ms", Lower, P, M_SHARD),
    pl("partition.retained_fraction", "ratio", Higher, R, M_PART),
    pl("partition.effective_retained", "ratio", Higher, R, M_PART),
    pl("partition.rescue_solves", "count", Lower, R, M_PART),
    pl("partition.rescued_weight_share", "ratio", Higher, R, M_PART),
    pl("partition.rescue_s", "s", Lower, D, M_PART),
    pl("partition.rescue_quality_gain", "ratio", Higher, D, M_PART),
    pl("matching.mcmf_ms", "ms", Lower, P, M_MCMF),
    pl("matching.mcmf_iterations", "count", Lower, P, M_MCMF),
    pl("matching.mcmf_potential_updates", "count", Lower, P, M_MCMF),
    pl("matching.greedy_ms", "ms", Lower, P, M_APPROX),
    pl("matching.local_search_ms", "ms", Lower, P, M_APPROX),
    pl("matching.greedy_ratio", "ratio", Higher, P, M_APPROX),
    pl("matching.local_ratio", "ratio", Higher, P, M_APPROX),
    pl("matching.warm_resolve_ms", "ms", Lower, P, M_WARM),
    pl("matching.warm_cold_ms", "ms", Lower, P, M_WARM),
    pl("core.solve_robust_ms", "ms", Lower, P, M_ENGINE),
    pl("core.engine_overhead_share", "ratio", Lower, P, M_ENGINE),
    pl("core.incremental_event_us", "us", Lower, P, M_INCR),
    pl("core.active_weights_us", "us", Lower, P, M_ENGINE),
    pl("core.reseed_us", "us", Lower, P, M_ENGINE),
    pl("core.warm_solve_ms", "ms", Lower, P, M_WARM),
    pl("core.warm_hit_share", "ratio", Higher, R, M_WARM),
    pl("core.engine_exact_ms_sum", "ms", Lower, R, M_ENGINE),
    pl("core.engine_greedy_ms_sum", "ms", Lower, R, M_ENGINE),
    pl("core.engine_local_ms_sum", "ms", Lower, R, M_ENGINE),
    pl("service.new_s", "s", Lower, B, M_SETUP),
    pl("service.offer_s", "s", Lower, B, M_SVC),
    pl("service.pump_s", "s", Lower, B, M_SVC),
    pl("service.finish_s", "s", Lower, B, M_FINISH),
    pl("service.sink_s", "s", Lower, B, M_SVC),
    pl("service.solve_s", "s", Lower, B, M_SVC),
    pl("service.plumbing_s", "s", Lower, B, M_PLUMB),
    pl(
        "service.stage_cover",
        "ratio",
        Higher,
        B,
        "guard: within 0.05 of 1",
    ),
    pl("service.online_slow_share", "ratio", Lower, B, M_SLOW),
    pl("service.batches", "count", Lower, R, M_SVC),
    pl("service.solves", "count", Lower, R, M_SVC),
    pl("service.reseed_share", "ratio", Higher, R, M_SVC),
    pl("service.decisions", "count", Lower, R, M_SVC),
    pl(
        "service.tier_exact_share",
        "ratio",
        Higher,
        R,
        "quality_ratio on batch_budget",
    ),
    pl("service.deferrals", "count", Lower, R, M_SVC),
    pl("service.queue_peak", "count", Lower, R, M_SVC),
    pl("service.pool_steals", "count", Lower, R, M_POOL),
    pl("service.online_fallbacks", "count", Lower, R, M_WARM),
    pl("service.online_exchanges", "count", Higher, R, M_INCR),
    pl("store.commit_us_p50", "us", Lower, P, M_STORE),
    pl("store.commit_us_p95", "us", Lower, P, M_STORE),
    pl("store.bytes_per_record", "B", Lower, P, M_STORE),
    pl("store.snapshot_ms", "ms", Lower, P, M_STORE),
    pl("store.replay_records_per_sec", "1/s", Higher, P, M_REPLAY),
    pl("store.recover_ms", "ms", Lower, P, M_REPLAY),
    pl("store.run_share", "ratio", Lower, D, M_STORE),
    pl("store.wal_records", "count", Lower, R, M_STORE),
    pl("store.wal_bytes", "B", Lower, R, M_STORE),
    pl("store.fsync_ms_sum", "ms", Lower, R, M_STORE),
    pl("net.encode_us_per_frame", "us", Lower, P, M_NET),
    pl("net.decode_us_per_frame", "us", Lower, P, M_NET),
    pl("net.bytes_per_event", "B", Lower, P, M_NET),
    pl("net.loopback_rtt_us_p50", "us", Lower, P, M_NET),
    pl("net.admission_rtt_us_p50", "us", Lower, B, M_NET),
    pl("net.frames", "count", Lower, R, M_NET),
    pl("net.retry_after_share", "ratio", Lower, R, M_NET),
    pl("cluster.spawn_s", "s", Lower, B, "setup_s on cluster_tcp"),
    pl("cluster.send_s", "s", Lower, B, M_NET),
    pl("cluster.fin_drain_s", "s", Lower, B, M_NET),
    pl("cluster.vs_inprocess_ratio", "ratio", Higher, B, M_NET),
    pl("cluster.admitted", "count", Higher, R, M_NET),
    pl("cluster.forwarded", "count", Higher, R, M_NET),
    pl("cluster.degraded", "count", Lower, R, M_NET),
    pl("cluster.cross_benefit", "count", Lower, R, M_NET),
    pl("telemetry.overhead_share", "ratio", Lower, D, M_GUARD),
    pl("bench.trace_overhead_share", "ratio", Lower, D, M_GUARD),
    pl("bench.loop_share", "ratio", Lower, D, M_GUARD),
    pl("latency_p999_ms", "ms", Lower, E, M_E2E),
    pl("sustainable_eps", "1/s", Higher, E, M_E2E),
    pl("recover_s", "s", Lower, E, M_E2E),
    pl("failed_share", "ratio", Lower, E, M_E2E),
    pl("latency_samples", "count", Higher, E, M_E2E),
];

/// The layer a per-layer metric belongs to (`e2e` for the end-to-end
/// definitions that do not apply to every workload).
pub fn layer_of(name: &str) -> &str {
    name.split_once('.').map_or("e2e", |(layer, _)| layer)
}

/// The directory that holds the benchmark, relative to the repo root.
pub const BENCH_DIR: &str = "sysbench";

/// `s` as a JSON string literal (the tables hold printable ASCII only).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `BENCHMARK.json`: exactly the keys the builder contract names.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name()),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name())
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", ",
            "\"--manifest-path\", \"{dir}/Cargo.toml\", \"--bin\", \"mbta-bench\", \"--\", \"run\"],\n",
            "  \"paths\": [\"{dir}\"],\n",
            "  \"run_seconds\": {secs},\n",
            "  \"workloads\": [\n{workloads}\n  ],\n",
            "  \"end_to_end\": [\n{e2e}\n  ],\n",
            "  \"per_layer\": [\n{layers}\n  ]\n",
            "}}\n"
        ),
        dir = BENCH_DIR,
        secs = RUN_SECONDS,
        workloads = workloads.join(",\n"),
        e2e = e2e.join(",\n"),
        layers = layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = BTreeSet::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in &END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        assert!(manifest_json().len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `mbta-bench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn smoke_scale_keeps_the_shape() {
        for w in WORKLOADS {
            let s = w.smoke();
            assert_eq!(
                (s.shape, s.shards, s.online, s.wal),
                (w.shape, w.shards, w.online, w.wal)
            );
            assert!(s.workers * s.repeats as usize <= w.workers * w.repeats as usize);
        }
        assert_eq!(layer_of("store.run_share"), "store");
        assert_eq!(layer_of("recover_s"), "e2e");
    }
}
