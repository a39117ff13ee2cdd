//! Golden byte-identity guard for the dispatch service.
//!
//! One seeded universe and one seeded event stream are driven, under
//! `BudgetMode::Deterministic`, through every dispatch mode the service
//! has: batch (1 shard; 4 shards at `threads` 1 and 4), min-cut 8 shards
//! with the boundary pass, online, online + WAL, a shard owner's view
//! (each shard of a 4-shard plan, fed only the events the plan routes to
//! it — what a cluster router forwards — in batch and online mode), and
//! the `replan_threshold` detach → rebuild → resume epoch loop + WAL. Each run's `WriteSink`
//! decision log and — where a store is attached — the bytes the store left
//! on disk (WAL segments and the sealing snapshot) are hashed and compared
//! against the constants below. Runs with a store also check that
//! `recover()` equals the live state, both on a crash copy taken before
//! `finish` (pure WAL replay past the last snapshot) and on the sealed
//! directory.
//!
//! **The constants were captured at the commit before the dispatch-core
//! refactor (the `owned-*` ones at the commit before shard ownership left
//! the core, by driving that commit's owned service through the same
//! filter) and are re-pinned only by a PR that intends to change decisions
//! or the WAL format.** A refactor that trips this test has
//! changed behaviour; fix the refactor, not the constants. To re-pin on
//! purpose, run `GOLDEN_PRINT=1 cargo test --test dispatch_golden --
//! --nocapture` and paste the printed table.

use mbta::graph::random::{random_bipartite, RandomGraphSpec};
use mbta::graph::BipartiteGraph;
use mbta::service::{
    recover, Action, Arrival, BatchConfig, BatchStats, BenefitDrift, BudgetMode, Decision,
    DecisionSink, DispatchService, DropPolicy, DurableStore, FsyncPolicy, OfferOutcome,
    OnlineConfig, RecoveredState, Route, Routing, ServiceConfig, ServiceReport, ShardPlan,
    StoreConfig, WriteSink,
};
use mbta::workload::trace::TraceSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// `(scenario, decision-log hash, store-bytes hash)`; the store hash is 0
/// for scenarios that run without a WAL.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("batch-1", 0xde53e9b20851dff1, 0x0000000000000000),
    ("batch-4-t1", 0x4d8af7941ab1f595, 0x8613414163f5bb1c),
    ("batch-4-t4", 0x4d8af7941ab1f595, 0x8613414163f5bb1c),
    (
        "mincut-8-boundary-t1",
        0x573905afa8ad6c0a,
        0x054b71a089702f0c,
    ),
    (
        "mincut-8-boundary-t4",
        0x573905afa8ad6c0a,
        0x054b71a089702f0c,
    ),
    ("online", 0x395d1159e9c0d6b4, 0x0000000000000000),
    ("online-wal", 0x395d1159e9c0d6b4, 0xe8bf652e36e9ac67),
    ("replan-wal", 0xe78f9c9598a243b5, 0x8ae24e11dae506f8),
    (
        "replan-boundary-wal",
        0x7946739a1d1bf2fe,
        0xde8f335ae3869e70,
    ),
    ("replan-online-wal", 0x8f5b6d9e24195d61, 0x85b9b09c65acc81b),
    ("owned-0", 0x31b046fbbd849514, 0x62bc685fbc0d2ffb),
    ("owned-1-online", 0x2c657962c83611c2, 0x774bfad23f13e4f2),
    ("owned-2", 0xb4440702337bfd72, 0x0000000000000000),
    ("owned-3", 0xba2e1afcdd605f28, 0x0000000000000000),
];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn universe() -> (BipartiteGraph, Vec<f64>) {
    let g = random_bipartite(
        &RandomGraphSpec {
            n_workers: 120,
            n_tasks: 90,
            avg_degree: 6.0,
            capacity: 2,
            demand: 2,
        },
        91,
    );
    let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
    (g, w)
}

fn stream(g: &BipartiteGraph) -> Vec<Arrival> {
    let trace = TraceSpec {
        horizon: 60.0,
        mean_session: 20.0,
        mean_task_lifetime: 25.0,
        seed: 23,
    }
    .generate(g.n_workers(), g.n_tasks());
    BenefitDrift::new(g, 0.3, 23).weave(trace.into_iter().map(Arrival::from_trace))
}

struct Scenario {
    name: &'static str,
    shards: usize,
    routing: Routing,
    threads: usize,
    boundary_pass: bool,
    online: Option<f64>,
    /// Drive as the owner of this one shard: events the plan routes to
    /// another shard never reach the service.
    owner: Option<usize>,
    replan_threshold: Option<f64>,
    wal: bool,
}

const BATCH: Scenario = Scenario {
    name: "",
    shards: 4,
    routing: Routing::HashId,
    threads: 1,
    boundary_pass: false,
    online: None,
    owner: None,
    replan_threshold: None,
    wal: false,
};

impl Scenario {
    fn config(&self) -> ServiceConfig {
        ServiceConfig {
            batch: BatchConfig {
                max_events: 24,
                max_bytes: 1 << 20,
                flush_interval: 4.0,
            },
            queue_cap: 4096,
            drop_policy: DropPolicy::Defer,
            budget: BudgetMode::Deterministic,
            threads: self.threads,
            boundary_pass: self.boundary_pass,
            online: self
                .online
                .map(|drift_threshold| OnlineConfig { drift_threshold }),
        }
    }
}

/// Writes the decision log and tracks the live assignment the decisions
/// add up to (edge → the shard that assigned it) — the state `recover()`
/// must reproduce.
struct TrackingSink {
    log: WriteSink<Vec<u8>>,
    live: BTreeMap<u32, u32>,
    /// Decisions that arrived with a re-plan's migration commit (no
    /// events, no shard touched).
    migration_unassigns: usize,
}

impl DecisionSink for TrackingSink {
    fn on_batch(&mut self, stats: &BatchStats, decisions: &[Decision]) {
        self.log.on_batch(stats, decisions);
        if stats.events == 0 && stats.shards_touched == 0 {
            self.migration_unassigns += decisions.len();
        }
        for d in decisions {
            match d.action {
                Action::Assign => {
                    assert!(self.live.insert(d.edge, d.shard).is_none(), "double assign")
                }
                // A re-plan relabels shards, so only the edge must match.
                Action::Unassign => assert!(
                    self.live.remove(&d.edge).is_some(),
                    "unassign of an edge never announced: {d:?} at seq {}",
                    stats.seq
                ),
            }
        }
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mbta-dispatch-golden-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sorted_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

/// `recovered` holds exactly the edges the sink saw assigned. A re-plan
/// relabels shards wholesale without re-announcing still-assigned edges,
/// so after one only the edge union is comparable.
fn assert_recovered(
    recovered: &RecoveredState,
    sink: &TrackingSink,
    watermark: u64,
    replans: bool,
) {
    assert_eq!(recovered.watermark, watermark);
    if replans {
        let got: BTreeSet<u32> = recovered.shards.iter().flatten().copied().collect();
        let want: BTreeSet<u32> = sink.live.keys().copied().collect();
        assert_eq!(got, want, "recovered edge union diverged from live state");
        assert_eq!(recovered.assignments(), want.len(), "edge in two shards");
    } else {
        let got: BTreeSet<(u32, u32)> = recovered
            .shards
            .iter()
            .enumerate()
            .flat_map(|(s, edges)| edges.iter().map(move |&e| (s as u32, e)))
            .collect();
        let want: BTreeSet<(u32, u32)> = sink.live.iter().map(|(&e, &s)| (s, e)).collect();
        assert_eq!(got, want, "recovered state diverged from live state");
    }
}

/// Drives the scenario as the CLI does (offer → pump, epoch loop once the
/// cut degrades past `replan_threshold`) and returns `(log hash, store hash, report)`.
fn run(sc: &Scenario) -> (u64, u64, ServiceReport) {
    let (g, w) = universe();
    let events = stream(&g);
    let mut plan = ShardPlan::build(&g, &w, sc.shards, sc.routing);
    let dir = tmp(sc.name);
    let mut store = sc.wal.then(|| {
        let cfg = StoreConfig {
            fsync: FsyncPolicy::Never,
            snapshot_every: 8,
            ..StoreConfig::default()
        };
        DurableStore::open(&dir, cfg).unwrap().0
    });
    let mut sink = TrackingSink {
        log: WriteSink::new(Vec::new()),
        live: BTreeMap::new(),
        migration_unassigns: 0,
    };
    let mut idx = 0usize;
    let mut carried = None;
    let mut replans = false;
    let report = loop {
        let mut svc = match carried.take() {
            None => {
                let mut svc = DispatchService::new(&g, &plan, sc.config());
                if let Some(store) = store.take() {
                    svc.attach_store(store);
                }
                svc
            }
            Some(c) => DispatchService::resume(&g, &plan, c, &mut sink),
        };
        while idx < events.len() {
            let a = events[idx];
            idx += 1;
            if matches!((sc.owner, plan.route(&a.event)), (Some(own), Route::Shard(s)) if s != own)
            {
                continue;
            }
            while let OfferOutcome::Deferred = svc.offer(a) {
                svc.pump(&mut sink);
            }
            svc.pump(&mut sink);
            if sc
                .replan_threshold
                .is_some_and(|t| svc.cut_degradation() > t)
            {
                break;
            }
        }
        if idx >= events.len() {
            if sc.wal {
                // Crash copy: what a `kill -9` here would leave behind.
                let copy = tmp(&format!("{}-crash", sc.name));
                std::fs::create_dir_all(&copy).unwrap();
                for f in sorted_files(&dir) {
                    std::fs::copy(&f, copy.join(f.file_name().unwrap())).unwrap();
                }
                let state = recover(&copy).unwrap();
                assert_recovered(&state, &sink, svc.batches_committed(), replans);
                // The live status getters count what recovery counts, the
                // rescue overlay's pseudo-shard included.
                assert_eq!(state.assignments(), svc.current_assignments());
                assert!((state.total_weight() - svc.current_value()).abs() < 1e-9);
                std::fs::remove_dir_all(&copy).unwrap();
            }
            break svc.finish(&mut sink);
        }
        let c = svc.detach();
        plan = ShardPlan::build(&g, c.live_weights(), sc.shards, sc.routing);
        carried = Some(c);
        replans = true;
    };
    assert!(sink.log.error.is_none());
    assert_eq!(report.capacity_violations, 0, "{}", sc.name);
    assert!(report.store_error.is_none(), "{:?}", report.store_error);
    assert_eq!(report.replans > 0, replans);
    assert_eq!(report.final_assignments, sink.live.len());
    if sc.name == "replan-wal" {
        // Without the boundary pass, edges a new plan cuts are unassigned
        // by the migration itself — the commit path `resume` owns.
        assert!(sink.migration_unassigns > 0, "no migration decision");
    }

    let mut store_hash = 0;
    if sc.wal {
        let state = recover(&dir).unwrap();
        assert_eq!(state.records_replayed, 0, "seal leaves nothing to replay");
        assert_recovered(&state, &sink, report.batches, replans);
        assert_eq!(state.assignments(), report.final_assignments);
        assert!((state.total_weight() - report.final_value).abs() < 1e-9);
        assert_eq!(report.wal_records, report.batches);

        store_hash = FNV_OFFSET;
        for f in sorted_files(&dir) {
            fnv1a(&mut store_hash, f.file_name().unwrap().as_encoded_bytes());
            fnv1a(&mut store_hash, &std::fs::read(&f).unwrap());
        }
        fnv1a(&mut store_hash, &report.snapshots.to_le_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let log = sink.log.into_inner();
    assert!(!log.is_empty(), "{} produced no decisions", sc.name);
    let mut log_hash = FNV_OFFSET;
    fnv1a(&mut log_hash, &log);
    (log_hash, store_hash, report)
}

fn scenarios() -> Vec<Scenario> {
    let mut all = vec![
        Scenario {
            name: "batch-1",
            shards: 1,
            ..BATCH
        },
        Scenario {
            name: "batch-4-t1",
            wal: true,
            ..BATCH
        },
        Scenario {
            name: "batch-4-t4",
            threads: 4,
            wal: true,
            ..BATCH
        },
        Scenario {
            name: "mincut-8-boundary-t1",
            shards: 8,
            routing: Routing::MinCut,
            boundary_pass: true,
            wal: true,
            ..BATCH
        },
        Scenario {
            name: "mincut-8-boundary-t4",
            shards: 8,
            routing: Routing::MinCut,
            boundary_pass: true,
            threads: 4,
            wal: true,
            ..BATCH
        },
        Scenario {
            name: "online",
            online: Some(0.1),
            ..BATCH
        },
        Scenario {
            name: "online-wal",
            online: Some(0.1),
            wal: true,
            ..BATCH
        },
        Scenario {
            name: "replan-wal",
            routing: Routing::MinCut,
            replan_threshold: Some(1e-6),
            wal: true,
            ..BATCH
        },
        Scenario {
            name: "replan-boundary-wal",
            routing: Routing::MinCut,
            boundary_pass: true,
            replan_threshold: Some(1e-6),
            wal: true,
            ..BATCH
        },
        Scenario {
            name: "replan-online-wal",
            routing: Routing::MinCut,
            online: Some(0.1),
            replan_threshold: Some(1e-6),
            wal: true,
            ..BATCH
        },
    ];
    for (s, name) in ["owned-0", "owned-1-online", "owned-2", "owned-3"]
        .into_iter()
        .enumerate()
    {
        all.push(Scenario {
            name,
            owner: Some(s),
            online: (s == 1).then_some(0.1),
            wal: s < 2,
            ..BATCH
        });
    }
    all
}

#[test]
fn every_mode_matches_its_golden_bytes() {
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut got: Vec<(&str, u64, u64)> = Vec::new();
    let mut online_log = 0;
    for sc in scenarios() {
        let (log, store, report) = run(&sc);
        // The watermark counts every committed record, whatever wrote it.
        assert_eq!(
            report.batches,
            report.flush_count
                + report.flush_bytes
                + report.flush_watermark
                + report.flush_drain
                + report.flush_online
                + report.replans,
            "{}",
            sc.name
        );
        match sc.name {
            "online" => online_log = log,
            "online-wal" => assert_eq!(log, online_log, "a WAL must not change decisions"),
            "replan-wal" => assert!(report.migrated_workers + report.migrated_tasks > 0),
            _ => {}
        }
        if print {
            println!("    (\"{}\", {log:#018x}, {store:#018x}),", sc.name);
        }
        got.push((sc.name, log, store));
    }
    if !print {
        assert_eq!(got, GOLDEN, "decision log or store bytes changed");
    }
    // Thread width must not show in either artifact.
    let by_name = |n: &str| got.iter().find(|g| g.0 == n).map(|g| (g.1, g.2)).unwrap();
    assert_eq!(by_name("batch-4-t1"), by_name("batch-4-t4"));
    assert_eq!(
        by_name("mincut-8-boundary-t1"),
        by_name("mincut-8-boundary-t4")
    );
}
