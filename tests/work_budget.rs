//! The work ledger: what the dispatch paths do per event, counted, not
//! timed.
//!
//! Five small seeded traces, each shaped like one of the benchmark's
//! workloads or paths — `batch_exact` (one shard, micro-batches),
//! `online_warm` (one shard, decide per event, drift fallbacks),
//! `sharded_rescue` (eight min-cut shards with the boundary pass), a
//! boundary re-plan loop (four min-cut shards, the boundary pass, a plan
//! rebuilt whenever the cut degrades) and `durable_online` (online with a
//! WAL) — are driven through `DispatchService` under
//! `BudgetMode::Deterministic` on one solver thread. Per event the test
//! reads
//!
//! - settled nodes and augmenting paths, every exact solve's included
//!   (`mbta_matching_mcmf_{settled_nodes,augmenting_paths}_total`),
//! - exact solves on carried networks (`mbta_core_warm_solves_total`),
//! - heap allocations on the driving thread, from a counting global
//!   allocator (as in `tests/alloc_budget.rs`), and
//! - WAL bytes written (`ServiceReport::wal_bytes`).
//!
//! Each reading must stay under its pinned ceiling: the reading at the
//! time of pinning plus at most 20 %. The counts are a pure function of
//! the trace, so two runs must read them identically. A change that makes
//! a path do more work per event — a solve that seeds from less, a pass
//! that walks more — moves a pin; one that means to re-pins it. To re-pin,
//! run `cargo test --test work_budget -- --nocapture` and set each ceiling
//! to at most 1.2 × the printed reading.
//!
//! The counters are process-wide, so the five traces run one after the
//! other in one test; the file is its own binary because it installs a
//! `#[global_allocator]`.

use mbta::graph::BipartiteGraph;
use mbta::market::benefit::edge_weights;
use mbta::market::{BenefitParams, Combiner};
use mbta::service::{
    Arrival, BatchConfig, BenefitDrift, BudgetMode, DispatchService, DurableStore, FsyncPolicy,
    NullSink, OnlineConfig, Routing, ServiceConfig, ShardPlan, StoreConfig,
};
use mbta::workload::{Profile, TraceSpec, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation made on the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method passes its arguments unchanged to `System`, so the
// caller's `GlobalAlloc` contract is exactly the one `System` relies on;
// the count itself touches only a `const`-initialised thread-local `Cell`,
// which never allocates and never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One trace: its market's size, its drift, and how it is served.
struct Trace {
    name: &'static str,
    workers: usize,
    tasks: usize,
    drift: f64,
    shards: usize,
    boundary_pass: bool,
    online: Option<f64>,
    /// Re-plan whenever the cut degrades past this.
    replan: Option<f64>,
    wal: bool,
}

const BATCH: Trace = Trace {
    name: "",
    workers: 400,
    tasks: 200,
    drift: 0.2,
    shards: 1,
    boundary_pass: false,
    online: None,
    replan: None,
    wal: false,
};

const TRACES: [Trace; 5] = [
    Trace {
        name: "batch_exact",
        ..BATCH
    },
    Trace {
        name: "online_warm",
        online: Some(0.4),
        ..BATCH
    },
    Trace {
        name: "sharded_rescue",
        workers: 600,
        tasks: 300,
        shards: 8,
        boundary_pass: true,
        ..BATCH
    },
    Trace {
        name: "boundary_replan",
        workers: 600,
        tasks: 300,
        drift: 0.3,
        shards: 4,
        boundary_pass: true,
        replan: Some(1e-3),
        ..BATCH
    },
    Trace {
        name: "durable_online",
        online: Some(500.0),
        wal: true,
        ..BATCH
    },
];

/// `(trace, [settled nodes, augmenting paths, solves, allocations, WAL
/// bytes] per event)`: the readings at the time of pinning plus at most
/// 20 %.
const CEILINGS: [(&str, [f64; 5]); 5] = [
    ("batch_exact", [3.37, 0.879, 0.0378, 0.0938, 0.0]),
    ("online_warm", [2.43, 0.669, 0.0144, 0.0476, 0.0]),
    ("sharded_rescue", [2.65, 0.740, 0.32, 0.276, 0.0]),
    ("boundary_replan", [2.22, 0.655, 0.187, 0.822, 0.0]),
    ("durable_online", [0.264, 0.0858, 0.000466, 2.06, 58.5]),
];

const COLUMNS: [&str; 5] = ["settled", "paths", "solves", "allocs", "wal bytes"];

/// The seeded market of `t` and its event stream: two lifecycle passes
/// with benefit drift woven in.
fn inputs(t: &Trace) -> (BipartiteGraph, Vec<f64>, Vec<Arrival>) {
    let g = WorkloadSpec {
        profile: Profile::Uniform,
        n_workers: t.workers,
        n_tasks: t.tasks,
        avg_worker_degree: 8.0,
        skill_dims: 8,
        seed: 42,
    }
    .generate()
    .realize(&BenefitParams::default())
    .expect("generated markets realize");
    let w = edge_weights(&g, Combiner::balanced());
    let trace = TraceSpec {
        horizon: 60.0,
        mean_session: 12.0,
        mean_task_lifetime: 18.0,
        seed: 43,
    }
    .generate_repeated(t.workers, t.tasks, 2);
    let events =
        BenefitDrift::new(&g, t.drift, 44).weave(trace.into_iter().map(Arrival::from_trace));
    (g, w, events)
}

/// The process-wide work counters now: settled nodes, augmenting paths,
/// exact solves.
fn work() -> [u64; 3] {
    let registry = mbta::telemetry::global();
    [
        "mbta_matching_mcmf_settled_nodes_total",
        "mbta_matching_mcmf_augmenting_paths_total",
        "mbta_core_warm_solves_total",
    ]
    .map(|name| registry.counter(name).get())
}

/// One run of `t`: its per-event readings, in [`COLUMNS`] order.
fn measure(t: &Trace) -> [f64; 5] {
    let (g, w, events) = inputs(t);
    let routing = if t.shards > 1 {
        Routing::MinCut
    } else {
        Routing::HashId
    };
    let cfg = ServiceConfig {
        batch: BatchConfig {
            max_events: 32,
            ..BatchConfig::default()
        },
        budget: BudgetMode::Deterministic,
        threads: 1,
        boundary_pass: t.boundary_pass,
        online: t
            .online
            .map(|drift_threshold| OnlineConfig { drift_threshold }),
        ..ServiceConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("mbta-work-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut plan = ShardPlan::build(&g, &w, t.shards, routing);
    let mut sink = NullSink;
    let (work0, allocs0) = (work(), allocs());
    let mut svc = DispatchService::new(&g, &plan, cfg);
    if t.wal {
        let store = StoreConfig {
            fsync: FsyncPolicy::Never,
            ..StoreConfig::default()
        };
        svc.attach_store(DurableStore::open(&dir, store).expect("a fresh WAL dir").0);
    }
    let (mut next, mut replans) = (events.iter(), 0);
    'plans: loop {
        for &a in next.by_ref() {
            svc.submit(a, &mut sink);
            if t.replan.is_some_and(|at| svc.cut_degradation() > at) {
                let carried = svc.detach();
                plan = ShardPlan::build(&g, carried.live_weights(), t.shards, routing);
                svc = DispatchService::resume(&g, &plan, carried, &mut sink);
                replans += 1;
                continue 'plans;
            }
        }
        break;
    }
    let finished = svc.finish(&mut sink);
    let (work1, allocs1) = (work(), allocs());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(finished.capacity_violations, 0, "{}", t.name);
    if t.replan.is_some() {
        assert!(replans > 0, "{}: no re-plan", t.name);
    }
    let n = events.len() as f64;
    let per = |x: u64| x as f64 / n;
    [
        per(work1[0] - work0[0]),
        per(work1[1] - work0[1]),
        per(work1[2] - work0[2]),
        per(allocs1 - allocs0),
        per(finished.wal_bytes),
    ]
}

#[test]
fn every_path_stays_within_its_work_budget() {
    // A warm-up run of each: the first run of a path registers its metric
    // series and fills its lazily built statics, once per process.
    for t in &TRACES {
        measure(t);
    }
    for (t, (name, ceiling)) in TRACES.iter().zip(CEILINGS) {
        assert_eq!(t.name, name);
        let reading = measure(t);
        let again = measure(t);
        assert_eq!(reading, again, "{name}: two runs read different counts");
        println!("{name}: {reading:?}");
        for ((column, got), max) in COLUMNS.iter().zip(reading).zip(ceiling) {
            assert!(
                got <= max,
                "{name}: {got:.3} {column} per event, ceiling {max}"
            );
        }
    }
}
