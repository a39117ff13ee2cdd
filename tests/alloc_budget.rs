//! Heap allocations per event and per batch on the dispatch paths.
//!
//! `DispatchService` is driven with a `NullSink` over a seeded market
//! (400 workers × 200 tasks, two lifecycle passes, benefit drift 0.2)
//! under `BudgetMode::Deterministic` on one solver thread. A counting
//! global allocator tallies the allocations of the driving thread after
//! the first quarter of the events (the warm-up, where buffers grow to
//! their high-water marks and the shards' carried networks are built).
//!
//! In batch mode, at 1 and 4 min-cut shards and at 8 with the boundary
//! pass, each at `batch_max` 48, 96 and 192, the test asserts
//!
//! - allocations per event stay under a pinned ceiling per configuration
//!   (the measured count plus at most 20 % headroom), and
//! - without the boundary pass, allocations per batch do not grow with the
//!   batch: across `batch_max` 48 → 192 they vary by at most 15 %.
//!   Per-event work (routing, greedy repair, the change set, decisions)
//!   allocates nothing once its pooled buffers have grown, and neither
//!   does a shard solve, which copies nothing in or out of the network its
//!   state carries: what a batch allocates is its bookkeeping — at one
//!   thread, the batcher's event buffer alone — whatever its size. With
//!   the boundary pass, the boundary market's pooled buffers still reach a
//!   few new high-water marks after the warm-up, a handful per run, so
//!   fewer, larger batches read more per batch; the per-event ceiling
//!   holds that row.
//!
//! In online mode, at 1 shard with a drift threshold low enough that
//! drift fallbacks (exact re-solves on the event path) fire, allocations
//! per event stay under a pinned ceiling too.
//!
//! The allocator counts on a `const`-initialised thread-local, so tests
//! running on other threads of this binary do not pollute the count; the
//! file is its own test binary because it installs a `#[global_allocator]`.

use mbta::graph::BipartiteGraph;
use mbta::market::benefit::edge_weights;
use mbta::market::{BenefitParams, Combiner};
use mbta::service::{
    Arrival, BatchConfig, BenefitDrift, BudgetMode, DispatchService, NullSink, OnlineConfig,
    Routing, ServiceConfig, ShardPlan,
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

/// The seeded market and its event stream.
fn inputs() -> (BipartiteGraph, Vec<f64>, Vec<Arrival>) {
    let (workers, tasks, horizon) = (400, 200, 60.0);
    let g = WorkloadSpec {
        profile: Profile::Uniform,
        n_workers: workers,
        n_tasks: tasks,
        avg_worker_degree: 8.0,
        skill_dims: 8,
        seed: 42,
    }
    .generate()
    .realize(&BenefitParams::default())
    .expect("generated markets realize");
    let w = edge_weights(&g, Combiner::balanced());
    let trace = TraceSpec {
        horizon,
        mean_session: horizon * 0.2,
        mean_task_lifetime: horizon * 0.3,
        seed: 43,
    }
    .generate_repeated(workers, tasks, 2);
    let events = BenefitDrift::new(&g, 0.2, 44).weave(trace.into_iter().map(Arrival::from_trace));
    (g, w, events)
}

/// One run's allocations after the warm-up quarter, and the run's drift
/// fallbacks (0 in batch mode).
#[derive(Debug)]
struct Reading {
    per_event: f64,
    per_batch: f64,
    fallbacks: u64,
}

/// The configuration every run shares: deterministic, one solver thread.
fn config() -> ServiceConfig {
    ServiceConfig {
        budget: BudgetMode::Deterministic,
        threads: 1,
        ..ServiceConfig::default()
    }
}

fn measure(
    g: &BipartiteGraph,
    plan: &ShardPlan,
    events: &[Arrival],
    cfg: ServiceConfig,
) -> Reading {
    let mut svc = DispatchService::new(g, plan, cfg);
    let mut sink = NullSink;
    let warm = events.len() / 4;
    for &a in &events[..warm] {
        svc.submit(a, &mut sink);
    }
    let (a0, b0) = (allocs(), svc.batches_committed());
    for &a in &events[warm..] {
        svc.submit(a, &mut sink);
    }
    let (allocated, batches) = (allocs() - a0, svc.batches_committed() - b0);
    let report = svc.finish(&mut sink);
    assert_eq!(report.capacity_violations, 0);
    assert!(batches > 0);
    Reading {
        per_event: allocated as f64 / (events.len() - warm) as f64,
        per_batch: allocated as f64 / batches as f64,
        fallbacks: report.online_fallbacks,
    }
}

#[test]
fn batch_dispatch_allocates_per_batch_not_per_event() {
    let (g, w, events) = inputs();
    // (shards, batch_max, allocations per event ceiling): the readings at
    // the time of pinning plus at most 20 % headroom.
    // The 8-shard row runs the boundary pass.
    let ceilings: [(usize, [(usize, f64); 3]); 3] = [
        (1, [(48, 0.025), (96, 0.0125), (192, 0.0063)]),
        (4, [(48, 0.025), (96, 0.0125), (192, 0.0063)]),
        (8, [(48, 0.0255), (96, 0.0149), (192, 0.0099)]),
    ];
    for (shards, row) in ceilings {
        let plan = ShardPlan::build(&g, &w, shards, Routing::MinCut);
        let boundary_pass = shards == 8;
        let mut per_batch = Vec::new();
        for (batch_max, ceiling) in row {
            let batch = BatchConfig {
                max_events: batch_max,
                ..BatchConfig::default()
            };
            let cfg = ServiceConfig {
                batch,
                boundary_pass,
                ..config()
            };
            let r = measure(&g, &plan, &events, cfg);
            println!("{shards} shards, batch_max {batch_max}: {r:?}");
            assert!(
                r.per_event <= ceiling,
                "{shards} shards, batch_max {batch_max}: {:.3} allocations per event, ceiling {ceiling}",
                r.per_event
            );
            per_batch.push(r.per_batch);
        }
        let (lo, hi) = per_batch
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        assert!(
            boundary_pass || hi <= 1.15 * lo,
            "{shards} shards: allocations per batch {per_batch:?} grow with batch_max"
        );
    }
}

#[test]
fn online_dispatch_allocates_a_bounded_amount_per_event() {
    let (g, w, events) = inputs();
    let plan = ShardPlan::build(&g, &w, 1, Routing::MinCut);
    let online = Some(OnlineConfig {
        drift_threshold: 0.05,
    });
    let r = measure(&g, &plan, &events, ServiceConfig { online, ..config() });
    println!("online, 1 shard: {r:?}");
    assert!(r.fallbacks > 0, "no drift fallback fired");
    // The reading at the time of pinning (none: the exchange holds its
    // victims inline) plus at most 20 % headroom.
    let ceiling = 0.0;
    assert!(
        r.per_event <= ceiling,
        "online, 1 shard: {:.3} allocations per event, ceiling {ceiling}",
        r.per_event
    );
}
