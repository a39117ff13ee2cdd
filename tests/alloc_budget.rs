//! Heap allocations per event and per batch on the batch dispatch path.
//!
//! `DispatchService` is driven with a `NullSink` over a seeded market
//! (400 workers × 200 tasks, two lifecycle passes, benefit drift 0.2) at
//! 1 and 4 min-cut shards and at `batch_max` 48, 96 and 192, under
//! `BudgetMode::Deterministic` on one solver thread. A counting global
//! allocator tallies the allocations of the driving thread after the
//! first quarter of the events (the warm-up, where buffers grow to their
//! high-water marks and solvers are built). The test asserts
//!
//! - allocations per event stay under a pinned ceiling per configuration
//!   (the measured count plus at most 20 % headroom), and
//! - allocations per batch do not grow with the batch: across `batch_max`
//!   48 → 192 they vary by at most 15 %. Per-event work (routing, greedy
//!   repair, the change set, decisions) allocates nothing once its pooled
//!   buffers have grown; what a batch allocates is its solve and its
//!   bookkeeping, whatever its size.
//!
//! The allocator counts on a `const`-initialised thread-local, so tests
//! running on other threads of this binary do not pollute the count; the
//! file is its own test binary because it installs a `#[global_allocator]`.

use mbta::graph::BipartiteGraph;
use mbta::market::benefit::edge_weights;
use mbta::market::{BenefitParams, Combiner};
use mbta::service::{
    Arrival, BatchConfig, BenefitDrift, BudgetMode, DispatchService, NullSink, Routing,
    ServiceConfig, ShardPlan,
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

/// One run's allocations after the warm-up quarter.
#[derive(Debug)]
struct Reading {
    per_event: f64,
    per_batch: f64,
}

fn measure(g: &BipartiteGraph, plan: &ShardPlan, events: &[Arrival], batch_max: usize) -> Reading {
    let cfg = ServiceConfig {
        batch: BatchConfig {
            max_events: batch_max,
            ..BatchConfig::default()
        },
        budget: BudgetMode::Deterministic,
        threads: 1,
        ..ServiceConfig::default()
    };
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
    }
}

#[test]
fn batch_dispatch_allocates_per_batch_not_per_event() {
    let (g, w, events) = inputs();
    // (shards, batch_max, allocations per event ceiling): the readings at
    // the time of pinning plus at most 20 % headroom.
    let ceilings: [(usize, [(usize, f64); 3]); 2] = [
        (1, [(48, 0.47), (96, 0.24), (192, 0.12)]),
        (4, [(48, 1.02), (96, 0.53), (192, 0.28)]),
    ];
    for (shards, row) in ceilings {
        let plan = ShardPlan::build(&g, &w, shards, Routing::MinCut);
        let mut per_batch = Vec::new();
        for (batch_max, ceiling) in row {
            let r = measure(&g, &plan, &events, batch_max);
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
            hi <= 1.15 * lo,
            "{shards} shards: allocations per batch {per_batch:?} grow with batch_max"
        );
    }
}
