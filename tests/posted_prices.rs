//! Posted prices on a hand-built two-shard market with the boundary pass
//! on: a saturated node sells a unit to the cross edge that outbids the
//! lightest edge its shard holds there, one batch ahead.
//!
//! The universe: worker 0 (capacity 2), worker 1 (capacity 1) and tasks
//! 0–3 (demand 1). Range routing homes tasks 0 and 1 and worker 0 on shard
//! 0, tasks 2 and 3 and worker 1 on shard 1, so edge 2 — worker 0 to task
//! 2, weight 0.6 — is the one cross edge:
//!
//! | edge | worker | task | weight | shard |
//! |---|---|---|---|---|
//! | 0 | 0 | 0 | 0.5 | 0 |
//! | 1 | 0 | 1 | 0.3 | 0 |
//! | 2 | 0 | 2 | 0.6 | cross |
//! | 3 | 1 | 2 | 0.2 | 1 |
//! | 4 | 1 | 3 | 0.4 | 1 |
//!
//! A `Dispatcher` is driven one batch per commit, and every commit is
//! audited by the reference market (`tests/reference`), whose shard check
//! takes the capacities the reservations it derives leave.

use mbta::graph::random::from_edges;
use mbta::graph::BipartiteGraph;
use mbta::service::shard::UNMAPPED;
use mbta::service::{
    Action, Arrival, BudgetMode, ClosedBatch, Dispatcher, FlushReason, Routing, ServiceConfig,
    ServiceEvent, ServiceReport, ShardPlan,
};
use reference::Reference;

mod reference;

/// The overlay's pseudo-shard id in decisions.
const OVERLAY: u32 = 2;

fn universe() -> (BipartiteGraph, Vec<f64>) {
    let edges = [
        (0, 0, 0.5),
        (0, 1, 0.3),
        (0, 2, 0.6),
        (1, 2, 0.2),
        (1, 3, 0.4),
    ];
    let spec: Vec<_> = edges.iter().map(|&(w, t, x)| (w, t, x, x)).collect();
    let g = from_edges(&[2, 1], &[1, 1, 1, 1], &spec);
    let w = edges.iter().map(|e| e.2).collect();
    (g, w)
}

/// A dispatcher over the two-shard plan, its reference, and the batches
/// it has committed.
struct Run<'g> {
    d: Dispatcher<'g>,
    mirror: Reference<'g>,
    report: ServiceReport,
    time: f64,
}

impl<'g> Run<'g> {
    fn new(g: &'g BipartiteGraph, plan: &'g ShardPlan) -> Self {
        assert_eq!(plan.worker_shard, [0, 1]);
        assert_eq!(plan.task_shard, [0, 0, 1, 1]);
        assert_eq!(plan.edge_shard[2], UNMAPPED);
        assert_eq!(plan.cross_edges, 1);
        let cfg = ServiceConfig {
            budget: BudgetMode::Deterministic,
            threads: 1,
            boundary_pass: true,
            ..ServiceConfig::default()
        };
        Run {
            d: Dispatcher::new(g, plan, &cfg),
            mirror: Reference::new(g, plan, &cfg),
            report: ServiceReport {
                degraded_by_shard: vec![0; 2],
                ..ServiceReport::default()
            },
            time: 0.0,
        }
    }

    /// One batch of `events`, committed and audited; returns its decisions
    /// as `(shard, edge, assigned)`, and the units it reserved.
    fn batch(&mut self, events: &[ServiceEvent]) -> (Vec<(u32, u32, bool)>, u64) {
        let events: Vec<Arrival> = events
            .iter()
            .map(|&event| {
                self.time += 1.0;
                Arrival {
                    time: self.time,
                    event,
                }
            })
            .collect();
        for &a in &events {
            self.mirror.offer(a);
        }
        let reserved = self.report.reserved_units;
        let closed = ClosedBatch {
            events,
            reason: FlushReason::Count,
        };
        let c = self.d.batch(&closed, &mut self.report);
        self.mirror.commit(&c.stats, self.d.decisions());
        let decisions = self.d.decisions().iter();
        let decisions = decisions.map(|d| (d.shard, d.edge, d.action == Action::Assign));
        (decisions.collect(), self.report.reserved_units - reserved)
    }
}

/// A weight update on edge 4, whose ends hold nothing: a batch that moves
/// no unit by itself.
const IDLE: ServiceEvent = ServiceEvent::BenefitUpdate {
    edge: 4,
    weight: 0.4,
};

/// Worker 0 holds edges 0 and 1, so it has no free unit; task 2 has one
/// (worker 1 never joins). Edge 2 (0.6) outbids worker 0's lightest held
/// edge, edge 1 (0.3): the unit is reserved at commit 0, and at commit 1
/// shard 0 has dropped exactly edge 1 — not the heavier edge 0 — and the
/// overlay holds edge 2.
#[test]
fn a_cross_edge_buys_the_unit_its_lightest_held_edge_held() {
    let (g, w) = universe();
    let plan = ShardPlan::build(&g, &w, 2, Routing::Range);
    let mut run = Run::new(&g, &plan);
    use ServiceEvent::{TaskPost, WorkerJoin};
    let (decisions, reserved) = run.batch(&[WorkerJoin(0), TaskPost(0), TaskPost(1), TaskPost(2)]);
    assert_eq!(decisions, [(0, 0, true), (0, 1, true)]);
    assert_eq!(reserved, 1, "worker 0's unit");
    let (workers, tasks) = run.mirror.reserve();
    assert_eq!((workers, tasks), (vec![1, 0], vec![0; 4]));

    let (decisions, reserved) = run.batch(&[IDLE]);
    assert_eq!(decisions, [(0, 1, false), (OVERLAY, 2, true)]);
    assert_eq!(reserved, 0, "worker 0 sold its unit; task 2 is free");
    assert!((run.d.value() - 1.1).abs() < 1e-12);
}

/// As above, but edge 2's weight falls to 0 — below the price — in the
/// batch that cedes the reserved unit. The rescue leaves the unit (a
/// weightless edge earns it nothing), so shard 0 drops edge 1 at commit
/// 1 and takes it back at commit 2, when the unit returns home.
#[test]
fn an_unused_reserved_unit_returns_home_the_batch_after() {
    let (g, w) = universe();
    let plan = ShardPlan::build(&g, &w, 2, Routing::Range);
    let mut run = Run::new(&g, &plan);
    use ServiceEvent::{BenefitUpdate, TaskPost, WorkerJoin};
    let (_, reserved) = run.batch(&[WorkerJoin(0), TaskPost(0), TaskPost(1), TaskPost(2)]);
    assert_eq!(reserved, 1);

    let fall = BenefitUpdate {
        edge: 2,
        weight: 0.0,
    };
    let (decisions, reserved) = run.batch(&[fall]);
    assert_eq!(decisions, [(0, 1, false)]);
    assert_eq!(reserved, 0, "worker 0 has a free unit now");

    let (decisions, _) = run.batch(&[IDLE]);
    assert_eq!(decisions, [(0, 1, true)]);
    assert!((run.d.value() - 0.8).abs() < 1e-12);
}

/// Worker 0 holds only edge 0 (task 1 is never posted), so it has a free
/// unit and asks nothing; task 2 is saturated by edge 3 (0.2). Edge 2 bids
/// 0.6 − 0.2: only task 2's unit is reserved, and at commit 1 shard 1 has
/// dropped edge 3, the overlay holds edge 2, and shard 0 is untouched.
#[test]
fn a_node_with_a_free_unit_is_never_reserved() {
    let (g, w) = universe();
    let plan = ShardPlan::build(&g, &w, 2, Routing::Range);
    let mut run = Run::new(&g, &plan);
    use ServiceEvent::{TaskPost, WorkerJoin};
    let (decisions, reserved) =
        run.batch(&[WorkerJoin(0), WorkerJoin(1), TaskPost(0), TaskPost(2)]);
    assert_eq!(decisions, [(0, 0, true), (1, 3, true)]);
    assert_eq!(reserved, 1, "task 2's unit alone");
    let (workers, tasks) = run.mirror.reserve();
    assert_eq!((workers, tasks), (vec![0, 0], vec![0, 0, 1, 0]));

    let (decisions, _) = run.batch(&[IDLE]);
    assert_eq!(decisions, [(1, 3, false), (OVERLAY, 2, true)]);
    assert!((run.d.value() - 1.1).abs() < 1e-12);
}
