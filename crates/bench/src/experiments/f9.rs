//! F9 — online policies under different arrival orders.

use super::uniform_graph;
use crate::harness::{parallel_map, table, Scale};
use mbta_core::online::{run_batched, run_online, ArrivalOrder, OnlineOutcome};
use mbta_market::Combiner;
use mbta_matching::online::OnlinePolicy;
use mbta_util::table::{fnum, Table};

/// Maps (arrival order, policy-randomness seed) to an outcome.
type Runner<'g> = Box<dyn Fn(ArrivalOrder, u64) -> OnlineOutcome + Sync + Send + 'g>;

/// F9: empirical competitive ratio of each online policy × arrival order.
///
/// Expected shape: weighted `Greedy` beats cardinality-oriented `Ranking`
/// on the benefit objective everywhere; `TwoPhase` closes part of greedy's
/// gap under unfriendly (`BestLast`) orders by reserving demand; everything
/// degrades from `BestFirst` → `Random` → `BestLast`.
pub fn online_policies(scale: Scale, title: &'static str) -> Vec<Table> {
    let (n_w, n_t, n_seeds) = match scale {
        Scale::Quick => (200, 100, 2u64),
        Scale::Full => (2_000, 1_000, 5u64),
    };
    let combiner = Combiner::balanced();
    let batch = n_w / 20; // 5% of the market per batch
    let g = &uniform_graph(n_w, n_t, 8.0, 50);

    // Every cell averages over `n_seeds` policy seeds so the randomized
    // policies (Ranking's priority draw, GreedyRT's threshold draw) are
    // reported in expectation, not at one draw.
    let online = |policy: fn(u64) -> OnlinePolicy| -> Runner<'_> {
        Box::new(move |order, s| run_online(g, combiner, order, policy(s)))
    };
    let mut runners: Vec<(String, Runner<'_>)> = vec![
        ("Greedy".into(), online(|_| OnlinePolicy::Greedy)),
        (
            "Ranking".into(),
            online(|s| OnlinePolicy::Ranking { seed: 0x99 ^ s }),
        ),
        (
            "TwoPhase".into(),
            online(|_| OnlinePolicy::TwoPhase {
                sample_fraction: 0.5,
                threshold_quantile: 0.5,
            }),
        ),
        (
            "GreedyRT".into(),
            online(|s| OnlinePolicy::RandomThreshold { seed: 0x98 ^ s }),
        ),
    ];
    for b in [1usize, batch.max(2)] {
        let run: Runner<'_> = Box::new(move |order, _| run_batched(g, combiner, order, b));
        runners.push((format!("Batch({b})"), run));
    }

    let rows = parallel_map(runners, |(name, run)| {
        let avg_over_seeds = |order_of: &dyn Fn(u64) -> ArrivalOrder| -> f64 {
            (0..n_seeds)
                .map(|s| run(order_of(s), s).competitive_ratio())
                .sum::<f64>()
                / n_seeds as f64
        };
        let random = avg_over_seeds(&|s| ArrivalOrder::Random { seed: s });
        let best_first = avg_over_seeds(&|_| ArrivalOrder::BestFirst);
        let best_last = avg_over_seeds(&|_| ArrivalOrder::BestLast);
        let by_id = avg_over_seeds(&|_| ArrivalOrder::ById);
        vec![
            name,
            fnum(best_first, 3),
            fnum(random, 3),
            fnum(by_id, 3),
            fnum(best_last, 3),
        ]
    });
    let header = ["policy", "best_first", "random(avg)", "by_id", "best_last"];
    vec![table(title, &header, rows)]
}
