//! F8 — the egalitarian objective (MB-MaxMin / bottleneck b-matching).

use super::profile_graph;
use crate::harness::{parallel_map, table, Scale};
use mbta_core::algorithms::{solve, Algorithm};
use mbta_core::maxmin::{maxmin_with_weights, min_edge_weight};
use mbta_market::benefit::edge_weights;
use mbta_market::Combiner;
use mbta_matching::mcmf::PathAlgo;
use mbta_util::table::{fnum, Table};
use mbta_workload::Profile;

/// F8: bottleneck value of the exact egalitarian solver vs the min edge of
/// the sum-maximizing solutions.
///
/// Expected shape: `ExactMB` and `GreedyMB` happily include one miserable
/// edge if it raises the sum, so their min-edge benefit is near zero, while
/// the bottleneck solver keeps the same cardinality at a much higher floor.
pub fn egalitarian(scale: Scale, title: &'static str) -> Vec<Table> {
    let (n_w, n_t) = match scale {
        Scale::Quick => (200, 100),
        Scale::Full => (2_000, 1_000),
    };
    let grid: Vec<(Profile, u64)> = [Profile::Uniform, Profile::Zipfian, Profile::Microtask]
        .iter()
        .flat_map(|&p| [(p, 48u64), (p, 49u64)])
        .collect();
    let rows = parallel_map(grid, |(profile, seed)| {
        let g = profile_graph(profile, n_w, n_t, 8.0, seed);
        let combiner = Combiner::balanced();
        let w = edge_weights(&g, combiner);
        let bottleneck = maxmin_with_weights(&g, &w);
        let exact_sum = solve(
            &g,
            combiner,
            Algorithm::ExactMB {
                algo: PathAlgo::Dijkstra,
            },
        );
        let greedy = solve(&g, combiner, Algorithm::GreedyMB);
        let min_at_card = |m: &mbta_matching::Matching| {
            format!("{} @{}", fnum(min_edge_weight(m, &w), 4), m.len())
        };
        vec![
            profile.name().to_string(),
            seed.to_string(),
            bottleneck.cardinality.to_string(),
            fnum(bottleneck.bottleneck, 4),
            min_at_card(&exact_sum),
            min_at_card(&greedy),
            fnum(bottleneck.matching.total_weight(&w), 1),
            fnum(exact_sum.total_weight(&w), 1),
        ]
    });
    let header = [
        "profile",
        "seed",
        "max_card",
        "maxmin_floor",
        "exactsum_min@card",
        "greedy_min@card",
        "maxmin_total",
        "exactsum_total",
    ];
    vec![table(title, &header, rows)]
}
