//! F20 — acceptance-aware throughput: the abstract's claim, measured.

use super::uniform_graph;
use crate::harness::{parallel_map, table, Scale};
use mbta_core::algorithms::Algorithm;
use mbta_core::offers::run_offer_loop;
use mbta_market::acceptance::AcceptanceModel;
use mbta_market::benefit::edge_weights;
use mbta_market::Combiner;
use mbta_matching::mcmf::PathAlgo;
use mbta_util::table::{fnum, Table};

/// F20: completed work under a benefit-sensitive crowd, per assignment
/// policy, across offer rounds.
///
/// Expected shape: in a *compliant* crowd quality-only assignment is fine;
/// in a *benefit-sensitive* crowd its low-`wb` offers get declined, so the
/// mutual-benefit solvers complete more total value and need fewer re-offer
/// rounds — the willingness-to-participate argument from the abstract,
/// operationalized.
pub fn acceptance_throughput(scale: Scale, title: &'static str) -> Vec<Table> {
    let (n_w, n_t, n_seeds) = match scale {
        Scale::Quick => (200usize, 100usize, 2u64),
        Scale::Full => (1_500, 750, 4),
    };
    let algorithms = vec![
        Algorithm::ExactMB {
            algo: PathAlgo::Dijkstra,
        },
        Algorithm::GreedyMB,
        Algorithm::QualityOnly,
        Algorithm::WorkerOnly,
    ];
    let crowds = [
        ("benefit_sensitive", AcceptanceModel::benefit_sensitive()),
        ("compliant", AcceptanceModel::compliant()),
    ];

    let grid: Vec<(Algorithm, &str, AcceptanceModel)> = algorithms
        .into_iter()
        .flat_map(|a| crowds.iter().map(move |&(n, m)| (a, n, m)))
        .collect();
    let g = uniform_graph(n_w, n_t, 8.0, 100);
    let w = edge_weights(&g, Combiner::balanced());
    let rows = parallel_map(grid, |(alg, crowd_name, model)| {
        let mut value = 0.0;
        let mut rate = 0.0;
        let mut coverage = 0.0;
        for seed in 0..n_seeds {
            let r = run_offer_loop(&g, Combiner::balanced(), alg, &model, 3, 200 + seed);
            value += r.accepted.total_weight(&w);
            rate += r.acceptance_rate();
            coverage += r.accepted.len() as f64 / g.total_demand() as f64;
        }
        let k = n_seeds as f64;
        vec![
            alg.name().to_string(),
            crowd_name.to_string(),
            fnum(value / k, 1),
            fnum(rate / k, 3),
            fnum(coverage / k, 3),
        ]
    });
    let header = [
        "algorithm",
        "crowd",
        "completed_mb",
        "accept_rate",
        "coverage",
    ];
    vec![table(title, &header, rows)]
}
