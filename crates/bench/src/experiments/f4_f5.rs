//! F4/F5 — the "mutual" story: per-side benefit decomposition and the
//! λ-sweep Pareto frontier.

use super::uniform_graph;
use crate::harness::{table, Scale};
use mbta_core::algorithms::{solve, Algorithm};
use mbta_core::evaluate::Evaluation;
use mbta_core::frontier::{default_lambda_grid, lambda_sweep};
use mbta_market::Combiner;
use mbta_util::table::{fnum, Table};

/// F4: requester-side vs worker-side totals per algorithm on one instance.
///
/// Expected shape: `QualityOnly` tops Σrb but leaves Σwb low; `WorkerOnly`
/// mirrors it; `ExactMB` sits near both tops simultaneously — mutual
/// benefit is not a 50% compromise, because benefit heterogeneity lets a
/// good assignment satisfy both sides at once.
pub fn per_side_benefit(scale: Scale, title: &'static str) -> Vec<Table> {
    let g = match scale {
        Scale::Quick => uniform_graph(400, 200, 8.0, 44),
        Scale::Full => uniform_graph(4_000, 2_000, 8.0, 44),
    };
    let combiner = Combiner::balanced();
    let rows = Algorithm::comparison_set().into_iter().map(|alg| {
        let m = solve(&g, combiner, alg);
        let ev = Evaluation::compute(&g, &m, combiner);
        vec![
            alg.name().to_string(),
            fnum(ev.total_mb, 1),
            fnum(ev.total_rb, 1),
            fnum(ev.total_wb, 1),
            ev.cardinality.to_string(),
            fnum(ev.demand_coverage, 3),
            fnum(ev.worker_participation, 3),
            fnum(ev.worker_fairness, 3),
        ]
    });
    let header = [
        "algorithm",
        "total_mb",
        "total_rb",
        "total_wb",
        "cardinality",
        "coverage",
        "participation",
        "w_fairness",
    ];
    vec![table(title, &header, rows.collect())]
}

/// F5: the achievable (Σrb, Σwb) frontier as λ sweeps 0 → 1.
pub fn lambda_frontier(scale: Scale, title: &'static str) -> Vec<Table> {
    let g = match scale {
        Scale::Quick => uniform_graph(300, 150, 8.0, 45),
        Scale::Full => uniform_graph(3_000, 1_500, 8.0, 45),
    };
    let rows = lambda_sweep(&g, &default_lambda_grid())
        .into_iter()
        .map(|p| {
            vec![
                fnum(p.lambda, 1),
                fnum(p.total_rb, 1),
                fnum(p.total_wb, 1),
                fnum(p.total_welfare(), 1),
                fnum(p.worker_share(), 3),
                p.cardinality.to_string(),
            ]
        });
    let header = [
        "lambda",
        "total_rb",
        "total_wb",
        "welfare",
        "worker_share",
        "cardinality",
    ];
    vec![table(title, &header, rows.collect())]
}
