//! F11 — combiner ablation: how the mutual-benefit definition shapes the
//! per-side balance of the optimal assignment.

use super::uniform_graph;
use crate::harness::{table, Scale};
use mbta_core::algorithms::{solve, Algorithm};
use mbta_core::evaluate::Evaluation;
use mbta_market::Combiner;
use mbta_matching::mcmf::PathAlgo;
use mbta_util::table::{fnum, Table};

/// F11: solve `ExactMB` under each combiner and compare the balance.
///
/// Expected shape: `Linear(1.0)`/`Linear(0.0)` pin one side; `Harmonic` and
/// `Min` push the optimum toward edges good for *both* sides, raising the
/// min-edge benefit and the per-side fairness at a small total-welfare cost.
pub fn combiner_ablation(scale: Scale, title: &'static str) -> Vec<Table> {
    let g = match scale {
        Scale::Quick => uniform_graph(300, 150, 8.0, 54),
        Scale::Full => uniform_graph(3_000, 1_500, 8.0, 54),
    };
    let combiners: Vec<(&str, Combiner)> = vec![
        ("Linear(1.0)=rb", Combiner::requester_only()),
        ("Linear(0.75)", Combiner::Linear { lambda: 0.75 }),
        ("Linear(0.5)", Combiner::balanced()),
        ("Linear(0.25)", Combiner::Linear { lambda: 0.25 }),
        ("Linear(0.0)=wb", Combiner::worker_only()),
        ("Harmonic", Combiner::Harmonic),
        ("Min", Combiner::Min),
    ];
    let exact = Algorithm::ExactMB {
        algo: PathAlgo::Dijkstra,
    };
    let rows = combiners.into_iter().map(|(name, combiner)| {
        let ev = Evaluation::compute(&g, &solve(&g, combiner, exact), combiner);
        vec![
            name.to_string(),
            fnum(ev.total_rb, 1),
            fnum(ev.total_wb, 1),
            fnum(ev.total_rb + ev.total_wb, 1),
            fnum(ev.min_edge_mb, 4),
            ev.cardinality.to_string(),
            fnum(ev.worker_fairness, 3),
            fnum(ev.task_fairness, 3),
        ]
    });
    let header = [
        "combiner",
        "total_rb",
        "total_wb",
        "welfare",
        "min_edge_mb",
        "cardinality",
        "w_fairness",
        "t_fairness",
    ];
    vec![table(title, &header, rows.collect())]
}
