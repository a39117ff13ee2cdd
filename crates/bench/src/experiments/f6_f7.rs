//! F6/F7 — efficiency: runtime scaling and the effect of edge density.

use super::{exact_skipped, uniform_graph};
use crate::harness::{table, time_best_of, Scale};
use mbta_core::algorithms::{solve, Algorithm};
use mbta_market::benefit::edge_weights;
use mbta_market::Combiner;
use mbta_matching::mcmf::PathAlgo;
use mbta_util::table::{fdur, fnum, Table};

/// F6: wall-clock solve time vs market size, per algorithm.
///
/// Expected shape: the exact flow solver grows super-linearly and is cut
/// off beyond 4k workers in full runs, while greedy/local-search/stable
/// stay near-linear — the scalability argument for the heuristics.
pub fn runtime_vs_size(scale: Scale, title: &'static str) -> Vec<Table> {
    let sizes = scale.pick(
        &[200usize, 400, 800],
        &[1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000],
    );
    let reps = match scale {
        Scale::Quick => 1,
        Scale::Full => 3,
    };
    let algs = Algorithm::comparison_set();
    let combiner = Combiner::balanced();
    // Sequential: timing experiments must not co-run.
    let rows = sizes.into_iter().map(|n_w| {
        let g = uniform_graph(n_w, n_w / 2, 8.0, 46);
        let mut row = vec![n_w.to_string(), g.n_edges().to_string()];
        for &alg in &algs {
            row.push(if exact_skipped(alg, n_w, scale) {
                "-".to_string()
            } else {
                fdur(time_best_of(reps, || solve(&g, combiner, alg)).1)
            });
        }
        row
    });
    let mut header = vec!["workers", "edges"];
    header.extend(algs.iter().map(|a| a.name()));
    vec![table(title, &header, rows.collect())]
}

/// F7: effect of edge density (average worker degree) on benefit and the
/// exact solver's runtime.
///
/// Expected shape: more eligibility means more benefit for everyone (more
/// choice), with diminishing returns, while the exact solver's cost grows
/// roughly linearly in the edge count.
pub fn density_sweep(scale: Scale, title: &'static str) -> Vec<Table> {
    let (n_w, n_t) = match scale {
        Scale::Quick => (300, 150),
        Scale::Full => (2_000, 1_000),
    };
    let degrees = scale.pick(&[2.0f64, 8.0, 32.0], &[2.0, 4.0, 8.0, 16.0, 32.0, 64.0]);
    let combiner = Combiner::balanced();
    let exact = Algorithm::ExactMB {
        algo: PathAlgo::Dijkstra,
    };
    let rows = degrees.into_iter().map(|deg| {
        let g = uniform_graph(n_w, n_t, deg, 47);
        let w = edge_weights(&g, combiner);
        let (exact, secs) = time_best_of(1, || solve(&g, combiner, exact));
        let greedy = solve(&g, combiner, Algorithm::GreedyMB);
        let (ev, gv) = (exact.total_weight(&w), greedy.total_weight(&w));
        vec![
            fnum(deg, 0),
            g.n_edges().to_string(),
            fnum(ev, 1),
            fnum(gv, 1),
            fnum(if ev > 0.0 { gv / ev } else { 1.0 }, 3),
            fdur(secs),
        ]
    });
    let header = [
        "avg_degree",
        "edges",
        "exact_mb",
        "greedy_mb",
        "greedy/exact",
        "exact_time",
    ];
    vec![table(title, &header, rows.collect())]
}
