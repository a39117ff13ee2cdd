//! F12/T13 — solver internals: MCMF variant ablation and the three-way
//! exact-solver agreement table.

use super::uniform_graph;
use crate::harness::{parallel_map, table, time_best_of, Scale};
use mbta_graph::random::complete_bipartite;
use mbta_market::benefit::edge_weights;
use mbta_market::Combiner;
use mbta_matching::auction::auction_max_weight;
use mbta_matching::greedy::greedy_bmatching;
use mbta_matching::hungarian::hungarian_max_weight;
use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
use mbta_util::fixed::objectives_close;
use mbta_util::table::{fdur, fnum, Table};

/// F12: Dijkstra-with-potentials vs SPFA inside the exact solver, with
/// greedy as the speed reference.
///
/// Expected shape: identical objectives (both exact); Dijkstra pulls ahead
/// as instances grow; greedy is orders of magnitude faster than either.
pub fn mcmf_variants(scale: Scale, title: &'static str) -> Vec<Table> {
    let sizes = scale.pick(&[200usize, 400], &[500, 1_000, 2_000, 4_000]);
    let rows = sizes.into_iter().map(|n_w| {
        let g = uniform_graph(n_w, n_w / 2, 8.0, 55);
        let w = edge_weights(&g, Combiner::balanced());
        let exact = |algo| max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, algo);
        let ((md, sd), t_dij) = time_best_of(1, || exact(PathAlgo::Dijkstra));
        let ((_, ss), t_spfa) = time_best_of(1, || exact(PathAlgo::Spfa));
        let (mg, t_greedy) = time_best_of(1, || greedy_bmatching(&g, &w, 0.0));
        debug_assert!(mg.total_weight(&w) <= md.total_weight(&w) + 1e-6);
        vec![
            n_w.to_string(),
            g.n_edges().to_string(),
            fdur(t_dij),
            fdur(t_spfa),
            fdur(t_greedy),
            sd.iterations.to_string(),
            (sd.profit == ss.profit).to_string(),
        ]
    });
    let header = [
        "workers",
        "edges",
        "dijkstra",
        "spfa",
        "greedy",
        "iters",
        "objectives_equal",
    ];
    vec![table(title, &header, rows.collect())]
}

/// T13: cross-validation of the three independent exact solvers on small
/// dense one-to-one instances.
///
/// Expected shape: 100% agreement (within fixed-point epsilon) — any
/// disagreement is a solver bug, which is the point of the table.
pub fn solver_agreement(scale: Scale, title: &'static str) -> Vec<Table> {
    let n_instances = match scale {
        Scale::Quick => 20u64,
        Scale::Full => 200,
    };
    let shapes = [(6usize, 6usize), (10, 8), (8, 12), (15, 15)];
    let rows = parallel_map(shapes.to_vec(), |(n_w, n_t)| {
        let mut agree = 0u64;
        let mut max_dev = 0f64;
        for seed in 0..n_instances {
            let g = complete_bipartite(n_w, n_t, seed * 31 + 7);
            let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
            let (flow, _) =
                max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
            let fv = flow.total_weight(&w);
            let hv = hungarian_max_weight(&g, &w).total_weight(&w);
            let av = auction_max_weight(&g, &w).total_weight(&w);
            max_dev = max_dev.max((fv - hv).abs().max((fv - av).abs()));
            if objectives_close(fv, hv, g.n_edges()) && objectives_close(fv, av, g.n_edges()) {
                agree += 1;
            }
        }
        vec![
            format!("{n_w}x{n_t}"),
            n_instances.to_string(),
            agree.to_string(),
            fnum(max_dev, 8),
        ]
    });
    let header = ["shape", "instances", "all_three_agree", "max_deviation"];
    vec![table(title, &header, rows)]
}
