//! F2/F3 — total mutual benefit vs market size.
//!
//! The headline effectiveness figures: how much mutual benefit each
//! algorithm extracts as the market grows. Expected shape (EXPERIMENTS.md):
//! `ExactMB ≥ LocalSearch ≥ GreedyMB ≫ QualityOnly ≈ WorkerOnly >
//! Cardinality > Random` on the mutual objective — the single-sided
//! baselines leave the other side's benefit on the table, which is the
//! paper's core claim.

use super::{exact_skipped, uniform_graph};
use crate::harness::{parallel_map, table, Scale};
use mbta_core::algorithms::{solve, Algorithm};
use mbta_graph::BipartiteGraph;
use mbta_market::benefit::edge_weights;
use mbta_market::Combiner;
use mbta_util::table::{fnum, Table};

fn benefit_row(g: &BipartiteGraph, scale: Scale, label: String) -> Vec<String> {
    let combiner = Combiner::balanced();
    let w = edge_weights(g, combiner);
    let mut row = vec![label];
    for alg in Algorithm::comparison_set() {
        row.push(if exact_skipped(alg, g.n_workers(), scale) {
            "-".to_string()
        } else {
            fnum(solve(g, combiner, alg).total_weight(&w), 1)
        });
    }
    row
}

fn header() -> Vec<&'static str> {
    let mut h = vec!["size"];
    h.extend(Algorithm::comparison_set().iter().map(|a| a.name()));
    h
}

/// F2: total mutual benefit vs number of workers (tasks scale as n/2).
pub fn benefit_vs_workers(scale: Scale, title: &'static str) -> Vec<Table> {
    let sizes = scale.pick(&[200usize, 400], &[1_000, 2_000, 4_000, 8_000, 16_000]);
    let rows = parallel_map(sizes, |n_w| {
        let g = uniform_graph(n_w, n_w / 2, 8.0, 42);
        benefit_row(&g, scale, n_w.to_string())
    });
    vec![table(title, &header(), rows)]
}

/// F3: total mutual benefit vs number of tasks (workers fixed).
pub fn benefit_vs_tasks(scale: Scale, title: &'static str) -> Vec<Table> {
    let n_w = match scale {
        Scale::Quick => 400,
        Scale::Full => 4_000,
    };
    let fracs: Vec<(usize, &str)> = vec![
        (n_w / 8, "n/8"),
        (n_w / 4, "n/4"),
        (n_w / 2, "n/2"),
        (n_w, "n"),
        (n_w * 2, "2n"),
    ];
    let rows = parallel_map(fracs, |(n_t, label)| {
        let g = uniform_graph(n_w, n_t, 8.0, 43);
        benefit_row(&g, scale, format!("{n_t} ({label})"))
    });
    vec![table(title, &header(), rows)]
}
