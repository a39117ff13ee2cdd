//! F14/F15 — extension experiments: incremental maintenance under churn,
//! and the max-flow engine ablation.

use super::uniform_graph;
use crate::harness::{table, time_once, Scale};
use mbta_core::incremental::IncrementalAssignment;
use mbta_graph::{TaskId, WorkerId};
use mbta_market::benefit::edge_weights;
use mbta_market::Combiner;
use mbta_matching::dinic::max_cardinality_bmatching;
use mbta_matching::greedy::greedy_bmatching;
use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
use mbta_matching::push_relabel::max_cardinality_bmatching_pr;
use mbta_util::table::{fdur, fnum, Table};
use mbta_util::SplitMix64;

/// F14: incremental repair vs from-scratch re-solve across a churn trace.
///
/// Expected shape: incremental quality stays within a few percent of a
/// greedy re-solve (and within the ½ bound of exact) while being orders of
/// magnitude cheaper per event — the case for maintaining assignments
/// instead of recomputing them.
pub fn incremental_churn(scale: Scale, title: &'static str) -> Vec<Table> {
    let (n_w, n_t, n_events) = match scale {
        Scale::Quick => (300usize, 150usize, 200usize),
        Scale::Full => (3_000, 1_500, 2_000),
    };
    let g = uniform_graph(n_w, n_t, 8.0, 60);
    let weights = edge_weights(&g, Combiner::balanced());

    let mut inc = IncrementalAssignment::new(&g, weights);
    let mut rng = SplitMix64::new(61);
    let mut off_w: Vec<u32> = Vec::new();
    let mut off_t: Vec<u32> = Vec::new();

    let mut rows = Vec::new();
    let checkpoints: Vec<usize> = (1..=5).map(|i| i * n_events / 5).collect();
    let mut event_time_acc = 0.0f64;
    for step in 1..=n_events {
        let (_, dt) = time_once(|| match rng.next_below(4) {
            0 => {
                let w = rng.next_index(n_w) as u32;
                inc.deactivate_worker(WorkerId::new(w));
                off_w.push(w);
            }
            1 => {
                if let Some(w) = off_w.pop() {
                    inc.activate_worker(WorkerId::new(w));
                }
            }
            2 => {
                let ti = rng.next_index(n_t) as u32;
                inc.deactivate_task(TaskId::new(ti));
                off_t.push(ti);
            }
            _ => {
                if let Some(ti) = off_t.pop() {
                    inc.activate_task(TaskId::new(ti));
                }
            }
        });
        event_time_acc += dt;
        if checkpoints.contains(&step) {
            let aw = inc.active_weights();
            let (greedy, t_g) = time_once(|| greedy_bmatching(&g, &aw, 0.0));
            let (exact, t_e) = time_once(|| {
                max_weight_bmatching(&g, &aw, FlowMode::FreeCardinality, PathAlgo::Dijkstra).0
            });
            let (iv, gv, ev) = (
                inc.total_weight(),
                greedy.total_weight(&aw),
                exact.total_weight(&aw),
            );
            rows.push(vec![
                step.to_string(),
                fnum(iv, 1),
                fnum(gv, 1),
                fnum(ev, 1),
                fnum(if ev > 0.0 { iv / ev } else { 1.0 }, 3),
                fdur(event_time_acc / step as f64),
                fdur(t_g),
                fdur(t_e),
            ]);
        }
    }
    let header = [
        "event",
        "incremental",
        "greedy_resolve",
        "exact_resolve",
        "inc/exact",
        "inc_event_time",
        "greedy_resolve_time",
        "exact_resolve_time",
    ];
    vec![table(title, &header, rows)]
}

/// F15: Dinic vs push–relabel on cardinality b-matching.
///
/// Expected shape: identical matching sizes on every instance (both exact);
/// Dinic usually wins on these unit-capacity bipartite networks (its
/// O(E√V) regime), push–relabel narrows the gap as density grows.
pub fn flow_engines(scale: Scale, title: &'static str) -> Vec<Table> {
    let grid: Vec<(usize, f64)> = match scale {
        Scale::Quick => vec![(300, 4.0), (300, 16.0)],
        Scale::Full => vec![
            (2_000, 4.0),
            (2_000, 16.0),
            (2_000, 64.0),
            (8_000, 8.0),
            (8_000, 32.0),
        ],
    };
    let rows = grid.into_iter().map(|(n_w, deg)| {
        let g = uniform_graph(n_w, n_w / 2, deg, 62);
        let (m_d, t_d) = time_once(|| max_cardinality_bmatching(&g));
        let (m_p, t_p) = time_once(|| max_cardinality_bmatching_pr(&g));
        vec![
            n_w.to_string(),
            fnum(deg, 0),
            g.n_edges().to_string(),
            fdur(t_d),
            fdur(t_p),
            (m_d.len() == m_p.len()).to_string(),
        ]
    });
    let header = [
        "workers",
        "avg_degree",
        "edges",
        "dinic",
        "push_relabel",
        "sizes_equal",
    ];
    vec![table(title, &header, rows.collect())]
}
