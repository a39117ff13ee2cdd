//! Dataset statistics — the numbers the evaluation's "datasets" table (T1)
//! reports for each workload profile.

use crate::{BipartiteGraph, TaskId, WorkerId};

/// Summary statistics of a labor-market instance.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of workers.
    pub n_workers: usize,
    /// Number of tasks.
    pub n_tasks: usize,
    /// Number of eligibility edges.
    pub n_edges: usize,
    /// Edge density relative to the complete bipartite graph.
    pub density: f64,
    /// Mean / max worker degree.
    pub worker_degree_mean: f64,
    /// Maximum worker degree.
    pub worker_degree_max: usize,
    /// Mean task degree.
    pub task_degree_mean: f64,
    /// Maximum task degree.
    pub task_degree_max: usize,
    /// Workers with no eligible task (can never be assigned).
    pub isolated_workers: usize,
    /// Tasks with no eligible worker (can never be served).
    pub isolated_tasks: usize,
    /// Sum of worker capacities.
    pub total_capacity: u64,
    /// Sum of task demands.
    pub total_demand: u64,
    /// Mean requester benefit over edges.
    pub mean_rb: f64,
    /// Mean worker benefit over edges.
    pub mean_wb: f64,
    /// Number of connected components (ignoring isolated nodes).
    pub components: usize,
}

impl GraphStats {
    /// Computes statistics for a graph in O(V + E).
    pub fn compute(g: &BipartiteGraph) -> Self {
        let n_w = g.n_workers();
        let n_t = g.n_tasks();
        let m = g.n_edges();

        let mut wd_max = 0usize;
        let mut isolated_w = 0usize;
        for w in g.workers() {
            let d = g.worker_degree(w);
            wd_max = wd_max.max(d);
            if d == 0 {
                isolated_w += 1;
            }
        }
        let mut td_max = 0usize;
        let mut isolated_t = 0usize;
        for t in g.tasks() {
            let d = g.task_degree(t);
            td_max = td_max.max(d);
            if d == 0 {
                isolated_t += 1;
            }
        }

        let (sum_rb, sum_wb) = g
            .edges()
            .fold((0.0, 0.0), |(a, b), e| (a + g.rb(e), b + g.wb(e)));

        Self {
            n_workers: n_w,
            n_tasks: n_t,
            n_edges: m,
            density: if n_w == 0 || n_t == 0 {
                0.0
            } else {
                m as f64 / (n_w as f64 * n_t as f64)
            },
            worker_degree_mean: if n_w == 0 { 0.0 } else { m as f64 / n_w as f64 },
            worker_degree_max: wd_max,
            task_degree_mean: if n_t == 0 { 0.0 } else { m as f64 / n_t as f64 },
            task_degree_max: td_max,
            isolated_workers: isolated_w,
            isolated_tasks: isolated_t,
            total_capacity: g.total_capacity(),
            total_demand: g.total_demand(),
            mean_rb: if m == 0 { 0.0 } else { sum_rb / m as f64 },
            mean_wb: if m == 0 { 0.0 } else { sum_wb / m as f64 },
            components: connected_components(g),
        }
    }
}

/// Number of connected components among non-isolated nodes, via BFS over the
/// bipartite adjacency.
pub fn connected_components(g: &BipartiteGraph) -> usize {
    let n_w = g.n_workers();
    let n_t = g.n_tasks();
    let mut seen_w = vec![false; n_w];
    let mut seen_t = vec![false; n_t];
    let mut components = 0usize;
    let mut queue_w: Vec<u32> = Vec::new();
    let mut queue_t: Vec<u32> = Vec::new();

    for start in 0..n_w as u32 {
        let w = WorkerId::new(start);
        if seen_w[start as usize] || g.worker_degree(w) == 0 {
            continue;
        }
        components += 1;
        seen_w[start as usize] = true;
        queue_w.clear();
        queue_w.push(start);
        while !queue_w.is_empty() || !queue_t.is_empty() {
            while let Some(wi) = queue_w.pop() {
                for e in g.worker_edges(WorkerId::new(wi)) {
                    let t = g.task_of(e).index();
                    if !seen_t[t] {
                        seen_t[t] = true;
                        queue_t.push(t as u32);
                    }
                }
            }
            while let Some(ti) = queue_t.pop() {
                for e in g.task_edges(TaskId::new(ti)) {
                    let w2 = g.worker_of(e).index();
                    if !seen_w[w2] {
                        seen_w[w2] = true;
                        queue_w.push(w2 as u32);
                    }
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn two_component_graph() -> BipartiteGraph {
        // Component A: w0-t0, w1-t0. Component B: w2-t1. Isolated: w3, t2.
        let mut b = GraphBuilder::new();
        let ws = b.add_workers(4, 2);
        let ts = b.add_tasks(3, 1);
        b.add_edge(ws[0], ts[0], 0.4, 0.8).unwrap();
        b.add_edge(ws[1], ts[0], 0.6, 0.2).unwrap();
        b.add_edge(ws[2], ts[1], 1.0, 0.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn stats_basic() {
        let g = two_component_graph();
        let s = GraphStats::compute(&g);
        assert_eq!(s.n_workers, 4);
        assert_eq!(s.n_tasks, 3);
        assert_eq!(s.n_edges, 3);
        assert_eq!(s.isolated_workers, 1);
        assert_eq!(s.isolated_tasks, 1);
        assert_eq!(s.components, 2);
        assert_eq!(s.worker_degree_max, 1);
        assert_eq!(s.task_degree_max, 2);
        assert!((s.density - 3.0 / 12.0).abs() < 1e-12);
        assert!((s.mean_rb - (0.4 + 0.6 + 1.0) / 3.0).abs() < 1e-12);
        assert!((s.mean_wb - (0.8 + 0.2 + 0.0) / 3.0).abs() < 1e-12);
        assert_eq!(s.total_capacity, 8);
        assert_eq!(s.total_demand, 3);
    }

    #[test]
    fn empty_graph_stats() {
        let g = GraphBuilder::new().build().unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.n_edges, 0);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.components, 0);
        assert_eq!(s.mean_rb, 0.0);
    }

    #[test]
    fn single_component_spanning_both_sides() {
        // Path w0-t0-w1-t1 → one component.
        let mut b = GraphBuilder::new();
        let ws = b.add_workers(2, 1);
        let ts = b.add_tasks(2, 1);
        b.add_edge(ws[0], ts[0], 0.5, 0.5).unwrap();
        b.add_edge(ws[1], ts[0], 0.5, 0.5).unwrap();
        b.add_edge(ws[1], ts[1], 0.5, 0.5).unwrap();
        let g = b.build().unwrap();
        assert_eq!(connected_components(&g), 1);
    }
}
