//! T1 — dataset statistics per workload profile.

use super::profile_graph;
use crate::harness::{parallel_map, table, Scale};
use mbta_graph::stats::GraphStats;
use mbta_util::table::{fnum, Table};
use mbta_workload::Profile;

/// The "datasets" table of the evaluation: one row per workload profile.
pub fn dataset_stats(scale: Scale, title: &'static str) -> Vec<Table> {
    let (n_w, n_t, deg) = match scale {
        Scale::Quick => (500, 250, 6.0),
        Scale::Full => (10_000, 5_000, 10.0),
    };
    let rows = parallel_map(Profile::all().to_vec(), |profile| {
        let g = profile_graph(profile, n_w, n_t, deg, 42);
        let s = GraphStats::compute(&g);
        vec![
            profile.name().to_string(),
            s.n_workers.to_string(),
            s.n_tasks.to_string(),
            s.n_edges.to_string(),
            fnum(s.density * 100.0, 2),
            fnum(s.worker_degree_mean, 1),
            s.worker_degree_max.to_string(),
            fnum(s.task_degree_mean, 1),
            s.task_degree_max.to_string(),
            s.total_capacity.to_string(),
            s.total_demand.to_string(),
            fnum(s.mean_rb, 3),
            fnum(s.mean_wb, 3),
            s.components.to_string(),
        ]
    });
    let header = [
        "profile",
        "workers",
        "tasks",
        "edges",
        "density%",
        "wdeg",
        "wdeg_max",
        "tdeg",
        "tdeg_max",
        "cap_total",
        "dem_total",
        "mean_rb",
        "mean_wb",
        "components",
    ];
    vec![table(title, &header, rows)]
}
