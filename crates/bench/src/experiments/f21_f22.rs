//! F21/F22 — arrival-side asymmetry and repeated-round fairness.

use super::profile_graph;
use crate::harness::{parallel_map, table, Scale};
use mbta_core::rotation::{repeated_rounds, RotationPolicy};
use mbta_market::benefit::edge_weights;
use mbta_market::Combiner;
use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
use mbta_matching::online::{online_assign, online_assign_tasks, OnlinePolicy};
use mbta_util::table::{fnum, Table};
use mbta_util::SplitMix64;
use mbta_workload::Profile;

/// F21: which side's arrival hurts more? Greedy competitive ratios for
/// worker-arrival vs task-arrival streams, per profile.
///
/// Expected shape: the scarcer, more heterogeneous side should arrive
/// *offline* — in microtask markets (huge worker capacity, redundant
/// demand) task arrival is almost harmless, while in freelance markets
/// (capacity-1 specialists) both sides hurt, worker arrival slightly more
/// (an early mediocre specialist burns a project's only slot).
pub fn arrival_asymmetry(scale: Scale, title: &'static str) -> Vec<Table> {
    let (n_w, n_t, n_seeds) = match scale {
        Scale::Quick => (200usize, 100usize, 2u64),
        Scale::Full => (2_000, 1_000, 5),
    };
    let rows = parallel_map(Profile::all().to_vec(), |profile| {
        let g = profile_graph(profile, n_w, n_t, 8.0, 110);
        let w = edge_weights(&g, Combiner::balanced());
        let (opt, _) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        let ov = opt.total_weight(&w);
        let ratio = |v: f64| if ov > 0.0 { v / ov } else { 1.0 };

        let mut worker_sum = 0.0;
        let mut task_sum = 0.0;
        for seed in 0..n_seeds {
            let mut rng = SplitMix64::new(111 + seed);
            let mut workers: Vec<_> = g.workers().collect();
            rng.shuffle(&mut workers);
            worker_sum +=
                ratio(online_assign(&g, &w, &workers, OnlinePolicy::Greedy).total_weight(&w));
            let mut tasks: Vec<_> = g.tasks().collect();
            rng.shuffle(&mut tasks);
            task_sum += ratio(online_assign_tasks(&g, &w, &tasks).total_weight(&w));
        }
        vec![
            profile.name().to_string(),
            fnum(worker_sum / n_seeds as f64, 3),
            fnum(task_sum / n_seeds as f64, 3),
        ]
    });
    let header = ["profile", "worker_arrival", "task_arrival"];
    vec![table(title, &header, rows)]
}

/// F22: repeated rounds with load rotation — spreading work across the
/// worker pool over time.
///
/// Expected shape: repeated myopic exact assignment concentrates work on
/// the same best-matched workers round after round (high cumulative-benefit
/// Gini); the rotation policy (discount a worker's edges by its cumulative
/// load) spreads participation at a small per-round welfare cost.
pub fn rotation_fairness(scale: Scale, title: &'static str) -> Vec<Table> {
    let (n_w, n_t, rounds) = match scale {
        Scale::Quick => (150usize, 50usize, 6u32),
        Scale::Full => (1_500, 500, 10),
    };
    // Scarce tasks (n_t ≪ capacity supply) so rotation has teeth.
    let g = profile_graph(Profile::Uniform, n_w, n_t, 8.0, 112);
    let policies = [
        ("myopic", RotationPolicy::Myopic),
        (
            "rotate(0.5)",
            RotationPolicy::LoadDiscount { strength: 0.5 },
        ),
        (
            "rotate(1.0)",
            RotationPolicy::LoadDiscount { strength: 1.0 },
        ),
    ];
    let rows = policies.into_iter().map(|(name, policy)| {
        let r = repeated_rounds(&g, Combiner::balanced(), policy, rounds);
        vec![
            name.to_string(),
            fnum(r.total_welfare, 1),
            fnum(r.total_welfare / f64::from(rounds), 1),
            fnum(r.cumulative_gini, 3),
            r.workers_ever_used.to_string(),
        ]
    });
    let header = [
        "policy",
        "total_welfare",
        "per_round_avg",
        "cum_benefit_gini",
        "workers_ever_used",
    ];
    vec![table(title, &header, rows.collect())]
}
