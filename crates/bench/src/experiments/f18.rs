//! F18 — budget-constrained assignment (MB-Budget extension).

use crate::harness::{parallel_map, table, Scale};
use mbta_core::budget::{greedy_budgeted, lagrangian_budgeted};
use mbta_market::benefit::edge_weights;
use mbta_market::{BenefitParams, Combiner};
use mbta_util::table::{fnum, Table};
use mbta_workload::{Profile, WorkloadSpec};

/// F18: total benefit vs budget, density greedy vs Lagrangian relaxation.
///
/// Expected shape: both curves are concave and saturate at the
/// unconstrained optimum once the budget covers it; the Lagrangian solver
/// dominates the greedy across the scarcity region (inner solves are
/// exact for their penalized objectives), with the gap largest at tight
/// budgets where density greedy's myopia bites.
pub fn budget_sweep(scale: Scale, title: &'static str) -> Vec<Table> {
    let (n_w, n_t) = match scale {
        Scale::Quick => (200usize, 100usize),
        Scale::Full => (1_500, 750),
    };
    // Freelance profile: heavy-tailed project budgets make the
    // cost/benefit trade-off real (uniform pay would be a flat choice).
    let market = WorkloadSpec {
        profile: Profile::Freelance,
        n_workers: n_w,
        n_tasks: n_t,
        avg_worker_degree: 6.0,
        skill_dims: 8,
        seed: 90,
    }
    .generate();
    let g = market.realize(&BenefitParams::default()).unwrap();
    let weights = edge_weights(&g, Combiner::balanced());
    let costs = market.edge_costs(&g);

    // Budget grid as fractions of the unconstrained optimum's cost.
    let unconstrained = lagrangian_budgeted(&g, &weights, &costs, f64::MAX / 4.0, 0);
    let full_cost = unconstrained.total_cost;
    let fractions = [0.05, 0.1, 0.2, 0.4, 0.7, 1.0];

    let rows = parallel_map(fractions.to_vec(), |frac| {
        let budget = full_cost * frac;
        let gr = greedy_budgeted(&g, &weights, &costs, budget);
        let la = lagrangian_budgeted(&g, &weights, &costs, budget, 20);
        let gain = if gr.total_weight > 0.0 {
            la.total_weight / gr.total_weight
        } else {
            1.0
        };
        vec![
            format!("{:.0}%", frac * 100.0),
            fnum(budget, 0),
            fnum(gr.total_weight, 1),
            fnum(la.total_weight, 1),
            fnum(gain, 3),
            la.matching.len().to_string(),
            fnum(la.mu, 4),
            la.solves.to_string(),
        ]
    });
    let header = [
        "budget%",
        "budget",
        "greedy",
        "lagrangian",
        "lagr/greedy",
        "pairs",
        "mu",
        "solves",
    ];
    vec![table(title, &header, rows)]
}
