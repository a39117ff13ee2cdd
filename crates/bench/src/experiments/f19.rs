//! F19 — multi-round reliability learning (extension).

use crate::harness::{table, Scale};
use mbta_core::algorithms::{solve, Algorithm};
use mbta_graph::BipartiteGraph;
use mbta_market::aggregate::{accuracy_against, dawid_skene, Estimates};
use mbta_market::answers::{simulate_answers, Answer, GroundTruth};
use mbta_market::history::ReliabilityTracker;
use mbta_market::{BenefitParams, Combiner, Market};
use mbta_util::table::{fnum, Table};
use mbta_workload::{Profile, WorkloadSpec};

/// Spearman-style rank agreement: fraction of concordant pairs among all
/// worker pairs (1.0 = identical ranking, 0.5 = random).
fn rank_concordance(est: &[f64], truth: &[f64]) -> f64 {
    let n = est.len();
    let mut concordant = 0usize;
    let mut comparable = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let dt = truth[i] - truth[j];
            let de = est[i] - est[j];
            if dt.abs() < 1e-9 {
                continue;
            }
            comparable += 1;
            if dt * de > 0.0 {
                concordant += 1;
            }
        }
    }
    if comparable == 0 {
        1.0
    } else {
        concordant as f64 / comparable as f64
    }
}

/// F19: round-by-round answer accuracy of a platform that *learns* worker
/// reliability from aggregated labels, vs two bounds: the oracle that
/// knows true reliabilities, and a platform that never learns (cold
/// estimates forever).
///
/// Expected shape: the learning curve starts at the never-learn baseline
/// and climbs toward (without crossing) the oracle bound within a few
/// rounds; the worker-reliability rank correlation between estimates and
/// truth rises alongside.
pub fn reliability_learning(scale: Scale, title: &'static str) -> Vec<Table> {
    let (n_w, n_t, rounds) = match scale {
        Scale::Quick => (120usize, 90usize, 5u32),
        Scale::Full => (800, 600, 8),
    };
    let k = 4u8;
    let params = BenefitParams::default();
    let market: Market = WorkloadSpec {
        profile: Profile::Microtask,
        n_workers: n_w,
        n_tasks: n_t,
        avg_worker_degree: 10.0,
        skill_dims: 8,
        seed: 95,
    }
    .generate();
    let g_true = market.realize(&params).unwrap();
    let true_rel: Vec<f64> = market.workers().iter().map(|w| w.reliability).collect();

    let mut tracker = ReliabilityTracker::new(n_w, 1.0, 1.0, k);
    let cold_tracker = ReliabilityTracker::new(n_w, 1.0, 1.0, k);

    let rows = (1..=rounds).map(|round| {
        // Fresh questions each round; same market.
        let truth = GroundTruth::random(n_t, k, 95 + u64::from(round));
        // Assigns greedily on `g` (the market the platform believes in);
        // answers come from *true* reliabilities (edge-aligned graphs: the
        // matching's edge ids transfer directly) and are aggregated by
        // Dawid–Skene.
        let answer = |g: &BipartiteGraph| -> (Vec<Answer>, Estimates, f64) {
            let m = solve(g, Combiner::balanced(), Algorithm::GreedyMB);
            let answers = simulate_answers(&g_true, &m, &truth, 195 + u64::from(round));
            let ds = dawid_skene(&answers, n_t, n_w, k, 50, 1e-6);
            let acc = accuracy_against(&ds.estimates, &truth.labels).unwrap_or(0.0);
            (answers, ds.estimates, acc)
        };
        let estimated = |t: &ReliabilityTracker| t.estimated_market(&market).realize(&params);

        // Learned platform: assign on the estimated market, then update
        // from aggregated labels only — no ground truth.
        let (learned_answers, learned_labels, learned_acc) = answer(&estimated(&tracker).unwrap());
        tracker.update_from_estimates(&learned_answers, &learned_labels);
        // Cold platform: never updates.
        let (_, _, cold_acc) = answer(&estimated(&cold_tracker).unwrap());
        // Oracle: knows true reliabilities.
        let (_, _, oracle_acc) = answer(&g_true);

        let est_rel: Vec<f64> = (0..n_w as u32).map(|w| tracker.reliability(w)).collect();
        vec![
            round.to_string(),
            fnum(learned_acc, 3),
            fnum(cold_acc, 3),
            fnum(oracle_acc, 3),
            fnum(rank_concordance(&est_rel, &true_rel), 3),
        ]
    });
    let header = [
        "round",
        "learned_acc",
        "cold_acc",
        "oracle_acc",
        "rank_concordance",
    ];
    vec![table(title, &header, rows.collect())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_concordance_basics() {
        assert_eq!(rank_concordance(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 1.0);
        assert_eq!(rank_concordance(&[3.0, 2.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(rank_concordance(&[], &[]), 1.0);
    }
}
