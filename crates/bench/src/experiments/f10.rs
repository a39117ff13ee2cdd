//! F10 — realized answer quality: assignment policy × aggregation method.
//!
//! The end-to-end payoff experiment: simulate workers actually answering
//! multiple-choice microtasks under each assignment policy, aggregate, and
//! measure accuracy against planted ground truth.

use crate::harness::{parallel_map, table, Scale};
use mbta_core::algorithms::{solve, Algorithm};
use mbta_market::aggregate::{accuracy_against, dawid_skene, majority_vote, weighted_vote};
use mbta_market::answers::{simulate_answers, GroundTruth};
use mbta_market::{BenefitParams, Combiner, Market};
use mbta_matching::mcmf::PathAlgo;
use mbta_util::table::{fnum, Table};
use mbta_workload::{Profile, WorkloadSpec};

/// F10: accuracy after aggregation, per assignment policy.
///
/// Expected shape: benefit-aware assignment (ExactMB/QualityOnly) beats
/// Random/Cardinality for every aggregator, because it routes tasks to
/// workers whose expected accuracy is higher; Dawid–Skene ≥ weighted vote ≥
/// majority vote, with the aggregator gap *shrinking* as assignment
/// improves (good assignment leaves less noise to clean up).
pub fn realized_quality(scale: Scale, title: &'static str) -> Vec<Table> {
    let (n_w, n_t) = match scale {
        Scale::Quick => (150, 100),
        Scale::Full => (1_500, 1_000),
    };
    let market: Market = WorkloadSpec {
        profile: Profile::Microtask,
        n_workers: n_w,
        n_tasks: n_t,
        avg_worker_degree: 12.0,
        skill_dims: 8,
        seed: 51,
    }
    .generate();
    let g = market.realize(&BenefitParams::default()).unwrap();
    let truth = GroundTruth::random(n_t, 4, 52);
    let combiner = Combiner::balanced();

    let algorithms = vec![
        Algorithm::ExactMB {
            algo: PathAlgo::Dijkstra,
        },
        Algorithm::GreedyMB,
        Algorithm::QualityOnly,
        Algorithm::Cardinality,
        Algorithm::Random { seed: 0xD1CE },
    ];
    let rows = parallel_map(algorithms, |alg| {
        let m = solve(&g, combiner, alg);
        let answers = simulate_answers(&g, &m, &truth, 53);
        let mv = majority_vote(&answers, n_t, 4);
        // Weighted vote uses the platform's knowledge of worker
        // reliability (available in practice from history).
        let wv = weighted_vote(&answers, n_t, 4, |w| {
            market.workers()[w as usize].reliability
        });
        let ds = dawid_skene(&answers, n_t, n_w, 4, 50, 1e-6);
        let acc = |est: &Vec<Option<u8>>| {
            accuracy_against(est, &truth.labels)
                .map(|a| fnum(a, 3))
                .unwrap_or_else(|| "-".to_string())
        };
        let answered = mv.iter().filter(|e| e.is_some()).count();
        vec![
            alg.name().to_string(),
            m.len().to_string(),
            answered.to_string(),
            acc(&mv),
            acc(&wv),
            acc(&ds.estimates),
        ]
    });
    let header = [
        "algorithm",
        "answers",
        "tasks_answered",
        "majority",
        "weighted",
        "dawid_skene",
    ];
    vec![table(title, &header, rows)]
}
