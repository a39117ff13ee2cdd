//! F16/F17 — model calibration and the aggregator ablation with
//! adversarial (systematically confused) workers.

use crate::harness::{table, Scale};
use mbta_core::algorithms::{solve, Algorithm};
use mbta_market::aggregate::{accuracy_against, dawid_skene, majority_vote};
use mbta_market::aggregate_full::dawid_skene_full;
use mbta_market::answers::{simulate_answers, Answer, GroundTruth};
use mbta_market::calibration::calibration;
use mbta_market::{BenefitParams, Combiner};
use mbta_util::table::{fnum, Table};
use mbta_util::SplitMix64;
use mbta_workload::{Profile, WorkloadSpec};

/// F16: reliability diagram of the benefit model — predicted accuracy per
/// bin vs realized accuracy, plus ECE/MCE summaries.
///
/// Expected shape: near-diagonal bins and ECE ≲ 1% — the simulator draws
/// from the model, so this is a pipeline-consistency check; drift here
/// means the optimizer is optimizing a prediction the market does not
/// deliver.
pub fn model_calibration(scale: Scale, title: &'static str) -> Vec<Table> {
    let (n_w, n_t) = match scale {
        Scale::Quick => (300, 200),
        Scale::Full => (3_000, 2_000),
    };
    let g = WorkloadSpec {
        profile: Profile::Microtask,
        n_workers: n_w,
        n_tasks: n_t,
        avg_worker_degree: 12.0,
        skill_dims: 8,
        seed: 80,
    }
    .generate()
    .realize(&BenefitParams::default())
    .unwrap();
    let m = solve(&g, Combiner::balanced(), Algorithm::GreedyMB);
    let truth = GroundTruth::random(n_t, 4, 81);
    let answers = simulate_answers(&g, &m, &truth, 82);
    let cal = calibration(&g, &answers, &truth, 10);

    let bins = cal.bins.iter().map(|b| {
        vec![
            format!("[{:.2},{:.2})", b.lo, b.hi),
            b.count.to_string(),
            fnum(b.mean_predicted, 3),
            fnum(b.observed, 3),
            fnum((b.mean_predicted - b.observed).abs(), 3),
        ]
    });
    let header = ["bin", "count", "mean_predicted", "observed", "gap"];
    let summary = vec![
        cal.n_answers.to_string(),
        fnum(cal.ece, 4),
        fnum(cal.mce, 4),
    ];
    vec![
        table(title, &header, bins.collect()),
        table("F16 summary", &["answers", "ece", "mce"], vec![summary]),
    ]
}

/// F17: aggregator ablation under an adversarial crowd: a slice of workers
/// is replaced by systematic *rotators* (always answer `(truth+1) mod k`).
///
/// Expected shape: majority vote degrades linearly in the rotator share;
/// one-coin Dawid–Skene discounts rotators (flat-ish); full confusion
/// Dawid–Skene *inverts* them and stays near-perfect until rotators
/// approach a majority, where identifiability genuinely collapses for
/// every aggregator.
pub fn adversarial_aggregation(scale: Scale, title: &'static str) -> Vec<Table> {
    let (n_tasks, n_workers, redundancy) = match scale {
        Scale::Quick => (150usize, 30usize, 5usize),
        Scale::Full => (1_000, 100, 7),
    };
    let k = 4u8;
    let rows = [0usize, 10, 20, 30, 40].into_iter().map(|share_pct| {
        let n_rot = n_workers * share_pct / 100;
        let truth = GroundTruth::random(n_tasks, k, 83);
        let mut rng = SplitMix64::new(84 + share_pct as u64);
        let mut answers: Vec<Answer> = Vec::new();
        for task in 0..n_tasks as u32 {
            let gt = truth.labels[task as usize];
            // `redundancy` distinct random workers per task — random
            // bipartite structure keeps the answer graph connected, so
            // every worker's confusion matrix is globally identified
            // (block-structured assignments would create rotator-only
            // components where no aggregator can recover the truth).
            let mut picked: Vec<u32> = Vec::with_capacity(redundancy);
            while picked.len() < redundancy.min(n_workers) {
                let w = rng.next_index(n_workers) as u32;
                if !picked.contains(&w) {
                    picked.push(w);
                }
            }
            for &w in &picked {
                let label = if (w as usize) < n_rot {
                    (gt + 1) % k // rotator
                } else if rng.next_bool(0.75) {
                    gt // honest, 75% accurate
                } else {
                    let mut wrong = rng.next_below(u64::from(k) - 1) as u8;
                    if wrong >= gt {
                        wrong += 1;
                    }
                    wrong
                };
                answers.push(Answer {
                    edge: mbta_graph::EdgeId::new(0),
                    worker: w,
                    task,
                    label,
                });
            }
        }
        let acc =
            |est: &Vec<Option<u8>>| fnum(accuracy_against(est, &truth.labels).unwrap_or(0.0), 3);
        let one = dawid_skene(&answers, n_tasks, n_workers, k, 60, 1e-7);
        let full = dawid_skene_full(&answers, n_tasks, n_workers, k, 60, 1e-7);
        vec![
            format!("{share_pct}%"),
            acc(&majority_vote(&answers, n_tasks, k)),
            acc(&one.estimates),
            acc(&full.estimates),
        ]
    });
    let header = ["rotator_share", "majority", "ds_one_coin", "ds_full"];
    vec![table(title, &header, rows.collect())]
}
