//! Multi-round reliability learning.
//!
//! Real platforms do not *know* worker reliability — they learn it from
//! answer history. This module provides the learning loop's state: a
//! per-worker Beta posterior over answer accuracy, updated against
//! aggregated labels (what a platform can actually do — no ground truth).
//!
//! The estimated accuracy is converted back to the benefit model's
//! *reliability* attribute through the inverse of
//! [`crate::answers::edge_accuracy`], ignoring per-edge coverage
//! heterogeneity — a deliberate simplification **\[R\]**: the platform's
//! proxy is biased low for specialists doing hard tasks, and the
//! experiment (F19) shows the loop converges despite the bias.

use crate::aggregate::Estimates;
use crate::answers::Answer;
use crate::{Market, Worker};

/// Per-worker Beta posterior over answer accuracy.
#[derive(Debug, Clone)]
pub struct ReliabilityTracker {
    alpha: Vec<f64>,
    beta: Vec<f64>,
    n_options: u8,
}

impl ReliabilityTracker {
    /// Uninformative-ish prior `Beta(a0, b0)` for every worker. A prior
    /// mean around the chance rate (e.g. `Beta(1, 1)`) is the honest cold
    /// start; a slightly optimistic prior speeds early exploration.
    pub fn new(n_workers: usize, prior_alpha: f64, prior_beta: f64, n_options: u8) -> Self {
        assert!(
            prior_alpha > 0.0 && prior_beta > 0.0,
            "Beta prior must be positive"
        );
        assert!(n_options >= 2);
        Self {
            alpha: vec![prior_alpha; n_workers],
            beta: vec![prior_beta; n_workers],
            n_options,
        }
    }

    /// Number of tracked workers.
    pub fn n_workers(&self) -> usize {
        self.alpha.len()
    }

    /// Posterior-mean accuracy of a worker.
    pub fn accuracy(&self, worker: u32) -> f64 {
        let (a, b) = (self.alpha[worker as usize], self.beta[worker as usize]);
        a / (a + b)
    }

    /// Accuracy mapped back to the benefit model's reliability scale:
    /// inverse of `edge_accuracy` at coverage 1 — `(acc − 1/k)/(1 − 1/k)`,
    /// clamped into `[0, 1]`.
    pub fn reliability(&self, worker: u32) -> f64 {
        let guess = 1.0 / f64::from(self.n_options);
        ((self.accuracy(worker) - guess) / (1.0 - guess)).clamp(0.0, 1.0)
    }

    /// Observations absorbed so far (beyond the prior) for a worker.
    pub fn observations(&self, worker: u32) -> f64 {
        self.alpha[worker as usize] + self.beta[worker as usize]
    }

    /// Updates the posteriors from agreement with *aggregated* labels — the
    /// only signal a real platform has. Answers on tasks the aggregator
    /// left undecided are skipped.
    pub fn update_from_estimates(&mut self, answers: &[Answer], estimates: &Estimates) {
        for a in answers {
            if let Some(label) = estimates[a.task as usize] {
                if a.label == label {
                    self.alpha[a.worker as usize] += 1.0;
                } else {
                    self.beta[a.worker as usize] += 1.0;
                }
            }
        }
    }

    /// Builds a copy of `market` whose workers carry the tracker's
    /// *estimated* reliabilities — the market the platform actually
    /// optimizes each round. Eligibility, tasks and all other worker
    /// attributes are unchanged, so realized graphs are edge-for-edge
    /// aligned with the true market's.
    pub fn estimated_market(&self, market: &Market) -> Market {
        assert_eq!(
            market.n_workers(),
            self.n_workers(),
            "tracker/market mismatch"
        );
        let workers: Vec<Worker> = market
            .workers()
            .iter()
            .enumerate()
            .map(|(i, w)| {
                Worker::new(
                    w.skills.clone(),
                    self.reliability(i as u32),
                    w.capacity,
                    w.wage_expectation,
                    w.preferences.clone(),
                )
            })
            .collect();
        let eligibility: Vec<(u32, u32)> = market.eligibility_pairs().to_vec();
        Market::new(workers, market.tasks().to_vec(), eligibility)
            .expect("same-shape market stays valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::{edge_accuracy, simulate_answers, GroundTruth};
    use crate::benefit::BenefitParams;
    use crate::skill::SkillVector;
    use crate::Task;
    use mbta_matching::Matching;

    fn answer(worker: u32, task: u32, label: u8) -> Answer {
        Answer {
            edge: mbta_graph::EdgeId::new(0),
            worker,
            task,
            label,
        }
    }

    /// Ground truth as aggregated labels: the oracle update.
    fn decided(truth: &[u8]) -> Estimates {
        truth.iter().map(|&l| Some(l)).collect()
    }

    #[test]
    fn prior_mean_and_updates() {
        let mut t = ReliabilityTracker::new(2, 1.0, 1.0, 4);
        assert_eq!(t.accuracy(0), 0.5);
        // Worker 0: 3 agreements, 1 disagreement with aggregated labels.
        let answers = vec![
            answer(0, 0, 1),
            answer(0, 1, 2),
            answer(0, 2, 0),
            answer(0, 3, 3),
        ];
        let estimates: Estimates = vec![Some(1), Some(2), Some(0), Some(1)];
        t.update_from_estimates(&answers, &estimates);
        // Beta(1+3, 1+1) → mean 4/6.
        assert!((t.accuracy(0) - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(t.accuracy(1), 0.5); // untouched
        assert_eq!(t.observations(0), 6.0);
    }

    #[test]
    fn undecided_tasks_skipped() {
        let mut t = ReliabilityTracker::new(1, 1.0, 1.0, 2);
        t.update_from_estimates(&[answer(0, 0, 1)], &vec![None]);
        assert_eq!(t.accuracy(0), 0.5);
    }

    #[test]
    fn reliability_inverts_edge_accuracy() {
        let mut t = ReliabilityTracker::new(1, 1.0, 1.0, 4);
        // Drive the posterior to ~0.9 accuracy.
        let truth = vec![0u8; 1000];
        let answers: Vec<Answer> = (0..1000)
            .map(|i| answer(0, i as u32, if i % 10 == 0 { 1 } else { 0 }))
            .collect();
        t.update_from_estimates(&answers, &decided(&truth));
        let acc = t.accuracy(0);
        let rel = t.reliability(0);
        assert!((edge_accuracy(rel, 4) - acc).abs() < 1e-9);
    }

    #[test]
    fn learning_loop_recovers_true_reliabilities() {
        // Two specialists (high/low true reliability) on shared tasks; run
        // a few observation rounds with oracle updates and check ordering
        // and convergence.
        let sv = |c: &[f64]| SkillVector::new(c);
        let workers = vec![
            Worker::new(sv(&[1.0]), 0.9, 8, 1.0, sv(&[1.0])),
            Worker::new(sv(&[1.0]), 0.3, 8, 1.0, sv(&[1.0])),
        ];
        let n_tasks = 200usize;
        let tasks: Vec<Task> = (0..n_tasks)
            .map(|_| Task::new(sv(&[1.0]), 0.0, 1.0, 2, sv(&[1.0])))
            .collect();
        let elig: Vec<(u32, u32)> = (0..n_tasks as u32).flat_map(|t| [(0, t), (1, t)]).collect();
        let market = Market::new(workers, tasks, elig).unwrap();
        let g = market.realize(&BenefitParams::default()).unwrap();
        let m = Matching::from_edges(g.edges().collect());
        let truth = GroundTruth::random(n_tasks, 4, 7);
        let answers = simulate_answers(&g, &m, &truth, 8);

        let mut tracker = ReliabilityTracker::new(2, 1.0, 1.0, 4);
        tracker.update_from_estimates(&answers, &decided(&truth.labels));
        assert!(
            tracker.reliability(0) > tracker.reliability(1) + 0.3,
            "learned {} vs {}",
            tracker.reliability(0),
            tracker.reliability(1)
        );
        // Reasonably close to the true attributes (coverage is 1 here, so
        // the inverse mapping is unbiased).
        assert!((tracker.reliability(0) - 0.9).abs() < 0.1);
        assert!((tracker.reliability(1) - 0.3).abs() < 0.12);
    }

    #[test]
    fn estimated_market_preserves_shape() {
        let sv = |c: &[f64]| SkillVector::new(c);
        let workers = vec![Worker::new(sv(&[1.0]), 0.9, 2, 5.0, sv(&[1.0]))];
        let tasks = vec![Task::new(sv(&[1.0]), 0.1, 4.0, 1, sv(&[1.0]))];
        let market = Market::new(workers, tasks, vec![(0, 0)]).unwrap();
        let tracker = ReliabilityTracker::new(1, 3.0, 1.0, 4); // mean .75
        let est = tracker.estimated_market(&market);
        assert_eq!(est.n_workers(), 1);
        assert_eq!(est.n_eligible_pairs(), 1);
        assert_eq!(est.workers()[0].capacity, 2);
        assert!((est.workers()[0].reliability - tracker.reliability(0)).abs() < 1e-12);
        // Realized graphs are edge-aligned.
        let p = BenefitParams::default();
        let (g1, g2) = (market.realize(&p).unwrap(), est.realize(&p).unwrap());
        assert_eq!(g1.n_edges(), g2.n_edges());
        assert_eq!(g1.edge_tasks(), g2.edge_tasks());
    }

    #[test]
    #[should_panic(expected = "prior")]
    fn zero_prior_rejected() {
        ReliabilityTracker::new(1, 0.0, 1.0, 2);
    }
}
