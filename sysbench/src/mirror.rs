//! The benchmark's own mirror of the live market, and the exact oracle.
//!
//! The mirror folds the event stream into active sets and live weights
//! without consulting the service, so the verifier and the quality
//! oracle judge the service against state it did not produce.

use mbta_graph::{BipartiteGraph, EdgeId};
use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
use mbta_service::ServiceEvent;

/// A node the last applied event took out of the market.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Departed {
    /// Universe worker id.
    Worker(u32),
    /// Universe task id.
    Task(u32),
}

/// Active sets and live edge weights of one market universe. Every node
/// starts inactive, exactly as a fresh `DispatchService` does.
#[derive(Debug, Clone)]
pub struct Mirror<'g> {
    g: &'g BipartiteGraph,
    weights: Vec<f64>,
    worker_active: Vec<bool>,
    task_active: Vec<bool>,
}

impl<'g> Mirror<'g> {
    /// An empty market over `g` with the plan-time `weights`.
    pub fn new(g: &'g BipartiteGraph, weights: &[f64]) -> Self {
        assert_eq!(weights.len(), g.n_edges(), "weight slice length mismatch");
        Mirror {
            g,
            weights: weights.to_vec(),
            worker_active: vec![false; g.n_workers()],
            task_active: vec![false; g.n_tasks()],
        }
    }

    /// Applies one event with the service's admission rules: activations
    /// are idempotent, and ids or weights the service would reject as
    /// invalid change nothing. Returns the node the event deactivated.
    pub fn apply(&mut self, ev: &ServiceEvent) -> Option<Departed> {
        match *ev {
            ServiceEvent::WorkerJoin(w) => {
                if let Some(a) = self.worker_active.get_mut(w as usize) {
                    *a = true;
                }
                None
            }
            ServiceEvent::WorkerLeave(w) => {
                let a = self.worker_active.get_mut(w as usize)?;
                *a = false;
                Some(Departed::Worker(w))
            }
            ServiceEvent::TaskPost(t) => {
                if let Some(a) = self.task_active.get_mut(t as usize) {
                    *a = true;
                }
                None
            }
            ServiceEvent::TaskCancel(t) | ServiceEvent::TaskComplete(t) => {
                let a = self.task_active.get_mut(t as usize)?;
                *a = false;
                Some(Departed::Task(t))
            }
            ServiceEvent::BenefitUpdate { edge, weight } => {
                if weight.is_finite() && weight >= 0.0 {
                    if let Some(w) = self.weights.get_mut(edge as usize) {
                        *w = weight;
                    }
                }
                None
            }
        }
    }

    /// The universe graph.
    pub fn graph(&self) -> &'g BipartiteGraph {
        self.g
    }

    /// Live weight of an edge, whatever its endpoints' state.
    pub fn weight(&self, e: EdgeId) -> f64 {
        self.weights[e.index()]
    }

    /// Whether both endpoints of `e` are in the market.
    pub fn edge_live(&self, e: EdgeId) -> bool {
        self.worker_active[self.g.worker_of(e).index()]
            && self.task_active[self.g.task_of(e).index()]
    }

    /// Whether worker `w` is in the market.
    pub fn worker_active(&self, w: u32) -> bool {
        self.worker_active[w as usize]
    }

    /// Whether task `t` is in the market.
    pub fn task_active(&self, t: u32) -> bool {
        self.task_active[t as usize]
    }

    /// The oracle's view: live weights with every edge that has an
    /// inactive endpoint weighing 0.
    pub fn active_weights(&self) -> Vec<f64> {
        self.g
            .edges()
            .map(|e| {
                if self.edge_live(e) {
                    self.weights[e.index()]
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// The exact optimum of the market `active_weights` describes: the total
/// weight of a maximum-weight b-matching.
pub fn oracle_optimum(g: &BipartiteGraph, active_weights: &[f64]) -> f64 {
    let (m, _) = max_weight_bmatching(
        g,
        active_weights,
        FlowMode::FreeCardinality,
        PathAlgo::Dijkstra,
    );
    m.total_weight(active_weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_core::incremental::IncrementalAssignment;
    use mbta_graph::random::from_edges;
    use mbta_graph::{TaskId, WorkerId};
    use mbta_matching::Matching;

    /// The mirror's active weights track an `IncrementalAssignment` fed
    /// the same churn, including overlapping sessions and a drift event.
    #[test]
    fn mirror_matches_incremental_activity_on_a_tiny_trace() {
        let g = from_edges(
            &[1, 2],
            &[1, 1],
            &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8), (1, 0, 0.7, 0.7)],
        );
        let w = vec![0.9, 0.8, 0.7];
        let mut mirror = Mirror::new(&g, &w);
        let mut inc = IncrementalAssignment::from_matching(&g, w.clone(), &Matching::empty())
            .expect("empty seed");
        for x in g.workers() {
            inc.deactivate_worker(x);
        }
        for t in g.tasks() {
            inc.deactivate_task(t);
        }
        let trace = [
            ServiceEvent::WorkerJoin(0),
            ServiceEvent::TaskPost(0),
            ServiceEvent::WorkerJoin(0), // overlapping session: idempotent
            ServiceEvent::WorkerJoin(1),
            ServiceEvent::BenefitUpdate {
                edge: 2,
                weight: 0.95,
            },
            ServiceEvent::WorkerLeave(0), // one leave ends both sessions
            ServiceEvent::TaskPost(1),
            ServiceEvent::TaskCancel(0),
            ServiceEvent::WorkerJoin(7), // unknown id: ignored
        ];
        for ev in &trace {
            mirror.apply(ev);
            match *ev {
                ServiceEvent::WorkerJoin(x) if (x as usize) < g.n_workers() => {
                    inc.activate_worker(WorkerId::new(x))
                }
                ServiceEvent::WorkerLeave(x) => {
                    inc.deactivate_worker(WorkerId::new(x));
                }
                ServiceEvent::TaskPost(t) => inc.activate_task(TaskId::new(t)),
                ServiceEvent::TaskCancel(t) => {
                    inc.deactivate_task(TaskId::new(t));
                }
                ServiceEvent::BenefitUpdate { edge, weight } => {
                    inc.set_weight(EdgeId::new(edge), weight)
                }
                _ => {}
            }
            assert_eq!(mirror.active_weights(), inc.active_weights(), "{ev:?}");
        }
        assert!(!mirror.worker_active(0) && mirror.worker_active(1));
        assert!(!mirror.task_active(0) && mirror.task_active(1));
    }

    #[test]
    fn oracle_beats_the_greedy_trap() {
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8), (1, 0, 0.7, 0.7)],
        );
        assert!((oracle_optimum(&g, &[0.9, 0.8, 0.7]) - 1.5).abs() < 1e-6);
        // With task 1 out of the market only the 0.9 edge remains best.
        assert!((oracle_optimum(&g, &[0.9, 0.0, 0.7]) - 0.9).abs() < 1e-6);
    }
}
