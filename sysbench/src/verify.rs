//! The independent verifier: a `DecisionSink` that trusts nothing.
//!
//! It folds every `Assign` / `Unassign` into its own load tables over the
//! universe graph, mirrors the market from the event stream, and after
//! every batch rejects any decision that exceeds `capacity` / `demand`,
//! touches an inactive endpoint, double-assigns an edge, or reports a
//! weight the mirrored market does not hold — independent of the
//! service's self-reported `capacity_violations`.

use crate::mirror::{Departed, Mirror};
use crate::spans::Tracer;
use mbta_graph::{BipartiteGraph, EdgeId, TaskId, WorkerId};
use mbta_service::{Action, Arrival, BatchStats, Decision, DecisionSink, FlushReason};
use std::time::Instant;

/// Evenly spaced quality checkpoints taken during a run (the final state
/// is a ninth).
pub const CHECKPOINTS: usize = 8;

/// Market and assignment state captured at a checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Events folded into the mirror when it was taken.
    pub at_event: usize,
    /// Value of the rebuilt assignment under the mirror's live weights.
    pub value: f64,
    /// Requester benefit summed over the rebuilt assignment.
    pub rb: f64,
    /// Worker benefit summed over the rebuilt assignment.
    pub wb: f64,
    /// The oracle's instance: live weights, inactive edges weighing 0.
    pub active_weights: Vec<f64>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The verifier sink for one universe and its event stream.
pub struct Verifier<'a> {
    events: &'a [Arrival],
    mirror: Mirror<'a>,
    /// Events folded into the mirror so far.
    cursor: usize,
    /// Events the driver has offered so far (set before each offer; the
    /// online path decides per event, so the mirror advances to here).
    pub offered: usize,
    assigned: Vec<bool>,
    w_load: Vec<u32>,
    t_load: Vec<u32>,
    departed: Vec<Departed>,
    checkpoint_at: Vec<usize>,
    /// Checkpoints taken so far, in stream order.
    pub checkpoints: Vec<Checkpoint>,
    /// Decisions (or end-of-batch states) the verifier rejected.
    pub rejected: u64,
    /// Sink callbacks received.
    pub batches: u64,
    hash: u64,
    /// Seconds spent inside `on_batch` (traced runs only).
    pub sink_s: f64,
    /// Sum of the `solve_ms` the service reported, in seconds.
    pub solve_s: f64,
    /// Span recorder of a traced run; `parent` is the open `pump` or
    /// `finish` span the callbacks nest under.
    pub tracer: Option<Tracer>,
    /// See `tracer`.
    pub parent: u32,
}

impl<'a> Verifier<'a> {
    /// A verifier over an empty market.
    pub fn new(g: &'a BipartiteGraph, weights: &[f64], events: &'a [Arrival]) -> Self {
        let n = events.len();
        Verifier {
            events,
            mirror: Mirror::new(g, weights),
            cursor: 0,
            offered: 0,
            assigned: vec![false; g.n_edges()],
            w_load: vec![0; g.n_workers()],
            t_load: vec![0; g.n_tasks()],
            departed: Vec::new(),
            checkpoint_at: (1..=CHECKPOINTS)
                .map(|k| k * n / (CHECKPOINTS + 1))
                .filter(|&at| at > 0)
                .collect(),
            checkpoints: Vec::new(),
            rejected: 0,
            batches: 0,
            hash: FNV_OFFSET,
            sink_s: 0.0,
            solve_s: 0.0,
            tracer: None,
            parent: 0,
        }
    }

    fn fold_events(&mut self, upto: usize) {
        let upto = upto.min(self.events.len());
        while self.cursor < upto {
            if let Some(d) = self.mirror.apply(&self.events[self.cursor].event) {
                self.departed.push(d);
            }
            self.cursor += 1;
        }
    }

    fn fold_decisions(&mut self, seq: u64, decisions: &[Decision]) {
        let g = self.mirror.graph();
        // A batch's deltas are a set, not a script: capacity freed by an
        // unassign on a high edge id is available to an assign on a low
        // one, so fold every unassign before any assign.
        for pass in [Action::Unassign, Action::Assign] {
            for d in decisions.iter().filter(|d| d.action == pass) {
                let e = d.edge as usize;
                if e >= self.assigned.len()
                    || g.worker_of(EdgeId::new(d.edge)).raw() != d.worker
                    || g.task_of(EdgeId::new(d.edge)).raw() != d.task
                {
                    self.rejected += 1;
                    continue;
                }
                let (w, t) = (d.worker as usize, d.task as usize);
                match pass {
                    Action::Unassign => {
                        if !self.assigned[e] {
                            self.rejected += 1;
                            continue;
                        }
                        self.assigned[e] = false;
                        self.w_load[w] -= 1;
                        self.t_load[t] -= 1;
                    }
                    Action::Assign => {
                        let edge = EdgeId::new(d.edge);
                        if self.assigned[e]
                            || !self.mirror.edge_live(edge)
                            || d.weight.to_bits() != self.mirror.weight(edge).to_bits()
                        {
                            self.rejected += 1;
                            continue;
                        }
                        self.assigned[e] = true;
                        self.w_load[w] += 1;
                        self.t_load[t] += 1;
                    }
                }
            }
        }
        for d in decisions {
            if (d.edge as usize) < self.assigned.len()
                && d.action == Action::Assign
                && (self.w_load[d.worker as usize] > g.capacity(WorkerId::new(d.worker))
                    || self.t_load[d.task as usize] > g.demand(TaskId::new(d.task)))
            {
                self.rejected += 1;
            }
            let action = u64::from(d.action == Action::Assign);
            for x in [seq, u64::from(d.edge), action, d.weight.to_bits()] {
                self.hash = fnv(self.hash, x);
            }
        }
        // A node that left the market must hold nothing once the batch
        // that carried its departure has been decided.
        for d in self.departed.drain(..) {
            let (load, back) = match d {
                Departed::Worker(w) => (self.w_load[w as usize], self.mirror.worker_active(w)),
                Departed::Task(t) => (self.t_load[t as usize], self.mirror.task_active(t)),
            };
            if load > 0 && !back {
                self.rejected += 1;
            }
        }
    }

    fn take_checkpoints(&mut self) {
        while self
            .checkpoint_at
            .get(self.checkpoints.len())
            .is_some_and(|&at| at <= self.cursor)
        {
            self.push_checkpoint();
        }
    }

    fn push_checkpoint(&mut self) {
        let (rb, wb) = benefit_sums(self.mirror.graph(), self.assigned_edges());
        self.checkpoints.push(Checkpoint {
            at_event: self.cursor,
            value: self.value(),
            rb,
            wb,
            active_weights: self.mirror.active_weights(),
        });
    }

    /// Folds any trailing events no callback covered and takes the final
    /// checkpoint. Call once, after `finish()` returned.
    pub fn finalize(&mut self) {
        self.fold_events(self.events.len());
        self.fold_decisions(u64::MAX, &[]);
        self.push_checkpoint();
    }

    /// Total weight of the rebuilt assignment under the mirror's live
    /// weights.
    pub fn value(&self) -> f64 {
        self.assigned_edges()
            .map(|e| self.mirror.weight(EdgeId::new(e)))
            .sum()
    }

    /// Universe edge ids currently assigned, ascending.
    pub fn assigned_edges(&self) -> impl Iterator<Item = u32> + '_ {
        self.assigned
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(e, _)| e as u32)
    }

    /// FNV-1a hash of the canonical decision stream so far.
    pub fn decision_hash(&self) -> u64 {
        self.hash
    }

    /// The mirrored market.
    pub fn mirror(&self) -> &Mirror<'a> {
        &self.mirror
    }
}

/// Requester and worker benefit summed over `edges` of `g`.
pub fn benefit_sums(g: &BipartiteGraph, edges: impl Iterator<Item = u32>) -> (f64, f64) {
    edges.fold((0.0, 0.0), |(rb, wb), e| {
        (rb + g.rb(EdgeId::new(e)), wb + g.wb(EdgeId::new(e)))
    })
}

/// The paper's two-sided balance, `min(sum rb, sum wb) / max(sum rb, sum
/// wb)` (1 when nothing is assigned).
pub fn mutual_balance(rb: f64, wb: f64) -> f64 {
    if rb.max(wb) > 0.0 {
        rb.min(wb) / rb.max(wb)
    } else {
        1.0
    }
}

impl DecisionSink for Verifier<'_> {
    fn on_batch(&mut self, stats: &BatchStats, decisions: &[Decision]) {
        let enter = self.tracer.is_some().then(Instant::now);
        let upto = if stats.reason == FlushReason::Online {
            self.offered
        } else {
            self.cursor + stats.events
        };
        self.fold_events(upto);
        self.fold_decisions(stats.seq, decisions);
        self.take_checkpoints();
        self.batches += 1;
        self.solve_s += stats.solve_ms * 1e-3;
        if let (Some(enter), Some(tracer)) = (enter, self.tracer.as_mut()) {
            let exit = Instant::now();
            tracer.record_ending_at(
                self.parent,
                "solve",
                enter,
                stats.solve_ms * 1e-3,
                stats.seq,
            );
            tracer.record(self.parent, "sink", enter, exit, stats.seq);
            self.sink_s += (exit - enter).as_secs_f64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::from_edges;
    use mbta_service::ServiceEvent;

    fn stats(seq: u64, events: usize) -> BatchStats {
        BatchStats {
            seq,
            reason: FlushReason::Count,
            events,
            queue_depth: 0,
            shards_touched: 1,
            degraded_shards: 0,
            worst_tier: None,
            solve_ms: 1.0,
            invalid_events: 0,
        }
    }

    fn d(g: &BipartiteGraph, edge: u32, action: Action, weight: f64) -> Decision {
        Decision {
            shard: 0,
            edge,
            action,
            worker: g.worker_of(EdgeId::new(edge)).raw(),
            task: g.task_of(EdgeId::new(edge)).raw(),
            weight,
        }
    }

    fn at(events: &[ServiceEvent]) -> Vec<Arrival> {
        events
            .iter()
            .enumerate()
            .map(|(i, &event)| Arrival {
                time: i as f64,
                event,
            })
            .collect()
    }

    #[test]
    fn accepts_a_feasible_stream_and_rejects_each_violation() {
        // Worker 0 has capacity 1 over tasks 0 and 1; worker 1 sees task 0.
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.9, 0.5), (0, 1, 0.8, 0.4), (1, 0, 0.7, 0.7)],
        );
        let w = [0.7, 0.6, 0.7];
        let events = at(&[
            ServiceEvent::WorkerJoin(0),
            ServiceEvent::TaskPost(0),
            ServiceEvent::TaskPost(1),
            ServiceEvent::WorkerLeave(0),
        ]);
        let mut v = Verifier::new(&g, &w, &events);
        v.on_batch(&stats(0, 3), &[d(&g, 0, Action::Assign, 0.7)]);
        assert_eq!(v.rejected, 0);
        assert!((v.value() - 0.7).abs() < 1e-12);
        let (rb, wb) = benefit_sums(&g, v.assigned_edges());
        assert!((mutual_balance(rb, wb) - 0.5 / 0.9).abs() < 1e-12);
        assert_eq!(mutual_balance(0.0, 0.0), 1.0);
        let clean_hash = v.decision_hash();

        // Over capacity: worker 0 takes a second task.
        v.on_batch(&stats(1, 0), &[d(&g, 1, Action::Assign, 0.6)]);
        assert_eq!(v.rejected, 1);
        v.on_batch(&stats(2, 0), &[d(&g, 1, Action::Unassign, 0.6)]);
        // Double assign, inactive endpoint (worker 1 never joined), wrong
        // weight, unassign of a free edge, endpoint mismatch.
        v.on_batch(&stats(3, 0), &[d(&g, 0, Action::Assign, 0.7)]);
        assert_eq!(v.rejected, 2);
        v.on_batch(&stats(4, 0), &[d(&g, 2, Action::Assign, 0.7)]);
        assert_eq!(v.rejected, 3);
        v.on_batch(&stats(5, 0), &[d(&g, 1, Action::Unassign, 0.6)]);
        assert_eq!(v.rejected, 4);
        let mut bad = d(&g, 0, Action::Unassign, 0.7);
        bad.worker = 1;
        v.on_batch(&stats(6, 0), &[bad]);
        assert_eq!(v.rejected, 5);
        // Worker 0 leaves but the service keeps its edge assigned.
        v.on_batch(&stats(7, 1), &[]);
        assert_eq!(v.rejected, 6);
        assert_ne!(v.decision_hash(), clean_hash);
    }

    #[test]
    fn unassigns_free_capacity_for_assigns_in_the_same_batch() {
        let g = from_edges(&[1], &[1, 1], &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8)]);
        let w = [0.9, 0.8];
        let events = at(&[
            ServiceEvent::WorkerJoin(0),
            ServiceEvent::TaskPost(1),
            ServiceEvent::TaskPost(0),
        ]);
        let mut v = Verifier::new(&g, &w, &events);
        v.on_batch(&stats(0, 2), &[d(&g, 1, Action::Assign, 0.8)]);
        // Canonical order puts the assign of edge 0 before the unassign
        // of edge 1; as a set the swap is feasible.
        v.on_batch(
            &stats(1, 1),
            &[
                d(&g, 0, Action::Assign, 0.9),
                d(&g, 1, Action::Unassign, 0.8),
            ],
        );
        assert_eq!(v.rejected, 0);
        v.finalize();
        assert_eq!(v.assigned_edges().collect::<Vec<_>>(), vec![0]);
        let last = v.checkpoints.last().unwrap();
        assert_eq!(last.at_event, 3);
        assert_eq!((last.rb, last.wb), (0.9, 0.9));
        assert_eq!(last.active_weights, vec![0.9, 0.8]);
    }

    #[test]
    fn online_callbacks_advance_the_mirror_to_the_offered_event() {
        let g = from_edges(&[1], &[1], &[(0, 0, 0.9, 0.9)]);
        let events = at(&[ServiceEvent::WorkerJoin(0), ServiceEvent::TaskPost(0)]);
        let mut v = Verifier::new(&g, &[0.9], &events);
        v.offered = 2; // the join decided nothing, so no callback saw it
        let mut s = stats(0, 1);
        s.reason = FlushReason::Online;
        v.on_batch(&s, &[d(&g, 0, Action::Assign, 0.9)]);
        assert_eq!(v.rejected, 0);
    }
}
