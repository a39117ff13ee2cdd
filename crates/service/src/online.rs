//! Per-event online assignment: the sub-millisecond decision path.
//!
//! Batch dispatch amortizes one exact solve over a micro-batch; the
//! online path instead decides on **every event** and keeps the exact
//! solver in reserve. Three mechanisms make that sound:
//!
//! * **Primal repair** — every event funnels through the shard's
//!   [`IncrementalAssignment`], whose greedy local repair keeps the
//!   assignment feasible at all times. A benefit update additionally
//!   gets one `try_exchange` attempt: evict the cheapest assigned
//!   edge at each saturated endpoint when the updated edge is strictly
//!   heavier than everything it displaces (a depth-1 alternating step —
//!   the primal move that a single dual adjustment would license).
//! * **Drift accounting** — each shard accumulates the weight the
//!   greedy path may have left on the table: `|Δw|` of benefit updates
//!   plus the weight of every net-removed edge. Plain greedy fills
//!   accrue nothing.
//! * **Warm fallback** — when a shard's accumulated drift exceeds
//!   [`OnlineConfig::drift_threshold`] × its live assigned weight, the
//!   shard re-solves exactly through its carried
//!   [`WarmSolver`](mbta_core::warm::WarmSolver) — the same per-shard
//!   solver batch mode's shard solves run on, owned by the dispatcher —
//!   then the accumulator resets. The solver carries node potentials
//!   across solves and repairs them around the shard's current matching
//!   only where drift broke them (see `mbta_matching::warm`), so every
//!   fallback but a shard's first (a repair from zero prices) costs what
//!   moved since the last one.
//!
//! Decisions come out of the shard assignment's change set — each edge
//! once, with its net change, so eviction/re-add churn cancels — drained
//! by the same dispatcher function a batch uses, and leave through the
//! service's one commit path as an `OnlineRecord` per deciding event. The
//! per-event procedure and its state (drift accumulators, pooled buffers)
//! live in the dispatcher ([`crate::dispatch`]); this module holds the
//! mode's configuration and the exchange move. See DESIGN.md §14 for the
//! full contract.

use mbta_core::incremental::IncrementalAssignment;
use mbta_graph::EdgeId;

/// Tunables for the per-event online decision path.
///
/// ```
/// use mbta_service::OnlineConfig;
///
/// let cfg = OnlineConfig::default();
/// assert!(cfg.drift_threshold > 0.0);
/// let strict = OnlineConfig {
///     drift_threshold: 0.05,
/// };
/// strict.validate(); // panics on non-positive or non-finite thresholds
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Fallback trigger: a shard re-solves exactly once its accumulated
    /// drift exceeds this fraction of its live assigned weight (floored
    /// at 1.0 so empty shards still fall back eventually). Lower values
    /// buy assignment quality with more exact solves.
    pub drift_threshold: f64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            drift_threshold: 0.2,
        }
    }
}

impl OnlineConfig {
    /// Panics on thresholds that would never (or always) trigger.
    pub fn validate(&self) {
        assert!(
            self.drift_threshold > 0.0 && self.drift_threshold.is_finite(),
            "drift_threshold must be positive and finite"
        );
    }

    /// Whether a shard whose drift accumulator reads `drift` has crossed
    /// the fallback line while holding `shard_weight` assigned value.
    pub(crate) fn fallback_due(&self, drift: f64, shard_weight: f64) -> bool {
        drift > self.drift_threshold * shard_weight.max(1.0)
    }
}

/// Depth-1 exchange for an unassigned edge whose endpoints are
/// saturated: evict the cheapest assigned edge at each full endpoint if
/// `e` is strictly heavier than everything it displaces, assign `e`,
/// then greedily refill the displaced far endpoints from spare capacity
/// only. Returns whether the exchange happened. Never degrades the
/// shard's assigned weight and preserves feasibility by construction.
pub(crate) fn try_exchange(st: &mut IncrementalAssignment<'_>, e: EdgeId) -> bool {
    let w_new = st.weight_of(e);
    if st.edge_assigned(e) || !w_new.is_finite() || w_new <= 0.0 {
        return false;
    }
    let g = st.graph();
    let (wk, tk) = (g.worker_of(e), g.task_of(e));
    if !st.worker_active(wk) || !st.task_active(tk) {
        return false;
    }
    let mut victims: Vec<EdgeId> = Vec::with_capacity(2);
    if st.worker_load(wk) >= g.capacity(wk) {
        match min_assigned(st, g.worker_edges(wk), &victims) {
            Some(v) => victims.push(v),
            None => return false,
        }
    }
    if st.task_load(tk) >= g.demand(tk) {
        match min_assigned(st, g.task_edges(tk), &victims) {
            Some(v) => victims.push(v),
            None => return false,
        }
    }
    if victims.is_empty() {
        // Spare capacity on both sides: this was a plain `try_assign`
        // situation, not an exchange.
        return false;
    }
    let displaced: f64 = victims.iter().map(|&v| st.weight_of(v)).sum();
    if w_new <= displaced + 1e-12 {
        return false;
    }
    for &v in &victims {
        st.unassign(v);
    }
    let took = st.try_assign(e);
    debug_assert!(took, "exchange freed both endpoints of an active edge");
    // The evicted edges' far endpoints regained capacity; refill them
    // greedily (the evicted edge itself stays blocked at the shared
    // endpoint, so this cannot oscillate).
    for &v in &victims {
        let (vw, vt) = (g.worker_of(v), g.task_of(v));
        if vw != wk {
            st.fill_worker(vw);
        }
        if vt != tk {
            st.fill_task(vt);
        }
    }
    took
}

/// The lightest currently-assigned candidate (ties to the lower edge
/// id), skipping already-chosen victims.
fn min_assigned(
    st: &IncrementalAssignment<'_>,
    cands: impl Iterator<Item = EdgeId>,
    excl: &[EdgeId],
) -> Option<EdgeId> {
    cands
        .filter(|&c| st.edge_assigned(c) && !excl.contains(&c))
        .min_by(|&a, &b| st.weight_of(a).total_cmp(&st.weight_of(b)).then(a.cmp(&b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::from_edges;

    fn eid(i: u32) -> EdgeId {
        EdgeId::new(i)
    }

    #[test]
    fn exchange_evicts_lighter_edge_and_refills() {
        // Worker 0 (capacity 1) holds the 0.5 edge; a benefit update
        // makes edge 1 (same worker, other task) worth 0.9. The exchange
        // must evict edge 0, take edge 1, and refill task 0 via worker 1.
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.5, 0.5), (0, 1, 0.1, 0.1), (1, 0, 0.3, 0.3)],
        );
        let mut st = IncrementalAssignment::new(&g, vec![0.5, 0.1, 0.3]);
        assert!(st.edge_assigned(eid(0)));
        st.set_weight(eid(1), 0.9);
        assert!(!st.try_assign(eid(1)), "worker 0 is saturated");
        assert!(try_exchange(&mut st, eid(1)));
        assert!(st.edge_assigned(eid(1)));
        assert!(!st.edge_assigned(eid(0)));
        assert!(st.edge_assigned(eid(2)), "displaced task 0 was refilled");
        st.check_invariants();
    }

    #[test]
    fn exchange_refuses_non_improving_swaps() {
        let g = from_edges(&[1], &[1, 1], &[(0, 0, 0.5, 0.5), (0, 1, 0.4, 0.4)]);
        let mut st = IncrementalAssignment::new(&g, vec![0.5, 0.4]);
        assert!(st.edge_assigned(eid(0)));
        // 0.4 < 0.5: no exchange; equal weight: no exchange either.
        assert!(!try_exchange(&mut st, eid(1)));
        st.set_weight(eid(1), 0.5);
        assert!(!try_exchange(&mut st, eid(1)));
        assert!(st.edge_assigned(eid(0)));
    }
}
