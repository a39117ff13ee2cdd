//! Dinic's max-flow algorithm.
//!
//! Used for (a) maximum-cardinality b-matching (`Cardinality` baseline) and
//! (b) the feasibility probe inside the egalitarian threshold search: "is
//! there an assignment using only edges with benefit ≥ τ that saturates all
//! demand?". On unit-capacity bipartite networks Dinic runs in O(E·√V)
//! (Hopcroft–Karp bound), which keeps the binary search cheap.

use crate::solution::Matching;
use mbta_graph::BipartiteGraph;
use mbta_util::SolveCtl;

/// A reusable max-flow network (forward/backward arc-pair arena).
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    /// Head node of each arc.
    head: Vec<u32>,
    /// Residual capacity of each arc.
    cap: Vec<u32>,
    /// `next[a]` = next arc out of the same tail (singly linked adjacency).
    next: Vec<u32>,
    /// `first[v]` = first arc out of `v`, `NONE` if none.
    first: Vec<u32>,
    n_nodes: usize,
}

const NONE: u32 = u32::MAX;

impl FlowNetwork {
    /// Creates a network with `n_nodes` nodes and no arcs.
    pub fn new(n_nodes: usize) -> Self {
        Self {
            head: Vec::new(),
            cap: Vec::new(),
            next: Vec::new(),
            first: vec![NONE; n_nodes],
            n_nodes,
        }
    }

    /// Pre-reserves space for `n_arcs` logical arcs (2× physical).
    pub fn reserve(&mut self, n_arcs: usize) {
        self.head.reserve(2 * n_arcs);
        self.cap.reserve(2 * n_arcs);
        self.next.reserve(2 * n_arcs);
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Adds a directed arc `from → to` with capacity `cap`; returns the arc
    /// id (its residual twin is `id ^ 1`).
    pub fn add_arc(&mut self, from: usize, to: usize, cap: u32) -> u32 {
        debug_assert!(from < self.n_nodes && to < self.n_nodes);
        let id = self.head.len() as u32;
        // Forward arc.
        self.head.push(to as u32);
        self.cap.push(cap);
        self.next.push(self.first[from]);
        self.first[from] = id;
        // Residual arc.
        self.head.push(from as u32);
        self.cap.push(0);
        self.next.push(self.first[to]);
        self.first[to] = id + 1;
        id
    }

    /// Flow currently pushed through arc `id` (capacity moved to its twin).
    pub fn flow(&self, id: u32) -> u32 {
        self.cap[(id ^ 1) as usize]
    }

    /// Residual capacity of arc `id`.
    pub fn residual(&self, id: u32) -> u32 {
        self.cap[id as usize]
    }

    /// Computes the max flow from `source` to `sink`, mutating residual
    /// capacities in place. Returns the flow value.
    pub fn max_flow(&mut self, source: usize, sink: usize) -> u64 {
        self.max_flow_with_ctl(source, sink, &SolveCtl::unlimited())
            .0
    }

    /// Like [`max_flow`](Self::max_flow), but consulting `ctl` at each BFS
    /// phase and each blocking-flow push. Returns `(flow, completed)`; on
    /// early stop the pushed flow is feasible but possibly not maximum.
    pub fn max_flow_with_ctl(&mut self, source: usize, sink: usize, ctl: &SolveCtl) -> (u64, bool) {
        assert_ne!(source, sink, "source == sink");
        let n = self.n_nodes;
        let mut level = vec![NONE; n];
        let mut iter = vec![NONE; n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        let mut total = 0u64;
        // Drop-guard so phases run before an early ctl-stop return still
        // land in the counter.
        let mut phases = mbta_telemetry::DeferredCount::new("mbta_matching_dinic_phases_total");

        loop {
            if ctl.stop_requested() {
                return (total, false);
            }
            phases.add(1);
            // BFS level graph.
            level.iter_mut().for_each(|l| *l = NONE);
            level[source] = 0;
            queue.clear();
            queue.push(source as u32);
            let mut qi = 0;
            while qi < queue.len() {
                let v = queue[qi] as usize;
                qi += 1;
                let mut a = self.first[v];
                while a != NONE {
                    let to = self.head[a as usize] as usize;
                    if self.cap[a as usize] > 0 && level[to] == NONE {
                        level[to] = level[v] + 1;
                        queue.push(to as u32);
                    }
                    a = self.next[a as usize];
                }
            }
            if level[sink] == NONE {
                break;
            }
            iter.copy_from_slice(&self.first);
            // DFS blocking flow (iterative to avoid recursion depth limits).
            loop {
                if ctl.should_stop() {
                    return (total, false);
                }
                let pushed = self.dfs_push(source, sink, u32::MAX, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                total += u64::from(pushed);
            }
        }
        (total, true)
    }

    /// Iterative DFS pushing one augmenting path in the level graph.
    fn dfs_push(
        &mut self,
        source: usize,
        sink: usize,
        limit: u32,
        level: &[u32],
        iter: &mut [u32],
    ) -> u32 {
        // Stack of (node, arc taken to get here, bottleneck so far).
        let mut path: Vec<u32> = Vec::new(); // arcs on the current path
        let mut v = source;
        let mut bottleneck = limit;
        loop {
            if v == sink {
                // Augment.
                for &a in &path {
                    self.cap[a as usize] -= bottleneck;
                    self.cap[(a ^ 1) as usize] += bottleneck;
                }
                return bottleneck;
            }
            let a = iter[v];
            if a == NONE {
                // Dead end: retreat (or fail at source).
                match path.pop() {
                    None => return 0,
                    Some(prev) => {
                        v = self.head[(prev ^ 1) as usize] as usize;
                        // Skip the exhausted arc at the parent.
                        iter[v] = self.next[prev as usize];
                        bottleneck = limit;
                        for &arc in &path {
                            bottleneck = bottleneck.min(self.cap[arc as usize]);
                        }
                    }
                }
                continue;
            }
            let to = self.head[a as usize] as usize;
            if self.cap[a as usize] > 0 && level[to] == level[v] + 1 {
                path.push(a);
                bottleneck = bottleneck.min(self.cap[a as usize]);
                v = to;
            } else {
                iter[v] = self.next[a as usize];
            }
        }
    }
}

/// Node layout for bipartite b-matching networks: `source`, workers, tasks,
/// `sink`.
pub(crate) struct BipartiteNetwork {
    /// The flow network.
    pub net: FlowNetwork,
    /// Arc id of each graph edge's worker→task arc, indexed by edge id.
    pub edge_arcs: Vec<u32>,
    /// Source node index.
    pub source: usize,
    /// Sink node index.
    pub sink: usize,
}

/// Builds the standard b-matching network over a subset of edges
/// (`edge_mask[e]` — pass `None` for all edges).
pub(crate) fn build_bipartite_network(
    g: &BipartiteGraph,
    edge_mask: Option<&[bool]>,
) -> BipartiteNetwork {
    let n_w = g.n_workers();
    let n_t = g.n_tasks();
    let source = 0usize;
    let worker_node = |w: usize| 1 + w;
    let task_node = |t: usize| 1 + n_w + t;
    let sink = 1 + n_w + n_t;
    let mut net = FlowNetwork::new(sink + 1);
    net.reserve(n_w + n_t + g.n_edges());
    for w in g.workers() {
        net.add_arc(source, worker_node(w.index()), g.capacity(w));
    }
    let mut edge_arcs = vec![NONE; g.n_edges()];
    for e in g.edges() {
        if edge_mask.is_none_or(|m| m[e.index()]) {
            let a = net.add_arc(
                worker_node(g.worker_of(e).index()),
                task_node(g.task_of(e).index()),
                1,
            );
            edge_arcs[e.index()] = a;
        }
    }
    for t in g.tasks() {
        net.add_arc(task_node(t.index()), sink, g.demand(t));
    }
    BipartiteNetwork {
        net,
        edge_arcs,
        source,
        sink,
    }
}

/// Maximum-cardinality b-matching via Dinic (the `Cardinality` baseline).
pub fn max_cardinality_bmatching(g: &BipartiteGraph) -> Matching {
    let mut bn = build_bipartite_network(g, None);
    bn.net.max_flow(bn.source, bn.sink);
    let edges = g
        .edges()
        .filter(|e| {
            let a = bn.edge_arcs[e.index()];
            a != NONE && bn.net.flow(a) > 0
        })
        .collect();
    Matching::from_edges(edges)
}

/// Size of the maximum b-matching using only edges where `edge_mask` is true.
/// The feasibility probe of the egalitarian threshold search.
pub fn max_cardinality_masked(g: &BipartiteGraph, edge_mask: &[bool]) -> u64 {
    let mut bn = build_bipartite_network(g, Some(edge_mask));
    bn.net.max_flow(bn.source, bn.sink)
}

/// Extracts the matching (not just its size) over a masked edge set.
pub fn max_matching_masked(g: &BipartiteGraph, edge_mask: &[bool]) -> Matching {
    let mut bn = build_bipartite_network(g, Some(edge_mask));
    bn.net.max_flow(bn.source, bn.sink);
    let edges = g
        .edges()
        .filter(|e| {
            let a = bn.edge_arcs[e.index()];
            a != NONE && bn.net.flow(a) > 0
        })
        .collect();
    Matching::from_edges(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::{from_edges, random_bipartite, RandomGraphSpec};

    #[test]
    fn simple_unit_matching() {
        // Perfect matching of size 2 exists.
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.0, 0.0), (0, 1, 0.0, 0.0), (1, 0, 0.0, 0.0)],
        );
        let m = max_cardinality_bmatching(&g);
        assert_eq!(m.len(), 2);
        m.validate(&g).unwrap();
    }

    #[test]
    fn bottleneck_worker() {
        // One worker with capacity 2 and three tasks: matching size 2.
        let g = from_edges(
            &[2],
            &[1, 1, 1],
            &[(0, 0, 0.0, 0.0), (0, 1, 0.0, 0.0), (0, 2, 0.0, 0.0)],
        );
        let m = max_cardinality_bmatching(&g);
        assert_eq!(m.len(), 2);
        m.validate(&g).unwrap();
    }

    #[test]
    fn demand_multiplicity() {
        // One task needs 3 distinct workers, 4 are eligible (capacity 1).
        let g = from_edges(
            &[1, 1, 1, 1],
            &[3],
            &[
                (0, 0, 0.0, 0.0),
                (1, 0, 0.0, 0.0),
                (2, 0, 0.0, 0.0),
                (3, 0, 0.0, 0.0),
            ],
        );
        let m = max_cardinality_bmatching(&g);
        assert_eq!(m.len(), 3);
        m.validate(&g).unwrap();
    }

    #[test]
    fn masked_probe() {
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.0, 0.0), (0, 1, 0.0, 0.0), (1, 0, 0.0, 0.0)],
        );
        // Edge ids (worker order): 0 = w0-t0, 1 = w0-t1, 2 = w1-t0.
        // Only the two edges of worker 0 allowed → matching size 1.
        assert_eq!(max_cardinality_masked(&g, &[true, true, false]), 1);
        // Both edges into t0 (demand 1) → still size 1.
        assert_eq!(max_cardinality_masked(&g, &[true, false, true]), 1);
        // w0-t1 and w1-t0 are disjoint → size 2.
        assert_eq!(max_cardinality_masked(&g, &[false, true, true]), 2);
        assert_eq!(max_cardinality_masked(&g, &[false, false, false]), 0);
        let m = max_matching_masked(&g, &[false, true, true]);
        assert_eq!(m.len(), 2);
        m.validate(&g).unwrap();
    }

    #[test]
    fn hall_violator_limits_size() {
        // 3 workers all only eligible for the same unit-demand task.
        let g = from_edges(
            &[1, 1, 1],
            &[1],
            &[(0, 0, 0.0, 0.0), (1, 0, 0.0, 0.0), (2, 0, 0.0, 0.0)],
        );
        assert_eq!(max_cardinality_bmatching(&g).len(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = from_edges(&[], &[], &[]);
        assert_eq!(max_cardinality_bmatching(&g).len(), 0);
    }

    #[test]
    fn flow_value_matches_matching_size_randomized() {
        for seed in 0..10 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 60,
                    n_tasks: 40,
                    avg_degree: 4.0,
                    capacity: 2,
                    demand: 2,
                },
                seed,
            );
            let m = max_cardinality_bmatching(&g);
            m.validate(&g).unwrap();
            let mut bn = build_bipartite_network(&g, None);
            let f = bn.net.max_flow(bn.source, bn.sink);
            assert_eq!(m.len() as u64, f);
            // Flow is bounded by both totals.
            assert!(f <= g.total_capacity());
            assert!(f <= g.total_demand());
        }
    }

    #[test]
    fn raw_network_diamond() {
        // Classic 4-node diamond: max flow 2.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1);
        net.add_arc(0, 2, 1);
        net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 1);
        net.add_arc(1, 2, 1); // cross arc, unused at optimum
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn raw_network_needs_residual_push_back() {
        // Flow must reroute through the residual arc to reach value 2.
        let mut net = FlowNetwork::new(6);
        // 0→1→3→5 and 0→2→4→5, plus tempting shortcut 1→4.
        net.add_arc(0, 1, 1);
        net.add_arc(0, 2, 1);
        net.add_arc(1, 3, 1);
        net.add_arc(1, 4, 1);
        net.add_arc(2, 4, 1);
        net.add_arc(3, 5, 1);
        net.add_arc(4, 5, 1);
        assert_eq!(net.max_flow(0, 5), 2);
    }
}
