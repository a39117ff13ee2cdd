//! Min-cost max-flow — the exact solver behind `ExactMB`.
//!
//! The weighted b-matching "maximize total benefit subject to capacities and
//! demands" reduces to min-cost flow on the standard 4-layer network
//! (source → workers → tasks → sink) with arc cost `-profit(e)` on each
//! eligibility edge, where `profit` is the fixed-point integer rendering of
//! the edge's benefit ([`mbta_util::fixed`]). Integer costs make every
//! comparison exact; no float drift across thousands of augmentations.
//!
//! The solver exists once, in three pieces that every caller shares:
//!
//! * `BipartiteNet` — the only code that turns a [`BipartiteGraph`] into
//!   arcs, rewrites edge costs from weights, applies a [`Matching`] as
//!   flow and reads one back out. The cold entry points below,
//!   [`verify_certificate`] and [`crate::warm::WarmNet`] each hold one.
//! * One successive-shortest-path loop, over one scratch set of labels and
//!   queues that lives as long as the network does. The loop owns the
//!   source → sink stop rule, the `ctl` handling and its telemetry tallies.
//! * One Dijkstra on reduced costs, one `augment` and one capped potential
//!   update — what an iteration of that loop under [`PathAlgo::Dijkstra`]
//!   is made of, and equally what routes each unit of imbalance in the warm
//!   solver's dual repair (the search is the certificate check's too). All
//!   three take the search direction as a const parameter: the repair
//!   searches the *transposed* residual graph for the units its hub owes;
//!   every other caller searches forward. And one queue Bellman–Ford, which
//!   seeds the potentials of a cold solve and is the per-iteration search of
//!   [`PathAlgo::Spfa`]. Both searches always consult `ctl`.
//!
//! The same network holds the certificate test
//! (`BipartiteNet::certified`): on the flow the network holds, every
//! residual arc has a non-negative reduced cost with edge costs derived
//! from the caller's weights — not read back from the arena — and no
//! hub-to-hub path is profitable. [`verify_certificate`] runs it on a
//! network built fresh, after applying the matching it is handed (which
//! must fit the capacities); in debug builds every completed
//! free-cardinality solve runs it on itself — each cold Dijkstra solve
//! here and every [`crate::warm::WarmNet`] solve — so a solve that is
//! wrong for its caller's inputs fails where it happens.
//!
//! A cold solve is zero flow, Bellman–Ford potentials, loop.
//! [`max_weight_bmatching`], [`max_weight_bmatching_ctl`] and
//! [`max_weight_bmatching_certified`] are projections of that one body; no
//! serving solve runs it, since [`crate::warm::WarmNet`] solves by repair
//! alone, its first solve included (from zero prices).
//! FIFO queue discipline, arc insertion order and heap tie-breaking decide
//! which optimal flow is returned and are part of the contract
//! (`tests/solver_golden.rs` pins them).
//!
//! Two path-finding strategies are provided (the F12 ablation):
//!
//! * [`PathAlgo::Dijkstra`] — successive shortest augmenting paths on
//!   *reduced* costs with Johnson potentials; one initial Bellman–Ford pass
//!   eliminates the negative costs, then every iteration is a plain Dijkstra
//!   over an [`IndexedHeap`]. The asymptotically right choice.
//! * [`PathAlgo::Spfa`] — queue-based Bellman–Ford every iteration; simpler,
//!   no potentials, and the classic "fast in practice on sparse graphs"
//!   folklore choice. Usually loses to Dijkstra once instances grow.
//!
//! Two cardinality modes:
//!
//! * [`FlowMode::FreeCardinality`] — stop as soon as the cheapest augmenting
//!   path has non-negative true cost: the profit-maximizing b-matching of
//!   *any* size. This is the `ExactMB` objective (benefits are ≥ 0 per edge,
//!   but residual paths can have negative marginal profit).
//! * [`FlowMode::MaxFlow`] — saturate: among maximum-cardinality
//!   assignments, the most profitable one.

use crate::solution::Matching;
use mbta_graph::{BipartiteGraph, EdgeId};
use mbta_util::fixed::benefit_to_profit;
use mbta_util::{IndexedHeap, SolveCtl};
use std::collections::VecDeque;

pub(crate) const NONE: u32 = u32::MAX;
const INF: i64 = i64::MAX / 4;

/// Path-finding strategy for the successive-shortest-path loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathAlgo {
    /// Dijkstra on reduced costs with Johnson potentials.
    Dijkstra,
    /// Queue-based Bellman–Ford (SPFA) on raw costs, every iteration.
    Spfa,
}

/// When the augmentation loop stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowMode {
    /// Stop when the next augmenting path would not improve the objective.
    FreeCardinality,
    /// Push flow until no augmenting path exists.
    MaxFlow,
}

/// A min-cost flow network (forward/backward arc-pair arena, `i64` costs).
#[derive(Debug, Clone)]
pub struct CostFlow {
    pub(crate) head: Vec<u32>,
    pub(crate) next: Vec<u32>,
    pub(crate) first: Vec<u32>,
    pub(crate) cap: Vec<u32>,
    pub(crate) cost: Vec<i64>,
    pub(crate) n_nodes: usize,
}

/// Result of a [`CostFlow::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowResult {
    /// Total flow pushed.
    pub flow: u64,
    /// Total cost of the pushed flow (sum over arcs of `flow × cost`).
    pub cost: i64,
    /// Number of augmenting-path iterations.
    pub iterations: u64,
    /// Number of nonzero Johnson-potential adjustments across all
    /// iterations, counted as the update over every node would make them
    /// (0 for SPFA, which runs without potentials).
    pub potential_updates: u64,
    /// Nodes finalised by the call's Dijkstra searches (0 for SPFA);
    /// `settled / iterations` is how far a search reaches per path.
    pub settled: u64,
}

pub(crate) const NO_FLOW: FlowResult = FlowResult {
    flow: 0,
    cost: 0,
    iterations: 0,
    potential_updates: 0,
    settled: 0,
};

/// Node labels and work queues of the path searches: sized once for a
/// network, then reused by every search on it (no per-search allocation).
#[derive(Debug, Clone)]
pub(crate) struct Scratch {
    /// Node potentials; the reduced cost of `u → v` is `cost + pi[u] − pi[v]`.
    /// All zero while [`PathAlgo::Spfa`] runs.
    pub(crate) pi: Vec<i64>,
    pub(crate) dist: Vec<i64>,
    pub(crate) parent: Vec<u32>,
    /// The nodes whose `dist` / `parent` labels the last search wrote; every
    /// other node is at `INF` / `NONE`. A search resets only these, and a
    /// potential update visits only these, so neither costs O(n).
    touched: Vec<u32>,
    /// Arc count of the relaxation chain behind each `dist` label — the
    /// Bellman–Ford cycle guard.
    len: Vec<u32>,
    in_queue: Vec<bool>,
    queue: VecDeque<u32>,
    heap: IndexedHeap<i64>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            pi: vec![0; n],
            dist: vec![INF; n],
            parent: vec![NONE; n],
            touched: Vec::with_capacity(n),
            len: vec![0; n],
            in_queue: vec![false; n],
            queue: VecDeque::with_capacity(n),
            heap: IndexedHeap::new(n),
        }
    }

    /// Puts the labels the last search wrote back to `INF` / `NONE`.
    fn reset_labels(&mut self) {
        for &v in &self.touched {
            (self.dist[v as usize], self.parent[v as usize]) = (INF, NONE);
        }
        self.touched.clear();
        debug_assert!(
            self.dist.iter().all(|&d| d == INF) && self.parent.iter().all(|&p| p == NONE),
            "a label outside the touched list"
        );
    }

    /// The potential update after a search that stopped at distance `cap`:
    /// `π[v] += min(dist[v], cap)` — `−=` after a search of the transposed
    /// graph (`REV`) — unlabelled nodes counting as `∞`. It keeps every
    /// residual reduced cost non-negative for any `cap ≤ dist[stop node]`
    /// (see [`CostFlow::dijkstra`]).
    ///
    /// Reduced costs do not change when every potential shifts by the same
    /// amount, so the uniform `+cap` part is left out: only the labelled
    /// nodes below `cap` move, by `dist[v] − cap`. Every potential comes
    /// out `cap` below the full update's, which prices every arc the same.
    /// Returns how many potentials the full update would have moved: every
    /// node, less the labelled ones at distance 0, unless `cap` is 0.
    pub(crate) fn lift<const REV: bool>(&mut self, cap: i64) -> u64 {
        let mut at_zero = 0;
        for &v in &self.touched {
            let (p, d) = (&mut self.pi[v as usize], self.dist[v as usize]);
            if d < cap {
                *p += if REV { cap - d } else { d - cap };
            }
            at_zero += u64::from(d == 0);
        }
        if cap > 0 {
            self.pi.len() as u64 - at_zero
        } else {
            0
        }
    }
}

/// How a [`CostFlow::bellman_ford`] pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BellmanFord {
    /// The labels converged: `dist[v] ≤ dist[u] + cost` on every residual
    /// arc out of a labelled node.
    Converged,
    /// `ctl` stopped the pass; the labels are partial and must not be used.
    Interrupted,
    /// A negative residual cycle is reachable from the start node.
    NegativeCycle,
}

/// How a [`CostFlow::dijkstra`] search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Search {
    /// This target was finalized; `dist` and `parent` describe a shortest
    /// path to it.
    Reached(usize),
    /// Every reachable node was finalized and none is a target.
    Exhausted,
    /// `ctl` stopped the search; the labels are partial and must not be used.
    Interrupted,
}

impl CostFlow {
    /// Creates a network with `n_nodes` nodes and no arcs.
    pub fn new(n_nodes: usize) -> Self {
        Self {
            head: Vec::new(),
            next: Vec::new(),
            first: vec![NONE; n_nodes],
            cap: Vec::new(),
            cost: Vec::new(),
            n_nodes,
        }
    }

    /// Pre-reserves space for `n_arcs` logical arcs.
    pub fn reserve(&mut self, n_arcs: usize) {
        self.head.reserve(2 * n_arcs);
        self.next.reserve(2 * n_arcs);
        self.cap.reserve(2 * n_arcs);
        self.cost.reserve(2 * n_arcs);
    }

    /// Adds an arc `from → to` with capacity `cap` and per-unit cost `cost`.
    /// Returns the arc id; the residual twin is `id ^ 1`.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: u32, cost: i64) -> u32 {
        debug_assert!(from < self.n_nodes && to < self.n_nodes);
        let id = self.head.len() as u32;
        self.head.push(to as u32);
        self.cap.push(cap);
        self.cost.push(cost);
        self.next.push(self.first[from]);
        self.first[from] = id;

        self.head.push(from as u32);
        self.cap.push(0);
        self.cost.push(-cost);
        self.next.push(self.first[to]);
        self.first[to] = id + 1;
        id
    }

    /// Flow pushed through arc `id`.
    pub fn flow(&self, id: u32) -> u32 {
        self.cap[(id ^ 1) as usize]
    }

    /// Runs successive shortest augmenting paths from `source` to `sink`.
    pub fn run(
        &mut self,
        source: usize,
        sink: usize,
        mode: FlowMode,
        algo: PathAlgo,
    ) -> FlowResult {
        let mut sc = Scratch::new(self.n_nodes);
        let ctl = SolveCtl::unlimited();
        self.run_cold(source, sink, mode, algo, &mut sc, &ctl).0
    }

    /// The cold solve on the flow currently on the network, with a fresh
    /// scratch (callers start from zero flow and zero potentials):
    /// potentials from one Bellman–Ford pass on raw costs — the network has
    /// negative arcs but no negative cycles — then the loop. SPFA searches
    /// raw costs, so its potentials stay zero.
    fn run_cold(
        &mut self,
        source: usize,
        sink: usize,
        mode: FlowMode,
        algo: PathAlgo,
        sc: &mut Scratch,
        ctl: &SolveCtl,
    ) -> (FlowResult, bool) {
        assert_ne!(source, sink);
        if algo == PathAlgo::Dijkstra {
            if self.bellman_ford(source, sc, ctl) != BellmanFord::Converged {
                return (NO_FLOW, false);
            }
            for (p, &d) in sc.pi.iter_mut().zip(&sc.dist) {
                *p = if d >= INF { 0 } else { d };
            }
        }
        self.shortest_paths(source, sink, mode, algo, sc, ctl)
    }

    /// The successive-shortest-path loop, from the flow on the network and
    /// the potentials in `sc.pi` (which must leave no residual arc with a
    /// negative reduced cost when `algo` is Dijkstra, and be zero for SPFA).
    /// Returns `(tallies of this call, completed)`.
    fn shortest_paths(
        &mut self,
        source: usize,
        sink: usize,
        mode: FlowMode,
        algo: PathAlgo,
        sc: &mut Scratch,
        ctl: &SolveCtl,
    ) -> (FlowResult, bool) {
        let mut r = NO_FLOW;
        let completed = loop {
            // An interrupted search leaves partial labels that would
            // corrupt the potential update; discard it and keep the feasible
            // flow pushed so far (a prefix of the augmenting-path sequence).
            let found = !ctl.stop_requested()
                && match algo {
                    PathAlgo::Dijkstra => {
                        let (end, settled) = self.dijkstra::<false>(source, |v| v == sink, sc, ctl);
                        r.settled += settled;
                        end != Search::Interrupted
                    }
                    PathAlgo::Spfa => self.bellman_ford(source, sc, ctl) == BellmanFord::Converged,
                };
            if !found {
                break false;
            }
            let dt = sc.dist[sink];
            let true_cost = dt + sc.pi[sink] - sc.pi[source];
            if dt >= INF || (mode == FlowMode::FreeCardinality && true_cost >= 0) {
                break true;
            }
            r.iterations += 1;
            let (_, pushed, path_cost) = self.augment::<false>(sink, &sc.parent, u32::MAX);
            debug_assert_eq!(path_cost, true_cost);
            r.flow += u64::from(pushed);
            r.cost += i64::from(pushed) * path_cost;
            if algo == PathAlgo::Dijkstra {
                r.potential_updates += sc.lift::<false>(dt);
            }
        };
        record_solve(&r);
        (r, completed)
    }

    /// Queue Bellman–Ford (SPFA) from `from` over the *current residual
    /// graph* on raw costs, filling `sc.dist` and `sc.parent`.
    ///
    /// Cycle detection is exact, by path length: a relaxation chain longer
    /// than |V| arcs must repeat a node, and labels only ever decrease, so
    /// the repeated stretch has negative cost.
    fn bellman_ford(&self, from: usize, sc: &mut Scratch, ctl: &SolveCtl) -> BellmanFord {
        let n = self.n_nodes as u32;
        // Any label may be written: the next search resets them all.
        sc.touched.clear();
        sc.touched.extend(0..n);
        let queue = &mut sc.queue;
        let (dist, parent) = (&mut sc.dist[..], &mut sc.parent[..]);
        let (len, in_queue) = (&mut sc.len[..], &mut sc.in_queue[..]);
        parent.fill(NONE);
        queue.clear();
        dist.fill(INF);
        in_queue.fill(false);
        // A chain length is written before it is read everywhere but at the
        // start node.
        (dist[from], len[from], in_queue[from]) = (0, 0, true);
        queue.push_back(from as u32);
        while let Some(v) = queue.pop_front() {
            if ctl.should_stop() {
                return BellmanFord::Interrupted;
            }
            let v = v as usize;
            in_queue[v] = false;
            let (dv, chain) = (dist[v], len[v] + 1);
            let mut a = self.first[v];
            while a != NONE {
                let ai = a as usize;
                if self.cap[ai] > 0 {
                    let to = self.head[ai] as usize;
                    let nd = dv + self.cost[ai];
                    if nd < dist[to] {
                        dist[to] = nd;
                        parent[to] = a;
                        len[to] = chain;
                        if chain > n {
                            return BellmanFord::NegativeCycle;
                        }
                        if !in_queue[to] {
                            in_queue[to] = true;
                            queue.push_back(to as u32);
                        }
                    }
                }
                a = self.next[ai];
            }
        }
        BellmanFord::Converged
    }

    /// Dijkstra on reduced costs `cost + π[u] − π[v]` from `start` (at
    /// distance 0), terminating as soon as a node that `is_target` is
    /// finalized; returns how it ended and how many nodes it finalized. The
    /// labels of an interrupted search must not be used for augmentation.
    /// Only the labels the previous search wrote are reset, and the ones
    /// this search writes are listed for the next reset and for
    /// [`Scratch::lift`]: a search costs what it reaches, not O(n).
    ///
    /// Early termination is sound together with the potential update
    /// `π[v] += min(dist[v], dist[target])` (treating untouched nodes as
    /// `dist = ∞ → min = dist[target]`): for every residual arc `u → v` the
    /// updated reduced cost stays non-negative — finalized→finalized is the
    /// classic argument; any node adjacent to a finalized node was relaxed,
    /// and all still-queued tentative distances are `≥ dist[target]` at the
    /// moment the target pops, which covers the remaining cases.
    ///
    /// `REV` searches the transposed residual graph: `dist[u]` is then the
    /// distance from `u` *to* the starts, the residual arc `u → v` is
    /// followed from `v` back to `u`, `parent[u]` is that arc (it points
    /// towards the starts), and the update is the mirror
    /// `π[v] −= min(dist[v], dist[target])`, sound by the same argument
    /// with the arc reversed.
    ///
    /// Kept out of line on purpose: as a function of its own, `self` and
    /// `sc` are `noalias` parameters; inlined into the shared loop that
    /// knowledge is lost and the arc loop measures 3–8% slower. Direction
    /// and predicate are monomorphised, so the cold loop's forward search
    /// and `v == sink` compile to the arc test and the comparison they
    /// always were.
    #[inline(never)]
    pub(crate) fn dijkstra<const REV: bool>(
        &self,
        start: usize,
        is_target: impl Fn(usize) -> bool,
        sc: &mut Scratch,
        ctl: &SolveCtl,
    ) -> (Search, u64) {
        sc.reset_labels();
        let (heap, touched) = (&mut sc.heap, &mut sc.touched);
        let (pi, dist, parent) = (&sc.pi[..], &mut sc.dist[..], &mut sc.parent[..]);
        heap.clear();
        dist[start] = 0;
        touched.push(start as u32);
        heap.push_or_decrease(start, 0);
        let mut settled = 0;
        while let Some((v, dv)) = heap.pop() {
            if ctl.should_stop() {
                return (Search::Interrupted, settled);
            }
            if dv > dist[v] {
                continue;
            }
            settled += 1;
            if is_target(v) {
                return (Search::Reached(v), settled);
            }
            // Read once per node: the label slices are reborrows of one
            // scratch value, so the compiler cannot prove that a `dist`
            // store leaves `pi[v]` alone and would reload it per arc.
            let pv = pi[v];
            let mut a = self.first[v];
            while a != NONE {
                let ai = a as usize;
                // The residual arc this step follows: `v → to` itself, or
                // its twin `to → v` when searching the transposed graph.
                let r = ai ^ usize::from(REV);
                if self.cap[r] > 0 {
                    let to = self.head[ai] as usize;
                    let red = self.cost[r] + if REV { pi[to] - pv } else { pv - pi[to] };
                    debug_assert!(red >= 0, "negative reduced cost {red}");
                    let nd = dv + red;
                    if nd < dist[to] {
                        if dist[to] == INF {
                            touched.push(to as u32);
                        }
                        dist[to] = nd;
                        parent[to] = r as u32;
                        heap.push_or_decrease(to, nd);
                    }
                }
                a = self.next[ai];
            }
        }
        (Search::Exhausted, settled)
    }

    /// Augments by at most `limit` units along the parent arcs between the
    /// search's start node (the one without a parent arc) and `to`: from
    /// the start to `to`, or from `to` to the start after a `REV` search.
    /// Returns `(start, pushed, true_path_cost)`.
    pub(crate) fn augment<const REV: bool>(
        &mut self,
        to: usize,
        parent_arc: &[u32],
        limit: u32,
    ) -> (usize, u32, i64) {
        // Walking away from `to`, the next node is a parent arc's tail (the
        // path runs start → `to`) or, after a `REV` search, its head.
        let step = |a: usize| a ^ usize::from(!REV);
        let mut bottleneck = limit;
        let mut cost = 0i64;
        let mut v = to;
        while parent_arc[v] != NONE {
            let a = parent_arc[v] as usize;
            bottleneck = bottleneck.min(self.cap[a]);
            cost += self.cost[a];
            v = self.head[step(a)] as usize;
        }
        let start = v;
        let mut v = to;
        while v != start {
            let a = parent_arc[v] as usize;
            self.cap[a] -= bottleneck;
            self.cap[a ^ 1] += bottleneck;
            v = self.head[step(a)] as usize;
        }
        (start, bottleneck, cost)
    }

    /// Reduced cost of arc `a` under `pi`.
    pub(crate) fn reduced_cost(&self, a: usize, pi: &[i64]) -> i64 {
        self.cost[a] + pi[self.head[a ^ 1] as usize] - pi[self.head[a] as usize]
    }
}

/// The 4-layer flow network of one bipartite market — source (node 0) →
/// workers → tasks → sink — with the scratch its searches run on. Built
/// once per topology; costs are set per solve.
///
/// Arc ids follow the build order: every `source → worker` arc, then every
/// edge arc in edge order, then every `task → sink` arc.
#[derive(Debug, Clone)]
pub(crate) struct BipartiteNet {
    pub(crate) net: CostFlow,
    pub(crate) source: usize,
    pub(crate) sink: usize,
    /// Arc id of `source → worker w`.
    source_arcs: Vec<u32>,
    /// Arc id of `worker(e) → task(e)` for edge `e`.
    edge_arcs: Vec<u32>,
    /// Arc id of `task t → sink`.
    sink_arcs: Vec<u32>,
    pub(crate) sc: Scratch,
    /// The part of the market the capacities in force leave open, listed
    /// when the network is built and kept by [`set_units`](Self::set_units)
    /// and [`flush`](Self::flush): every pass that would walk the whole
    /// network walks this instead.
    pub(crate) open: Open,
}

/// The listed part of a [`BipartiteNet`]: every worker and task with
/// capacity and every edge between two of them, plus nodes and edges that
/// closed since the list was last compacted. A closed node's arcs and a
/// closed edge's arc have no capacity either way, so no search reaches
/// them, re-pricing a closed node moves nothing, and neither saturating
/// nor resetting them writes anything: a pass over the listed part does
/// what the pass over the whole network would.
#[derive(Debug, Clone, Default)]
pub(crate) struct Open {
    /// Listed worker and task nodes, ascending (every worker before every
    /// task, as in the network): re-pricing walks them in this order.
    pub(crate) nodes: Vec<u32>,
    /// Listed edges, in the order they were listed.
    edges: Vec<EdgeId>,
    /// The listed nodes' hub arcs and the listed edges' arcs, in the order
    /// they were listed. The passes that walk them — saturating, resetting
    /// — do what they do to each arc pair whatever the order: a pair's
    /// reduced cost depends on the prices alone, and at most one arc of it
    /// has a negative one.
    pub(crate) arcs: Vec<u32>,
    /// Per network node and per edge, whether it is listed.
    node_listed: Vec<bool>,
    edge_listed: Vec<bool>,
    /// Per network node, whether its hub arc has units (mirrored here so
    /// re-opening an edge reads two flags, not two hub arcs).
    node_open: Vec<bool>,
    /// How many listed edges are open.
    open_edges: usize,
    /// The nodes a capacity write may have opened or closed since the last
    /// [`flush`](BipartiteNet::flush), once each (`pending` marks them),
    /// and a pooled buffer for the edges at them, empty between calls.
    flipped: Vec<usize>,
    pending: Vec<bool>,
    at_flipped: Vec<EdgeId>,
}

impl BipartiteNet {
    /// Builds the zero-flow, zero-cost network for `g`'s topology at `g`'s
    /// capacities, its open set listed.
    pub(crate) fn new(g: &BipartiteGraph) -> Self {
        let (n_w, n_t) = (g.n_workers(), g.n_tasks());
        let (source, sink) = (0, 1 + n_w + n_t);
        let mut net = CostFlow::new(sink + 1);
        net.reserve(n_w + n_t + g.n_edges());
        let source_arcs = g
            .workers()
            .map(|w| net.add_arc(source, 1 + w.index(), g.capacity(w), 0))
            .collect();
        let edge_arcs = g
            .edges()
            .map(|e| {
                let (w, t) = (g.worker_of(e), g.task_of(e));
                let units = u32::from(g.capacity(w) > 0 && g.demand(t) > 0);
                net.add_arc(1 + w.index(), 1 + n_w + t.index(), units, 0)
            })
            .collect();
        let sink_arcs = g
            .tasks()
            .map(|t| net.add_arc(1 + n_w + t.index(), sink, g.demand(t), 0))
            .collect();
        let mut bn = BipartiteNet {
            sc: Scratch::new(net.n_nodes),
            net,
            source,
            sink,
            source_arcs,
            edge_arcs,
            sink_arcs,
            open: Open::default(),
        };
        bn.open = bn.list_open();
        bn
    }

    /// `[workers, tasks, edges]` of the topology the network was built for.
    pub(crate) fn shape(&self) -> [usize; 3] {
        [&self.source_arcs, &self.sink_arcs, &self.edge_arcs].map(Vec::len)
    }

    /// Rewrites the open edges' arc costs in place: `-profit`, twin
    /// `+profit`. No pass reads a closed arc's cost, and an edge that
    /// reopens has its cost written by the next call.
    pub(crate) fn set_costs(&mut self, weights: &[f64]) {
        assert_eq!(
            weights.len(),
            self.edge_arcs.len(),
            "weight slice length mismatch"
        );
        for i in 0..self.open.edges.len() {
            let e = self.open.edges[i];
            self.set_cost(e, weights[e.index()]);
        }
    }

    /// Writes edge `e`'s arc costs from its weight, whether it is open or
    /// not.
    pub(crate) fn set_cost(&mut self, e: EdgeId, weight: f64) {
        let a = self.edge_arcs[e.index()] as usize;
        let profit = benefit_to_profit(weight);
        (self.net.cost[a], self.net.cost[a ^ 1]) = (-profit, profit);
    }

    /// Moves inner node `v`'s capacity to `c`, keeping the flow through it
    /// as far as `c` holds it. O(1): when `v` opens or closes, the edges at
    /// it follow at the next [`flush`](Self::flush), which `v` is named for.
    pub(crate) fn set_units(&mut self, v: usize, c: u32) {
        let a = self.hub_arc(v) as usize;
        let (cap, open) = (&mut self.net.cap, &mut self.open);
        let was = cap[a] + cap[a ^ 1];
        if was == c {
            return;
        }
        let flow = cap[a ^ 1].min(c);
        (cap[a], cap[a ^ 1]) = (c - flow, flow);
        if (was == 0) != (c == 0) && !open.pending[v] {
            open.pending[v] = true;
            open.flipped.push(v);
        }
    }

    /// Brings the open set up to the capacities in force: opens or closes
    /// the edges at every node a capacity write named since the last flush
    /// ([`reopen`](Self::reopen)). Every pass that walks the listed part
    /// runs after one.
    pub(crate) fn flush(&mut self) {
        if !self.open.flipped.is_empty() {
            let mut open = std::mem::take(&mut self.open);
            self.reopen(&mut open);
            self.open = open;
        }
    }

    /// Moves one unit of flow onto edge `e` (`on`) or off it, through its
    /// worker's and its task's hub arcs: the ends must have the room, or
    /// the flow. An edge the last flush left closed — an end of it opened
    /// since — is opened and listed as it gains the unit.
    pub(crate) fn flip(&mut self, e: EdgeId, on: bool) {
        let a = self.edge_arcs[e.index()] as usize;
        if on && !self.edge_open(e) {
            let open = &mut self.open;
            self.net.cap[a] = 1;
            open.open_edges += 1;
            if !open.edge_listed[e.index()] {
                open.edge_listed[e.index()] = true;
                open.edges.push(e);
                open.arcs.push(a as u32);
            }
        }
        let (w, t) = (self.net.head[a ^ 1] as usize, self.net.head[a] as usize);
        let arcs = [a, self.hub_arc(w) as usize, self.hub_arc(t) as usize];
        for a in arcs {
            let (from, to) = if on { (a, a ^ 1) } else { (a ^ 1, a) };
            self.net.cap[from] -= 1;
            self.net.cap[to] += 1;
        }
    }

    /// Whether edge `e` carries flow.
    pub(crate) fn carries(&self, e: EdgeId) -> bool {
        self.net.flow(self.edge_arcs[e.index()]) > 0
    }

    /// Opens or closes the edges at each of `open.flipped` — nodes that
    /// may have opened or closed — and lists what opened. A node or edge
    /// that closed stays listed, so one that reopens costs only its arcs,
    /// until the closed edges listed outnumber an eighth of the open ones
    /// (and 16): then the list drops every closed node and edge. On a
    /// carried network a node closes with no flow through it, so no edge
    /// closes under a unit; a seeded solve resets the flow anyway.
    fn reopen(&mut self, open: &mut Open) {
        // A node named twice may have flipped back; every step below reads
        // the node as it now stands, so a repeat changes nothing.
        let mut listed = false;
        let mut edges = std::mem::take(&mut open.at_flipped);
        for v in open.flipped.drain(..) {
            open.pending[v] = false;
            let is_open = self.hub_units(v) > 0;
            open.node_open[v] = is_open;
            if is_open && !open.node_listed[v] {
                open.node_listed[v] = true;
                open.nodes.push(v as u32);
                open.arcs.push(self.hub_arc(v));
                listed = true;
            }
            self.edges_at(v, &mut edges);
        }
        let (cap, head) = (&mut self.net.cap, &self.net.head);
        for e in edges.drain(..) {
            let a = self.edge_arcs[e.index()] as usize;
            let (w, t) = (head[a ^ 1] as usize, head[a] as usize);
            let is_open = open.node_open[w] && open.node_open[t];
            let was = cap[a] + cap[a ^ 1] > 0;
            if is_open != was {
                (cap[a], cap[a ^ 1]) = (u32::from(is_open), 0);
                open.open_edges = open.open_edges + usize::from(is_open) - usize::from(was);
            }
            if is_open && !open.edge_listed[e.index()] {
                open.edge_listed[e.index()] = true;
                open.edges.push(e);
                open.arcs.push(a as u32);
            }
        }
        open.at_flipped = edges;
        if open.edges.len() > open.open_edges + open.open_edges / 8 + 16 {
            let node_open = &open.node_open;
            open.nodes.retain(|&v| {
                let keep = node_open[v as usize];
                open.node_listed[v as usize] = keep;
                keep
            });
            open.edges.retain(|&e| {
                let keep = self.edge_open(e);
                open.edge_listed[e.index()] = keep;
                keep
            });
            self.index_arcs(open);
        }
        if listed {
            open.nodes.sort_unstable();
        }
    }

    /// Appends the edges at inner node `v` to `out`. Edge `e`'s arc is the
    /// `e`-th after the source arcs, so the arc names the edge.
    fn edges_at(&self, v: usize, out: &mut Vec<EdgeId>) {
        let first = 2 * self.source_arcs.len();
        let edge_arcs = first..first + 2 * self.edge_arcs.len();
        let mut a = self.net.first[v];
        while a != NONE {
            let arc = (a & !1) as usize;
            if edge_arcs.contains(&arc) {
                let e = (arc - first) / 2;
                debug_assert_eq!(self.edge_arcs[e] as usize, arc);
                out.push(EdgeId::from_index(e));
            }
            a = self.net.next[a as usize];
        }
    }

    /// Inner node `v`'s hub arc: its worker's source arc or its task's
    /// sink arc.
    pub(crate) fn hub_arc(&self, v: usize) -> u32 {
        let n_w = self.source_arcs.len();
        match v - 1 {
            w if w < n_w => self.source_arcs[w],
            t => self.sink_arcs[t - n_w],
        }
    }

    /// Inner node `v`'s capacity: its hub arc's units, used or not.
    pub(crate) fn hub_units(&self, v: usize) -> u32 {
        let a = self.hub_arc(v) as usize;
        self.net.cap[a] + self.net.cap[a ^ 1]
    }

    /// Whether edge `e`'s arc has capacity, used or not.
    fn edge_open(&self, e: EdgeId) -> bool {
        let a = self.edge_arcs[e.index()] as usize;
        self.net.cap[a] + self.net.cap[a ^ 1] > 0
    }

    /// The open set of the capacities on the network: every inner node
    /// with units and every edge with capacity, ascending.
    fn list_open(&self) -> Open {
        let inner = 1..self.sink;
        let mut node_open = vec![false; self.sink + 1];
        for v in inner.clone() {
            node_open[v] = self.hub_units(v) > 0;
        }
        let nodes = inner.filter(|&v| node_open[v]).map(|v| v as u32).collect();
        let all = (0..self.edge_arcs.len()).map(EdgeId::from_index);
        let edges: Vec<EdgeId> = all.filter(|&e| self.edge_open(e)).collect();
        let mut edge_listed = vec![false; self.edge_arcs.len()];
        for e in &edges {
            edge_listed[e.index()] = true;
        }
        let mut open = Open {
            nodes,
            open_edges: edges.len(),
            edges,
            node_listed: node_open.clone(),
            edge_listed,
            pending: vec![false; node_open.len()],
            node_open,
            ..Open::default()
        };
        self.index_arcs(&mut open);
        open
    }

    /// Lists the listed nodes' hub arcs, then the listed edges' arcs.
    fn index_arcs(&self, open: &mut Open) {
        let hub = |&v: &u32| self.hub_arc(v as usize);
        open.arcs.clear();
        open.arcs.extend(open.nodes.iter().map(hub));
        open.arcs
            .extend(open.edges.iter().map(|e| self.edge_arcs[e.index()]));
    }

    /// Zeroes all flow: every listed arc's twin hands its capacity back.
    fn reset_flow(&mut self) {
        let cap = &mut self.net.cap;
        for &a in &self.open.arcs {
            let a = a as usize;
            cap[a] += std::mem::take(&mut cap[a ^ 1]);
        }
    }

    /// Applies `edges` as flow on the empty network. Returns `false`
    /// (leaving the network at zero flow) if it names an unknown edge,
    /// repeats one, or exceeds a capacity or demand.
    pub(crate) fn apply(&mut self, edges: impl IntoIterator<Item = EdgeId>) -> bool {
        self.reset_flow();
        let fits = edges.into_iter().all(|e| {
            let Some(&a) = self.edge_arcs.get(e.index()) else {
                return false;
            };
            let (w, t) = (self.net.head[(a ^ 1) as usize], self.net.head[a as usize]);
            let arcs = [a, self.hub_arc(w as usize), self.hub_arc(t as usize)];
            if arcs.iter().any(|&a| self.net.cap[a as usize] == 0) {
                return false;
            }
            for a in arcs {
                self.net.cap[a as usize] -= 1;
                self.net.cap[(a ^ 1) as usize] += 1;
            }
            true
        });
        if !fits {
            self.reset_flow();
        }
        fits
    }

    /// The certificate test: whether the flow on the network is an optimal
    /// free-cardinality b-matching at the capacities in force and under
    /// `weights`, with the potentials in the scratch as its proof. It
    /// holds when
    ///
    /// * every residual arc has a non-negative reduced cost, each edge's
    ///   cost derived from `weights` rather than read from the arena, so a
    ///   cost write a solve missed shows here;
    /// * no residual hub-to-hub path is profitable. With the hub ends
    ///   priced alike the clause above says so already; otherwise one
    ///   search each way on reduced costs (non-negative by then) measures
    ///   the cheapest path, whose true cost is that plus the ends' price
    ///   gap.
    ///
    /// It changes neither flow nor potentials, and allocates nothing. The
    /// open set must be flushed.
    pub(crate) fn certified(&mut self, weights: &[f64]) -> bool {
        if self.sc.pi.len() != self.net.n_nodes {
            return false;
        }
        let (net, pi, open) = (&self.net, &self.sc.pi, &self.open);
        let hubs = open.nodes.iter().map(|&v| (self.hub_arc(v as usize), 0));
        let edge = |&e: &EdgeId| {
            let i = e.index();
            (self.edge_arcs[i], -benefit_to_profit(weights[i]))
        };
        let mut arcs = hubs.chain(open.edges.iter().map(edge));
        let sound = arcs.all(|(a, cost)| {
            let a = a as usize;
            let red = cost + pi[net.head[a ^ 1] as usize] - pi[net.head[a] as usize];
            (net.cap[a] == 0 || red >= 0) && (net.cap[a ^ 1] == 0 || red <= 0)
        });
        let (source, sink, gap) = (self.source, self.sink, pi[self.sink] - pi[self.source]);
        // The reduced length of the cheapest residual path, `INF` if none.
        let (net, sc, ctl) = (&self.net, &mut self.sc, SolveCtl::unlimited());
        let mut path = |from: usize, to: usize| {
            net.dijkstra::<false>(from, |v| v == to, sc, &ctl);
            sc.dist[to]
        };
        sound && (gap == 0 || path(source, sink) + gap >= 0 && path(sink, source) >= gap)
    }

    /// Reads the flow back out into `edges`, replacing what it holds: the
    /// edges carrying flow, in edge-id order.
    pub(crate) fn read_out(&self, edges: &mut Vec<EdgeId>) {
        edges.clear();
        edges.extend(self.flowing());
        edges.sort_unstable();
    }

    /// The total fixed-point profit of the flow, at the costs on the arcs.
    pub(crate) fn profit(&self) -> i64 {
        let cost = |e: EdgeId| self.net.cost[self.edge_arcs[e.index()] as usize];
        -self.flowing().map(cost).sum::<i64>()
    }

    /// The listed edges carrying flow, in no particular order.
    fn flowing(&self) -> impl Iterator<Item = EdgeId> + '_ {
        let listed = self.open.edges.iter().copied();
        listed.filter(|&e| self.carries(e))
    }
}

/// Publishes a loop run's intrinsic counters to the global telemetry
/// registry — called at the loop's exit, so every exact solve (cold or
/// warm repair) is counted exactly once.
pub(crate) fn record_solve(result: &FlowResult) {
    mbta_telemetry::counter_add!(
        "mbta_matching_mcmf_augmenting_paths_total",
        result.iterations,
    );
    mbta_telemetry::counter_add!(
        "mbta_matching_mcmf_potential_updates_total",
        result.potential_updates,
    );
    mbta_telemetry::counter_add!("mbta_matching_mcmf_settled_nodes_total", result.settled);
}

/// Statistics of an exact b-matching solve, returned alongside the matching.
#[derive(Debug, Clone, Copy)]
pub struct SolveStats {
    /// Augmenting-path iterations performed.
    pub iterations: u64,
    /// Nonzero Johnson-potential adjustments (0 under [`PathAlgo::Spfa`]).
    pub potential_updates: u64,
    /// Total integer profit of the returned matching (fixed-point scale).
    pub profit: i64,
}

/// The one cold body behind the public entry points: build, solve from zero
/// flow, read out `(matching, stats, final potentials, completed)`.
fn solve(
    g: &BipartiteGraph,
    weights: &[f64],
    mode: FlowMode,
    algo: PathAlgo,
    ctl: &SolveCtl,
) -> (Matching, SolveStats, Vec<i64>, bool) {
    let mut bn = BipartiteNet::new(g);
    bn.set_costs(weights);
    let (source, sink) = (bn.source, bn.sink);
    let (r, completed) = bn.net.run_cold(source, sink, mode, algo, &mut bn.sc, ctl);
    let mut m = Matching::empty();
    bn.read_out(&mut m.edges);
    let profit = bn.profit();
    // SPFA searches raw costs and carries no potentials to check.
    let certified = completed && mode == FlowMode::FreeCardinality && algo == PathAlgo::Dijkstra;
    debug_assert!(!certified || bn.certified(weights));
    let stats = SolveStats {
        iterations: r.iterations,
        potential_updates: r.potential_updates,
        profit,
    };
    (m, stats, bn.sc.pi, completed)
}

/// Exact maximum-weight b-matching via min-cost flow.
///
/// `weights[e]` is the benefit of edge `e` in `[0, 1]` (values are converted
/// to fixed-point profits; see [`mbta_util::fixed`]). With
/// [`FlowMode::FreeCardinality`] this returns the matching maximizing total
/// weight over all feasible matchings; with [`FlowMode::MaxFlow`], the
/// maximum-weight matching among maximum-cardinality ones.
///
/// # Example
/// ```
/// use mbta_graph::random::from_edges;
/// use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
///
/// // The greedy trap: taking the 0.9 edge blocks the 0.8 + 0.7 pairing.
/// let g = from_edges(
///     &[1, 1],
///     &[1, 1],
///     &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8), (1, 0, 0.7, 0.7)],
/// );
/// let w: Vec<f64> = g.edges().map(|e| g.rb(e)).collect();
/// let (m, stats) =
///     max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
/// assert_eq!(m.len(), 2);
/// assert!((m.total_weight(&w) - 1.5).abs() < 1e-6);
/// assert_eq!(stats.iterations, 2);
/// ```
pub fn max_weight_bmatching(
    g: &BipartiteGraph,
    weights: &[f64],
    mode: FlowMode,
    algo: PathAlgo,
) -> (Matching, SolveStats) {
    let (m, stats, ..) = solve(g, weights, mode, algo, &SolveCtl::unlimited());
    (m, stats)
}

/// Like [`max_weight_bmatching`], but consulting `ctl` so the solve can be
/// cancelled or deadlined. Returns `(matching, stats, completed)`: on early
/// stop the matching is the feasible partial assignment reached so far
/// (every augmenting-path prefix is a valid flow) and `completed` is
/// `false` — the caller must treat the result as approximate.
pub fn max_weight_bmatching_ctl(
    g: &BipartiteGraph,
    weights: &[f64],
    mode: FlowMode,
    algo: PathAlgo,
    ctl: &SolveCtl,
) -> (Matching, SolveStats, bool) {
    let (m, stats, _, completed) = solve(g, weights, mode, algo, ctl);
    (m, stats, completed)
}

/// An optimality certificate for a b-matching: node potentials under which
/// every residual arc of the induced flow has non-negative reduced cost.
///
/// By LP duality this proves the matching is maximum-weight (free
/// cardinality): any improving change corresponds to a negative-cost
/// residual cycle or a negative-cost augmenting path, and the certificate
/// rules both out. [`verify_certificate`] re-checks the condition from
/// scratch — a downstream user can validate an exact solution in O(V + E)
/// without trusting the solver.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Potentials: source, workers, tasks, sink (same node layout as the
    /// solver's internal network).
    pub potentials: Vec<i64>,
}

/// Exact solve plus certificate (free-cardinality mode, Dijkstra path
/// finding).
pub fn max_weight_bmatching_certified(
    g: &BipartiteGraph,
    weights: &[f64],
) -> (Matching, SolveStats, Certificate) {
    let (mode, algo) = (FlowMode::FreeCardinality, PathAlgo::Dijkstra);
    let (m, stats, potentials, _) = solve(g, weights, mode, algo, &SolveCtl::unlimited());
    (m, stats, Certificate { potentials })
}

/// Verifies a certificate against a matching, from scratch: builds the
/// flow network of `g` at its capacities, costs it from `weights` and runs
/// the certificate test every exact solve runs on itself in debug builds.
/// It checks that (a) the matching is feasible, (b) every residual arc of
/// the flow it induces has non-negative reduced cost under the
/// certificate's potentials — which rules out improving cycles
/// (same-cardinality reshuffles that would gain profit) — and (c) no
/// strictly profitable source → sink or sink → source path remains, so
/// neither adding nor dropping units gains.
pub fn verify_certificate(
    g: &BipartiteGraph,
    weights: &[f64],
    m: &Matching,
    cert: &Certificate,
) -> bool {
    let mut bn = BipartiteNet::new(g);
    bn.set_costs(weights);
    bn.sc.pi.clone_from(&cert.potentials);
    bn.apply(m.edges.iter().copied()) && bn.certified(weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::{from_edges, random_bipartite, RandomGraphSpec};
    use mbta_util::fixed::{objectives_close, profit_to_benefit};

    fn weights_of(g: &BipartiteGraph, lambda: f64) -> Vec<f64> {
        g.edges()
            .map(|e| lambda * g.rb(e) + (1.0 - lambda) * g.wb(e))
            .collect()
    }

    #[test]
    fn picks_the_better_perfect_matching() {
        // Two workers, two tasks. Diagonal matching worth 1.8, off-diagonal
        // worth 0.6 — both are perfect; solver must take the diagonal.
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[
                (0, 0, 0.9, 0.9),
                (0, 1, 0.3, 0.3),
                (1, 0, 0.3, 0.3),
                (1, 1, 0.9, 0.9),
            ],
        );
        let w = weights_of(&g, 0.5);
        for algo in [PathAlgo::Dijkstra, PathAlgo::Spfa] {
            let (m, stats) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, algo);
            m.validate(&g).unwrap();
            assert_eq!(m.len(), 2);
            assert!(objectives_close(m.total_weight(&w), 1.8, 2));
            assert!(objectives_close(profit_to_benefit(stats.profit), 1.8, 2));
        }
    }

    #[test]
    fn needs_augmenting_reroute() {
        // Greedy takes (w0,t0)=0.9 then can only add (w1,t1)... which does
        // not exist; optimum is (w0,t1)+(w1,t0) = 0.8 + 0.7 = 1.5 > 0.9.
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8), (1, 0, 0.7, 0.7)],
        );
        let w = weights_of(&g, 0.5);
        let (m, _) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        assert_eq!(m.len(), 2);
        assert!(objectives_close(m.total_weight(&w), 1.5, 2));
    }

    #[test]
    fn free_cardinality_skips_worthless_edges() {
        let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.5, 0.5), (1, 1, 0.0, 0.0)]);
        let w = weights_of(&g, 0.5);
        let (free, _) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        assert_eq!(free.len(), 1, "zero-weight edge must be skipped");
        let (full, _) = max_weight_bmatching(&g, &w, FlowMode::MaxFlow, PathAlgo::Dijkstra);
        assert_eq!(full.len(), 2, "max-flow mode must saturate");
    }

    #[test]
    fn capacities_and_demands_respected() {
        // Worker 0 (cap 2) is best for all three tasks; task demands 2.
        let g = from_edges(
            &[2, 1],
            &[2, 2],
            &[
                (0, 0, 0.9, 0.9),
                (0, 1, 0.9, 0.9),
                (1, 0, 0.5, 0.5),
                (1, 1, 0.4, 0.4),
            ],
        );
        let w = weights_of(&g, 0.5);
        let (m, _) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        m.validate(&g).unwrap();
        // All 4 edges fit: w0 takes 2, w1 takes 1... w1 capacity is 1 so only
        // 3 edges total.
        assert_eq!(m.len(), 3);
        assert!(objectives_close(m.total_weight(&w), 0.9 + 0.9 + 0.5, 3));
    }

    #[test]
    fn dijkstra_and_spfa_agree_on_random_instances() {
        for seed in 0..15 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 40,
                    n_tasks: 25,
                    avg_degree: 5.0,
                    capacity: 2,
                    demand: 2,
                },
                seed,
            );
            let w = weights_of(&g, 0.5);
            let (md, sd) =
                max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
            let (ms, ss) = max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Spfa);
            md.validate(&g).unwrap();
            ms.validate(&g).unwrap();
            assert_eq!(sd.profit, ss.profit, "seed {seed}");
            // Objectives must agree exactly in fixed point; edge sets may
            // differ among ties.
            assert!(objectives_close(
                md.total_weight(&w),
                ms.total_weight(&w),
                g.n_edges()
            ));
        }
    }

    #[test]
    fn optimal_beats_exhaustive_small() {
        // Brute-force cross-check on tiny instances.
        for seed in 0..10 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 5,
                    n_tasks: 4,
                    avg_degree: 3.0,
                    capacity: 1,
                    demand: 1,
                },
                seed,
            );
            let w = weights_of(&g, 0.5);
            let (m, _) =
                max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
            m.validate(&g).unwrap();
            let best = brute_force_best(&g, &w);
            assert!(
                objectives_close(m.total_weight(&w), best, g.n_edges()),
                "seed {seed}: flow={} brute={}",
                m.total_weight(&w),
                best
            );
        }
    }

    /// Exhaustive search over all edge subsets (tiny m only).
    fn brute_force_best(g: &BipartiteGraph, w: &[f64]) -> f64 {
        let m = g.n_edges();
        assert!(m <= 20);
        let mut best = 0.0f64;
        'subset: for mask in 0u32..(1 << m) {
            let mut w_load = vec![0u32; g.n_workers()];
            let mut t_load = vec![0u32; g.n_tasks()];
            let mut total = 0.0;
            for e in g.edges() {
                if mask & (1 << e.index()) != 0 {
                    let wi = g.worker_of(e).index();
                    let ti = g.task_of(e).index();
                    w_load[wi] += 1;
                    t_load[ti] += 1;
                    if w_load[wi] > g.capacity(g.worker_of(e))
                        || t_load[ti] > g.demand(g.task_of(e))
                    {
                        continue 'subset;
                    }
                    total += w[e.index()];
                }
            }
            best = best.max(total);
        }
        best
    }

    #[test]
    fn raw_costflow_prefers_cheap_route() {
        // Two parallel routes 0→1→3 (cost 1+1) and 0→2→3 (cost 5+5); pushing
        // 2 units must use the cheap route fully first.
        let mut net = CostFlow::new(4);
        let a01 = net.add_arc(0, 1, 1, 1);
        net.add_arc(1, 3, 1, 1);
        let a02 = net.add_arc(0, 2, 1, 5);
        net.add_arc(2, 3, 1, 5);
        let r = net.run(0, 3, FlowMode::MaxFlow, PathAlgo::Dijkstra);
        assert_eq!(r.flow, 2);
        assert_eq!(r.cost, 2 + 10);
        assert_eq!(net.flow(a01), 1);
        assert_eq!(net.flow(a02), 1);
    }

    #[test]
    fn raw_costflow_negative_cost_cycle_free_instance() {
        // Negative-cost arc on the direct route; free mode keeps pushing
        // while marginal cost < 0.
        let mut net = CostFlow::new(3);
        net.add_arc(0, 1, 2, -3);
        net.add_arc(1, 2, 2, 1);
        let r = net.run(0, 2, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        assert_eq!(r.flow, 2);
        assert_eq!(r.cost, 2 * (-3 + 1));
    }

    #[test]
    fn certificate_verifies_on_random_instances() {
        for seed in 0..15 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 30,
                    n_tasks: 20,
                    avg_degree: 5.0,
                    capacity: 2,
                    demand: 2,
                },
                seed,
            );
            let w = weights_of(&g, 0.5);
            let (m, stats, cert) = max_weight_bmatching_certified(&g, &w);
            m.validate(&g).unwrap();
            assert!(
                verify_certificate(&g, &w, &m, &cert),
                "seed {seed}: certificate rejected the solver's own output"
            );
            // Cross-check against the uncertified solver.
            let (_, plain) =
                max_weight_bmatching(&g, &w, FlowMode::FreeCardinality, PathAlgo::Dijkstra);
            assert_eq!(stats.profit, plain.profit, "seed {seed}");
        }
    }

    #[test]
    fn certificate_rejects_suboptimal_matchings() {
        // The greedy trap: greedy's matching is strictly suboptimal, so no
        // valid certificate can accompany it — in particular not the exact
        // solver's.
        let g = from_edges(
            &[1, 1],
            &[1, 1],
            &[(0, 0, 0.9, 0.9), (0, 1, 0.8, 0.8), (1, 0, 0.7, 0.7)],
        );
        let w = weights_of(&g, 0.5);
        let (opt, _, cert) = max_weight_bmatching_certified(&g, &w);
        assert!(verify_certificate(&g, &w, &opt, &cert));
        let greedy = crate::greedy::greedy_bmatching(&g, &w, 0.0);
        assert!(greedy.total_weight(&w) < opt.total_weight(&w));
        assert!(
            !verify_certificate(&g, &w, &greedy, &cert),
            "certificate must not validate a suboptimal matching"
        );
    }

    #[test]
    fn certificate_rejects_infeasible_matchings() {
        let g = from_edges(&[1], &[1, 1], &[(0, 0, 0.5, 0.5), (0, 1, 0.5, 0.5)]);
        let w = weights_of(&g, 0.5);
        let (_, _, cert) = max_weight_bmatching_certified(&g, &w);
        let overloaded = Matching::from_edges(g.edges().collect());
        assert!(!verify_certificate(&g, &w, &overloaded, &cert));
    }

    #[test]
    fn certificate_rejects_wrong_potentials() {
        let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.9, 0.9), (1, 1, 0.5, 0.5)]);
        let w = weights_of(&g, 0.5);
        let (m, _, mut cert) = max_weight_bmatching_certified(&g, &w);
        assert!(verify_certificate(&g, &w, &m, &cert));
        // Corrupt a potential enough to break a reduced-cost inequality.
        cert.potentials[1] += 10 * mbta_util::fixed::SCALE;
        assert!(!verify_certificate(&g, &w, &m, &cert));
        // Wrong length is rejected outright.
        cert.potentials.pop();
        assert!(!verify_certificate(&g, &w, &m, &cert));
    }

    /// The potential update over every node, `π[v] ±= min(dist[v], cap)`
    /// with unlabelled nodes at `∞`: the reference [`Scratch::lift`] must
    /// price every arc like, and count like.
    fn full_lift<const REV: bool>(sc: &mut Scratch, cap: i64) -> u64 {
        let mut moved = 0;
        for (p, &d) in sc.pi.iter_mut().zip(&sc.dist) {
            let adj = d.min(cap);
            *p += if REV { -adj } else { adj };
            moved += u64::from(adj != 0);
        }
        moved
    }

    /// After the search `sc` holds, stopped at distance `dist`: the sparse
    /// and the full update at caps `0`, `dist / 2` and `dist` leave every
    /// arc with the same reduced cost and report the same tally.
    fn lifts_agree<const REV: bool>(net: &CostFlow, sc: &Scratch, dist: i64) {
        for cap in [0, dist / 2, dist] {
            let (mut sparse, mut full) = (sc.clone(), sc.clone());
            assert_eq!(
                sparse.lift::<REV>(cap),
                full_lift::<REV>(&mut full, cap),
                "cap {cap}"
            );
            for a in 0..net.head.len() {
                assert_eq!(
                    net.reduced_cost(a, &sparse.pi),
                    net.reduced_cost(a, &full.pi),
                    "cap {cap}, arc {a}"
                );
            }
        }
    }

    /// One successive-shortest-path step from `start` to `end` with the
    /// two updates compared; returns whether a path was found and pushed.
    fn checked_step<const REV: bool>(
        net: &mut CostFlow,
        sc: &mut Scratch,
        start: usize,
        end: usize,
    ) -> bool {
        net.dijkstra::<REV>(start, |v| v == end, sc, &SolveCtl::unlimited());
        let dist = sc.dist[end];
        if dist >= INF {
            return false;
        }
        lifts_agree::<REV>(net, sc, dist);
        sc.lift::<REV>(dist);
        net.augment::<REV>(end, &sc.parent, u32::MAX);
        true
    }

    /// Successive shortest paths to saturation, alternating a forward
    /// search from the source with a search of the transposed graph from
    /// the sink, comparing the two updates after every search.
    #[test]
    fn sparse_lift_prices_every_arc_like_the_full_pass() {
        for seed in 0..10 {
            let g = random_bipartite(
                &RandomGraphSpec {
                    n_workers: 40,
                    n_tasks: 25,
                    avg_degree: 5.0,
                    capacity: 2,
                    demand: 2,
                },
                seed,
            );
            let mut bn = BipartiteNet::new(&g);
            bn.set_costs(&weights_of(&g, 0.5));
            let (source, sink) = (bn.source, bn.sink);
            let (net, sc) = (&mut bn.net, &mut bn.sc);
            let bf = net.bellman_ford(source, sc, &SolveCtl::unlimited());
            assert_eq!(bf, BellmanFord::Converged);
            for (p, &d) in sc.pi.iter_mut().zip(&sc.dist) {
                *p = if d >= INF { 0 } else { d };
            }
            let mut paths = 0;
            while match paths % 2 {
                0 => checked_step::<false>(net, sc, source, sink),
                _ => checked_step::<true>(net, sc, sink, source),
            } {
                paths += 1;
            }
            assert!(paths > 1, "seed {seed}: {paths} paths");
        }
    }

    #[test]
    fn empty_graph_solves() {
        let g = from_edges(&[], &[], &[]);
        let (m, s) = max_weight_bmatching(&g, &[], FlowMode::FreeCardinality, PathAlgo::Dijkstra);
        assert!(m.is_empty());
        assert_eq!(s.profit, 0);
    }

    #[test]
    fn isolated_nodes_ignored() {
        let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.7, 0.7)]);
        let (m, _) =
            max_weight_bmatching(&g, &weights_of(&g, 0.5), FlowMode::MaxFlow, PathAlgo::Spfa);
        assert_eq!(m.len(), 1);
    }
}
