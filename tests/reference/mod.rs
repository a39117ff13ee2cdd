//! The reference market every dispatch test audits against, and the seeded
//! markets and streams those tests drive.
//!
//! A [`Reference`] mirrors a dispatch run from outside the service. The
//! driver offers it every arrival it hands the service
//! ([`Reference::offer`]), and each commit says how far the service got: a
//! batch commit consumed `stats.events` of the offered arrivals, an online
//! commit every arrival offered so far (an online driver offers one event,
//! then steps). From the arrivals it keeps liveness and live weights; from
//! the decisions, the assignment (edge → the shard that announced it) and
//! each node's load. At every commit it checks:
//!
//! 1. *Announcements* — no edge is assigned twice, and no edge is
//!    unassigned that was never announced.
//! 2. *Feasibility* — no node carries more than its universe capacity.
//! 3. *Shards* (every batch commit; in online mode at [`Reference::finish`],
//!    after the closing solves, which are unbudgeted exact solves) — each
//!    shard holds the cold optimum of its live sub-market, nothing on a
//!    departed node, at the capacities it keeps after ceding (below).
//! 4. *Overlay* (boundary pass on) — the rescue overlay holds the cold
//!    optimum of the residual market, rebuilt from scratch, and no edge
//!    beyond it.
//! 5. *Union* — the union of shards and overlay holds at most the unsharded
//!    optimum.
//!
//! and records the union / unsharded optimum next to the same ratio of the
//! *residual rescue*: each shard's cold optimum at full capacity plus the
//! cold optimum of the cross-edge market they leave.
//!
//! With the boundary pass on, a shard cedes every unit the overlay holds
//! and gets one back only at the batch after the overlay let it go. It also
//! cedes, at the start of a batch, every unit the commit before reserved
//! at posted prices ([`Reference::reserve`] derives them from that commit's
//! state by the service's rule). So at each commit a node's shard capacity
//! is its universe capacity less the larger of the overlay's load there
//! before the commit plus the units reserved there, and the overlay's load
//! after it.
//!
//! A re-plan ([`Reference::replan`], before the migration commit) reseeds
//! every shard without solving it. At the migration commit only checks 1,
//! 2 and 5 apply, and a shard is checked again once an event has reached
//! it, which makes the service re-solve it.
//!
//! Checks 3–5 and the ratios are cold solves through
//! [`Reference::optimum`]; a failed check panics with the commit and the
//! figures that disagree.

use mbta::graph::random::{random_bipartite, RandomGraphSpec};
use mbta::graph::subgraph::{induce, SubgraphSpec};
use mbta::graph::{BipartiteGraph, EdgeId};
use mbta::matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
use mbta::service::shard::UNMAPPED;
use mbta::service::{
    Action, Arrival, BatchStats, BenefitDrift, Decision, DecisionSink, DispatchService,
    ServiceConfig, ServiceEvent, ServiceReport, ShardPlan, WriteSink,
};
use mbta::util::fixed::objectives_close;
use mbta::workload::trace::TraceSpec;

/// A seeded random market with every node at `capacity` / `demand`, each
/// edge weighted by the mean of its two benefits.
#[allow(dead_code)]
pub fn universe(
    n_workers: usize,
    n_tasks: usize,
    avg_degree: f64,
    (capacity, demand): (u32, u32),
    seed: u64,
) -> (BipartiteGraph, Vec<f64>) {
    let spec = RandomGraphSpec {
        n_workers,
        n_tasks,
        avg_degree,
        capacity,
        demand,
    };
    let g = random_bipartite(&spec, seed);
    let w = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
    (g, w)
}

/// A seeded session trace over `g` — workers and tasks come and go over 60
/// time units — with benefit drift woven in at rate 0.3.
#[allow(dead_code)]
pub fn stream(
    g: &BipartiteGraph,
    mean_session: f64,
    mean_task_lifetime: f64,
    seed: u64,
) -> Vec<Arrival> {
    let trace = TraceSpec {
        horizon: 60.0,
        mean_session,
        mean_task_lifetime,
        seed,
    }
    .generate(g.n_workers(), g.n_tasks());
    BenefitDrift::new(g, 0.3, seed).weave(trace.into_iter().map(Arrival::from_trace))
}

/// A churn trace over `g`: everyone joins and every task is posted, then
/// each of `ops` — `(kind, index, weight)` — churns the market (join /
/// leave / post / cancel / complete / benefit drift), four events per unit
/// of stream time.
#[allow(dead_code)]
pub fn churn(g: &BipartiteGraph, ops: &[(u8, usize, f64)]) -> Vec<Arrival> {
    let workers = (0..g.n_workers() as u32).map(ServiceEvent::WorkerJoin);
    let tasks = (0..g.n_tasks() as u32).map(ServiceEvent::TaskPost);
    let churn = ops.iter().map(|&(kind, idx, weight)| {
        let (w, t) = ((idx % g.n_workers()) as u32, (idx % g.n_tasks()) as u32);
        match kind {
            0 => ServiceEvent::WorkerJoin(w),
            1 => ServiceEvent::WorkerLeave(w),
            2 => ServiceEvent::TaskPost(t),
            3 => ServiceEvent::TaskCancel(t),
            4 => ServiceEvent::TaskComplete(t),
            _ => ServiceEvent::BenefitUpdate {
                edge: (idx % g.n_edges()) as u32,
                weight,
            },
        }
    });
    let events = workers.chain(tasks).chain(churn).enumerate();
    let at = |(i, event)| Arrival {
        time: i as f64 * 0.25,
        event,
    };
    events.map(at).collect()
}

/// `n` seeded churn ops for [`churn`], drift and departures as likely as
/// arrivals.
#[allow(dead_code)]
pub fn random_ops(n: usize, seed: u64) -> Vec<(u8, usize, f64)> {
    let mut rng = mbta::util::SplitMix64::new(seed);
    let mut op = || {
        let kind = rng.next_below(8) as u8;
        (kind, rng.next_below(10_000) as usize, rng.next_f64())
    };
    (0..n).map(|_| op()).collect()
}

/// Offers every one of `events` to `reference` and `svc`, finishes the run
/// and checks its end: what a driver without re-plans or owners does.
#[allow(dead_code)]
pub fn drive(
    mut svc: DispatchService,
    reference: &mut Reference,
    events: &[Arrival],
) -> ServiceReport {
    for &a in events {
        reference.offer(a);
        svc.submit(a, reference);
    }
    let report = svc.finish(reference);
    reference.finish(&report);
    report
}

/// The mirror and its checks. See the module docs.
pub struct Reference<'g> {
    g: &'g BipartiteGraph,
    boundary_pass: bool,
    online: bool,
    /// The plan's universe maps — edge → shard ([`UNMAPPED`] across
    /// shards), worker → shard, task → shard — and each shard's edge count.
    edge_shard: Vec<u32>,
    worker_shard: Vec<u32>,
    task_shard: Vec<u32>,
    shard_edges: Vec<usize>,
    /// Shards the service has not re-solved since the last re-plan.
    stale: Vec<bool>,
    offered: Vec<Arrival>,
    applied: usize,
    worker_on: Vec<bool>,
    task_on: Vec<bool>,
    live: Vec<f64>,
    /// Per edge, the shard that announced it ([`UNMAPPED`]: unassigned).
    shard_of: Vec<u32>,
    /// Per worker and per task, the units the last commit reserved.
    reserved: (Vec<u32>, Vec<u32>),
    commits: u64,
    /// The run's decision log, as `replay` writes it.
    pub log: WriteSink<Vec<u8>>,
    /// Shard checks made below the universe capacities somewhere.
    pub ceded_checks: usize,
    /// Decisions a migration commit carried.
    pub migration_unassigns: usize,
    /// Per audited commit with a positive optimum: (union, residual
    /// rescue) / unsharded optimum.
    pub ratios: Vec<(f64, f64)>,
    /// Check 5 and the ratios run at every `every`-th commit (1: all).
    pub every: u64,
}

impl<'g> Reference<'g> {
    /// The reference for a run of `cfg` over `plan`, every node inactive.
    pub fn new(g: &'g BipartiteGraph, plan: &ShardPlan, cfg: &ServiceConfig) -> Self {
        let mut r = Reference {
            g,
            boundary_pass: cfg.boundary_pass,
            online: cfg.online.is_some(),
            edge_shard: Vec::new(),
            worker_shard: Vec::new(),
            task_shard: Vec::new(),
            shard_edges: Vec::new(),
            stale: Vec::new(),
            offered: Vec::new(),
            applied: 0,
            worker_on: vec![false; g.n_workers()],
            task_on: vec![false; g.n_tasks()],
            live: plan.universe_weights.clone(),
            shard_of: vec![UNMAPPED; g.n_edges()],
            reserved: (vec![0; g.n_workers()], vec![0; g.n_tasks()]),
            commits: 0,
            log: WriteSink::new(Vec::new()),
            ceded_checks: 0,
            migration_unassigns: 0,
            ratios: Vec::new(),
            every: 1,
        };
        r.follow(plan);
        r
    }

    /// Arrival `a` reached the service.
    pub fn offer(&mut self, a: Arrival) {
        self.offered.push(a);
    }

    /// The service moves onto `plan`; its migration commit, if it
    /// announces one, is next.
    #[allow(dead_code)]
    pub fn replan(&mut self, plan: &ShardPlan) {
        self.follow(plan);
        self.stale.fill(true);
        // The old plan's market, and what it reserved, go with it.
        self.reserved.0.fill(0);
        self.reserved.1.fill(0);
    }

    fn follow(&mut self, plan: &ShardPlan) {
        self.edge_shard.clone_from(&plan.edge_shard);
        self.worker_shard.clone_from(&plan.worker_shard);
        self.task_shard.clone_from(&plan.task_shard);
        self.shard_edges = plan.shards.iter().map(|s| s.graph.n_edges()).collect();
        self.stale = vec![false; plan.n_shards()];
    }

    /// The assignment the decisions add up to: `(edge, announcing shard)`.
    pub fn assigned(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let by_edge = self.shard_of.iter().enumerate();
        by_edge
            .filter(|(_, &s)| s != UNMAPPED)
            .map(|(e, &s)| (e as u32, s))
    }

    /// One commit: its stats and decisions, in the order the service made
    /// them. Panics at the first check that fails.
    pub fn commit(&mut self, stats: &BatchStats, decisions: &[Decision]) {
        self.log.on_batch(stats, decisions);
        let at = self.commits;
        self.commits += 1;
        // A migration that unassigns nothing is not announced at all.
        let migration = stats.events == 0 && stats.shards_touched == 0;
        if migration {
            self.migration_unassigns += decisions.len();
        }
        let upto = if self.online {
            self.offered.len()
        } else {
            self.applied + stats.events
        };
        self.apply_events(upto);
        let before = self.load(self.overlay());
        for d in decisions {
            let was = std::mem::replace(&mut self.shard_of[d.edge as usize], UNMAPPED);
            if d.action == Action::Assign {
                assert_eq!(was, UNMAPPED, "commit {at}: double assign {d:?}");
                self.shard_of[d.edge as usize] = d.shard;
            } else {
                // A re-plan relabels shards, so only the edge must match.
                assert_ne!(
                    was, UNMAPPED,
                    "commit {at}: unassign of an edge never announced: {d:?}"
                );
            }
        }
        let g = self.g;
        let (w, t) = self.load(g.edges().filter(|&e| self.is_assigned(e)));
        let fits = |load: Vec<u32>, cap: &[u32]| load.iter().zip(cap).all(|(l, c)| l <= c);
        let feasible = fits(w, g.capacities()) && fits(t, g.demands());
        assert!(feasible, "commit {at}: a node over its capacity");
        let full = (g.capacities(), g.demands());
        let mut shards = None;
        if !migration && !self.online {
            let after = self.load(self.overlay());
            let cede = |full: &[u32], a: &[u32], r: &[u32], b: &[u32]| -> Vec<u32> {
                (0..full.len())
                    .map(|i| full[i] - (a[i] + r[i]).max(b[i]))
                    .collect()
            };
            let (r_w, r_t) = &self.reserved;
            let caps = (
                cede(full.0, &before.0, r_w, &after.0),
                cede(full.1, &before.1, r_t, &after.1),
            );
            let ceded = (&caps.0[..], &caps.1[..]) != full;
            self.ceded_checks += usize::from(ceded);
            let opt = self.check_shards(at, (&caps.0, &caps.1));
            shards = (!ceded).then_some(opt);
            if self.boundary_pass {
                self.check_overlay(at);
            }
        }
        if self.boundary_pass {
            // A migration runs no rescue pass, so it reserves nothing.
            self.reserved = if migration {
                (vec![0; g.n_workers()], vec![0; g.n_tasks()])
            } else {
                self.reserve()
            };
        }
        if at.is_multiple_of(self.every) {
            self.check_union(at, shards);
        }
    }

    /// The end of the run: every offered event committed, the online
    /// shards checked after their closing solves, and the service's own
    /// count and capacity audit in agreement.
    pub fn finish(&mut self, report: &ServiceReport) {
        if self.online {
            // Events that decided nothing never reached a commit.
            self.apply_events(self.offered.len());
            // Every live shard's closing solve ran, stale or not.
            self.stale.fill(false);
            let g = self.g;
            self.check_shards(self.commits, (g.capacities(), g.demands()));
        }
        self.check_union(self.commits, None);
        assert_eq!(
            self.applied,
            self.offered.len(),
            "offered events never committed"
        );
        assert_eq!(report.capacity_violations, 0);
        assert_eq!(report.final_assignments, self.assigned().count());
    }

    fn apply_events(&mut self, upto: usize) {
        for a in &self.offered[self.applied..upto] {
            let s = match a.event {
                ServiceEvent::WorkerJoin(w) | ServiceEvent::WorkerLeave(w) => {
                    self.worker_on[w as usize] = matches!(a.event, ServiceEvent::WorkerJoin(_));
                    self.worker_shard[w as usize]
                }
                ServiceEvent::TaskPost(t) => {
                    self.task_on[t as usize] = true;
                    self.task_shard[t as usize]
                }
                ServiceEvent::TaskCancel(t) | ServiceEvent::TaskComplete(t) => {
                    self.task_on[t as usize] = false;
                    self.task_shard[t as usize]
                }
                ServiceEvent::BenefitUpdate { edge, weight } => {
                    self.live[edge as usize] = weight;
                    self.edge_shard[edge as usize]
                }
            };
            if s != UNMAPPED {
                self.stale[s as usize] = false;
            }
        }
        self.applied = upto;
    }

    /// Whether both ends of `e` are live.
    fn on(&self, e: EdgeId) -> bool {
        self.worker_on[self.g.worker_of(e).index()] && self.task_on[self.g.task_of(e).index()]
    }

    fn cross(&self, e: EdgeId) -> bool {
        self.edge_shard[e.index()] == UNMAPPED
    }

    fn is_assigned(&self, e: EdgeId) -> bool {
        self.shard_of[e.index()] != UNMAPPED
    }

    fn weight(&self, edges: impl IntoIterator<Item = EdgeId>) -> f64 {
        edges.into_iter().map(|e| self.live[e.index()]).sum()
    }

    /// The cold optimum of the live market under the live weights,
    /// restricted to `keep` edges at `caps` — `(worker, task)` capacities,
    /// universe-indexed — as universe edges.
    pub fn optimum(&self, caps: (&[u32], &[u32]), keep: impl Fn(EdgeId) -> bool) -> Vec<EdgeId> {
        let g = self.g;
        let workers: Vec<_> = g.workers().map(|w| (w, caps.0[w.index()])).collect();
        let tasks: Vec<_> = g.tasks().map(|t| (t, caps.1[t.index()])).collect();
        let spec = SubgraphSpec {
            workers: &workers,
            tasks: &tasks,
        };
        let sub = induce(g, &spec, |e| keep(e) && self.on(e));
        let w = sub.project_weights(&self.live);
        let (m, _) = max_weight_bmatching(
            &sub.graph,
            &w,
            FlowMode::FreeCardinality,
            PathAlgo::Dijkstra,
        );
        m.edges.iter().map(|e| sub.edge_back[e.index()]).collect()
    }

    /// The rescue overlay: the assigned cross edges.
    fn overlay(&self) -> impl Iterator<Item = EdgeId> + '_ {
        let assigned = self.g.edges().filter(|&e| self.is_assigned(e));
        assigned.filter(|&e| self.cross(e))
    }

    /// Each worker's and each task's count of `edges`.
    fn load(&self, edges: impl IntoIterator<Item = EdgeId>) -> (Vec<u32>, Vec<u32>) {
        let g = self.g;
        let (mut w, mut t) = (vec![0; g.n_workers()], vec![0; g.n_tasks()]);
        for e in edges {
            w[g.worker_of(e).index()] += 1;
            t[g.task_of(e).index()] += 1;
        }
        (w, t)
    }

    /// What the universe capacities leave once `edges`, a feasible set,
    /// are taken.
    fn residual(&self, edges: impl IntoIterator<Item = EdgeId>) -> (Vec<u32>, Vec<u32>) {
        let (w, t) = self.load(edges);
        let less = |cap: &[u32], used: Vec<u32>| cap.iter().zip(used).map(|(c, u)| c - u).collect();
        (less(self.g.capacities(), w), less(self.g.demands(), t))
    }

    /// The units the service reserves at the end of a rescue pass, derived
    /// from the commit's state: per worker and per task, from the live
    /// weights, liveness, the shards' assignment and the overlay.
    ///
    /// A live node with a unit its shard and the overlay leave free asks
    /// 0; one without asks the live weight of the lightest edge its shard
    /// holds there — a price — unless its shard holds none there; a node
    /// that is not live does not sell. Every cross edge the overlay does
    /// not hold, with a priced end, whose weight exceeds what its two ends
    /// ask, bids that surplus; bids are taken node-disjoint by surplus
    /// descending, ties by edge id, and reserve a unit at each priced end.
    pub fn reserve(&self) -> (Vec<u32>, Vec<u32>) {
        let (g, n_w) = (self.g, self.g.n_workers());
        let n = n_w + g.n_tasks();
        let mut shard = vec![0u32; n];
        let mut lightest = vec![f64::INFINITY; n];
        let overlay = self.load(self.overlay());
        for e in g.edges().filter(|&e| !self.cross(e) && self.is_assigned(e)) {
            for v in [g.worker_of(e).index(), n_w + g.task_of(e).index()] {
                shard[v] += 1;
                lightest[v] = lightest[v].min(self.live[e.index()]);
            }
        }
        // `None`: not for sale; `Some((cost, priced))`.
        let ask = |v: usize| -> Option<(f64, bool)> {
            let (on, full, used) = match v.checked_sub(n_w) {
                None => (self.worker_on[v], g.capacities()[v], overlay.0[v]),
                Some(t) => (self.task_on[t], g.demands()[t], overlay.1[t]),
            };
            if !on {
                None
            } else if shard[v] + used < full {
                Some((0.0, false))
            } else {
                (shard[v] > 0).then_some((lightest[v], true))
            }
        };
        let mut bids = Vec::new();
        for e in g.edges().filter(|&e| self.cross(e) && !self.is_assigned(e)) {
            let [w, t] = [g.worker_of(e).index(), n_w + g.task_of(e).index()];
            let (Some((pw, priced_w)), Some((pt, priced_t))) = (ask(w), ask(t)) else {
                continue;
            };
            let weight = self.live[e.index()];
            if (priced_w || priced_t) && weight > pw + pt {
                bids.push((weight - (pw + pt), e, [(w, priced_w), (t, priced_t)]));
            }
        }
        bids.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let (mut taken, mut units) = (vec![false; n], vec![0u32; n]);
        for (_, _, ends) in bids {
            if ends.iter().any(|&(v, _)| taken[v]) {
                continue;
            }
            for (v, priced) in ends {
                taken[v] = true;
                units[v] += u32::from(priced);
            }
        }
        let tasks = units.split_off(n_w);
        (units, tasks)
    }

    /// Check 3 at `caps`, for every shard re-solved since the last re-plan:
    /// one cold solve of every shard's market at once — shards are
    /// node-disjoint, so its part in each shard is that shard's optimum.
    /// Returns that solve.
    fn check_shards(&self, at: u64, caps: (&[u32], &[u32])) -> Vec<EdgeId> {
        let n = self.shard_edges.len();
        let (mut best, mut held, mut departed) = (vec![0.0; n], vec![0.0; n], vec![0; n]);
        let opt = self.optimum(caps, |e| !self.cross(e));
        for &e in &opt {
            best[self.edge_shard[e.index()] as usize] += self.live[e.index()];
        }
        for e in self
            .g
            .edges()
            .filter(|&e| !self.cross(e) && self.is_assigned(e))
        {
            let s = self.edge_shard[e.index()] as usize;
            held[s] += self.live[e.index()];
            departed[s] += usize::from(!self.on(e));
        }
        for s in (0..n).filter(|&s| !self.stale[s]) {
            assert!(
                departed[s] == 0 && objectives_close(held[s], best[s], self.shard_edges[s]),
                "commit {at} shard {s}: holds {} ({} on departed nodes), optimum {}",
                held[s],
                departed[s],
                best[s]
            );
        }
        opt
    }

    /// Check 4: the residual market is every cross edge whose ends are live
    /// and have units the shards leave, at those residuals; the overlay
    /// must fit it, in edge order, and hold its optimum.
    fn check_overlay(&self, at: u64) {
        let g = self.g;
        let intra = g.edges().filter(|&e| !self.cross(e) && self.is_assigned(e));
        let (mut w_res, mut t_res) = self.residual(intra);
        let cand: Vec<bool> = g
            .edges()
            .map(|e| {
                let (w, t) = (g.worker_of(e).index(), g.task_of(e).index());
                self.cross(e) && self.on(e) && w_res[w] > 0 && t_res[t] > 0
            })
            .collect();
        let opt = self.weight(self.optimum((&w_res, &t_res), |e| cand[e.index()]));
        let overlay: Vec<EdgeId> = self.overlay().collect();
        let mut misfits = 0;
        for &e in &overlay {
            let (w, t) = (g.worker_of(e).index(), g.task_of(e).index());
            if cand[e.index()] && w_res[w] > 0 && t_res[t] > 0 {
                w_res[w] -= 1;
                t_res[t] -= 1;
            } else {
                misfits += 1;
            }
        }
        let held = self.weight(overlay);
        let market = cand.iter().filter(|&&c| c).count();
        assert!(
            misfits == 0 && objectives_close(held, opt, market),
            "commit {at} overlay: holds {held} ({misfits} beyond the residuals), optimum {opt}"
        );
    }

    /// Check 5, and the commit's ratios; `shards` is the shards' optimum
    /// at full capacity when check 3 solved it.
    fn check_union(&mut self, at: u64, shards: Option<Vec<EdgeId>>) {
        let g = self.g;
        let full = (g.capacities(), g.demands());
        let best = self.weight(self.optimum(full, |_| true));
        let union = self.weight(g.edges().filter(|&e| self.is_assigned(e)));
        assert!(
            union <= best + 1e-6,
            "commit {at}: the union holds {union}, above the unsharded optimum {best}"
        );
        if best <= 0.0 {
            return;
        }
        let shards = shards.unwrap_or_else(|| self.optimum(full, |e| !self.cross(e)));
        let (w_res, t_res) = self.residual(shards.iter().copied());
        let rescue = self.optimum((&w_res, &t_res), |e| self.cross(e));
        let reference = self.weight(shards) + self.weight(rescue);
        self.ratios.push((union / best, reference / best));
    }
}

impl DecisionSink for Reference<'_> {
    fn on_batch(&mut self, stats: &BatchStats, decisions: &[Decision]) {
        self.commit(stats, decisions);
    }
}
