//! Crash-injection tests for the durability store wiring.
//!
//! The contract under test: a service with an attached [`DurableStore`]
//! that dies without warning — dropped mid-stream, no seal, no final
//! snapshot — recovers to *exactly* the state a clean sequential run had
//! at the same batch watermark: same assigned edge set per shard, same
//! retained weight, zero capacity violations. A deterministic
//! configuration makes "the clean run's state at watermark k" well
//! defined, and a seeded SplitMix64 picks the crash points so the test is
//! reproducible yet not hand-picked.

use mbta_graph::random::{random_bipartite, RandomGraphSpec};
use mbta_graph::BipartiteGraph;
use mbta_service::shard::UNMAPPED;
use mbta_service::{
    recover, Action, Arrival, BatchConfig, BatchStats, BenefitDrift, BudgetMode, Decision,
    DecisionSink, DispatchService, DropPolicy, DurableStore, FsyncPolicy, OfferOutcome,
    RecoveredState, Routing, ServiceConfig, ServiceEvent, ShardPlan, StoreConfig,
};
use mbta_store::wal::segment_files;
use mbta_workload::trace::TraceSpec;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mbta-service-durability-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn universe() -> (BipartiteGraph, Vec<f64>) {
    let g = random_bipartite(
        &RandomGraphSpec {
            n_workers: 70,
            n_tasks: 50,
            avg_degree: 5.0,
            capacity: 2,
            demand: 2,
        },
        91,
    );
    let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
    (g, w)
}

fn stream(g: &BipartiteGraph, seed: u64) -> Vec<Arrival> {
    let trace = TraceSpec {
        horizon: 45.0,
        mean_session: 9.0,
        mean_task_lifetime: 14.0,
        seed,
    }
    .generate(g.n_workers(), g.n_tasks());
    BenefitDrift::new(g, 0.25, seed).weave(trace.into_iter().map(Arrival::from_trace))
}

fn cfg() -> ServiceConfig {
    ServiceConfig {
        batch: BatchConfig {
            max_events: 24,
            max_bytes: 1 << 20,
            flush_interval: 4.0,
        },
        queue_cap: 4096,
        drop_policy: DropPolicy::Defer,
        budget: BudgetMode::Deterministic,
        threads: 1,
        boundary_pass: false,
        online: None,
    }
}

fn store_cfg(snapshot_every: u64) -> StoreConfig {
    StoreConfig {
        fsync: FsyncPolicy::Always, // every committed batch survives the "crash"
        snapshot_every,
        segment_bytes: 4 << 10, // small segments so compaction really runs
        batch_fsync_every: 16,
        group_every: 1,
    }
}

/// Sink that records, per batch seq, the cumulative (shard, edge)
/// assignment set and consumed-event count — the clean run's ground truth
/// at every possible crash watermark.
#[derive(Default)]
struct StateTrackingSink {
    live: BTreeSet<(u32, u32)>,
    /// `per_batch[k]` = assignment set after batch k.
    per_batch: Vec<BTreeSet<(u32, u32)>>,
    /// `events_cum[k]` = arrivals consumed by batches `0..=k`.
    events_cum: Vec<usize>,
}

impl DecisionSink for StateTrackingSink {
    fn on_batch(&mut self, stats: &BatchStats, decisions: &[Decision]) {
        for d in decisions {
            match d.action {
                Action::Assign => {
                    self.live.insert((d.shard, d.edge));
                }
                Action::Unassign => {
                    self.live.remove(&(d.shard, d.edge));
                }
            }
        }
        self.per_batch.push(self.live.clone());
        let prev = self.events_cum.last().copied().unwrap_or(0);
        self.events_cum.push(prev + stats.events);
    }
}

/// Drives `events` through a fresh service; with `stop_after_batches`
/// set, the service is dropped cold once that many batches have been
/// dispatched — no `finish`, no seal — simulating a `kill -9`.
fn drive(
    g: &BipartiteGraph,
    plan: &ShardPlan,
    events: &[Arrival],
    wal_dir: Option<(&PathBuf, u64)>,
    stop_after_batches: Option<u64>,
) -> StateTrackingSink {
    let mut svc = DispatchService::new(g, plan, cfg());
    if let Some((dir, every)) = wal_dir {
        let (store, recovered) = DurableStore::open(dir, store_cfg(every)).unwrap();
        assert_eq!(recovered.watermark, 0, "test dirs start empty");
        svc.attach_store(store);
    }
    let mut sink = StateTrackingSink::default();
    for &a in events {
        while let OfferOutcome::Deferred = svc.offer(a) {
            svc.pump(&mut sink);
        }
        svc.pump(&mut sink);
        if let Some(stop) = stop_after_batches {
            if sink.per_batch.len() as u64 >= stop {
                drop(svc); // simulated crash: no finish(), no seal
                return sink;
            }
        }
    }
    let report = svc.finish(&mut sink);
    assert_eq!(report.capacity_violations, 0);
    assert!(report.store_error.is_none(), "{:?}", report.store_error);
    sink
}

/// The live weight of every edge after the first `n_events` arrivals:
/// the initial plan weights overridden by each applied benefit update, in
/// arrival order — recomputed from the raw trace, independently of both
/// the journal and the service's decision stream.
fn live_weights_after(
    g: &BipartiteGraph,
    plan: &ShardPlan,
    init: &[f64],
    events: &[Arrival],
    n_events: usize,
) -> Vec<f64> {
    let mut w = init.to_vec();
    for a in &events[..n_events] {
        if let ServiceEvent::BenefitUpdate { edge, weight } = a.event {
            let valid = (edge as usize) < g.n_edges() && weight.is_finite() && weight >= 0.0;
            // Cross-shard updates are dropped at admission, not applied.
            if valid && plan.edge_shard[edge as usize] != UNMAPPED {
                w[edge as usize] = weight;
            }
        }
    }
    w
}

/// Asserts `recovered` equals the clean run's cumulative state at the
/// recovered watermark — same assignment set, same retained weight under
/// independently recomputed live weights — and violates no capacity on
/// the universe graph.
fn assert_recovery_matches(
    g: &BipartiteGraph,
    plan: &ShardPlan,
    init_weights: &[f64],
    events: &[Arrival],
    clean: &StateTrackingSink,
    recovered: &RecoveredState,
) {
    assert!(recovered.watermark > 0, "nothing was recovered");
    let k = recovered.watermark as usize - 1;
    let expect_set = &clean.per_batch[k];

    let mut got: BTreeSet<(u32, u32)> = BTreeSet::new();
    for (s, edges) in recovered.shards.iter().enumerate() {
        for &e in edges {
            assert!(got.insert((s as u32, e)), "duplicate recovered edge {e}");
        }
    }
    assert_eq!(&got, expect_set, "recovered assignment set diverged");

    let truth = live_weights_after(g, plan, init_weights, events, clean.events_cum[k]);
    let expect_weight: f64 = got.iter().map(|&(_, e)| truth[e as usize]).sum();
    let total = recovered.total_weight();
    assert!(
        (total - expect_weight).abs() < 1e-9,
        "retained weight diverged: recovered {total}, expected {expect_weight}"
    );

    // Zero capacity violations on the universe graph.
    let mut w_load = vec![0u32; g.n_workers()];
    let mut t_load = vec![0u32; g.n_tasks()];
    let mut seen = BTreeSet::new();
    for &(_, e) in &got {
        assert!(seen.insert(e), "edge {e} assigned in two shards");
        let edge = mbta_graph::EdgeId::new(e);
        w_load[g.worker_of(edge).index()] += 1;
        t_load[g.task_of(edge).index()] += 1;
    }
    for w in g.workers() {
        assert!(w_load[w.index()] <= g.capacity(w), "worker over capacity");
    }
    for t in g.tasks() {
        assert!(t_load[t.index()] <= g.demand(t), "task over demand");
    }
}

/// Kill the service at random batch counts; recovery must reproduce the
/// clean run's state at the crash watermark exactly.
#[test]
fn crash_at_random_batch_recovers_clean_state() {
    let (g, w) = universe();
    let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
    let events = stream(&g, 23);

    // Ground truth: one clean, storeless sequential run.
    let clean = drive(&g, &plan, &events, None, None);
    let n_batches = clean.per_batch.len() as u64;
    assert!(n_batches >= 8, "trace too small to crash mid-stream");

    let mut rng = 0xD15A57E2u64;
    for round in 0..3 {
        let crash_at = 1 + splitmix64(&mut rng) % (n_batches - 1);
        let dir = tmp(&format!("crash-{round}"));
        let crashed = drive(&g, &plan, &events, Some((&dir, 8)), Some(crash_at));
        assert_eq!(crashed.per_batch.len() as u64, crash_at);

        let state = recover(&dir).unwrap();
        assert_eq!(
            state.watermark, crash_at,
            "with fsync=always every dispatched batch must be durable"
        );
        assert_recovery_matches(&g, &plan, &w, &events, &clean, &state);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A clean (sealed) run recovers from its final snapshot with zero WAL
/// replay, and the recovered state matches the finished run.
#[test]
fn sealed_run_recovers_without_replay() {
    let (g, w) = universe();
    let plan = ShardPlan::build(&g, &w, 3, Routing::HashId);
    let events = stream(&g, 41);
    let dir = tmp("sealed");
    let clean = drive(&g, &plan, &events, Some((&dir, 16)), None);

    let state = recover(&dir).unwrap();
    assert_eq!(state.watermark, clean.per_batch.len() as u64);
    assert_eq!(
        state.records_replayed, 0,
        "seal must leave nothing to replay"
    );
    assert_eq!(state.truncated_bytes, 0);
    assert_recovery_matches(&g, &plan, &w, &events, &clean, &state);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A drift-driven re-plan mid-stream journals a `PlanRecord`; after a
/// crash (no seal, no snapshot) pure WAL replay must reproduce the live
/// assignment across the migration boundary, with every recovered intra
/// edge sitting in its **new** plan's shard.
#[test]
fn replan_migration_replays_from_wal() {
    let (g, w) = universe();
    let events = stream(&g, 77);
    let plan1 = ShardPlan::build(&g, &w, 4, Routing::MinCut);
    let dir = tmp("replan");

    let mut svc = DispatchService::new(&g, &plan1, cfg());
    // snapshot_every = 0: recovery must come from WAL frames alone, so
    // the plan frame's replay path is actually exercised.
    let (store, recovered) = DurableStore::open(&dir, store_cfg(0)).unwrap();
    assert_eq!(recovered.watermark, 0);
    svc.attach_store(store);
    let mut sink = StateTrackingSink::default();

    // First half under plan 1, then a forced migration, then the rest.
    let half = events.len() / 2;
    for &a in &events[..half] {
        while let OfferOutcome::Deferred = svc.offer(a) {
            svc.pump(&mut sink);
        }
        svc.pump(&mut sink);
    }
    let batches_before = svc.batches_committed();
    let carried = svc.detach();
    let plan2 = ShardPlan::build(&g, carried.live_weights(), 4, Routing::MinCut);
    let mut svc = DispatchService::resume(&g, &plan2, carried, &mut sink);
    assert_eq!(
        svc.batches_committed(),
        batches_before + 1,
        "the plan record must consume a sequence slot"
    );
    for &a in &events[half..] {
        while let OfferOutcome::Deferred = svc.offer(a) {
            svc.pump(&mut sink);
        }
        svc.pump(&mut sink);
    }
    drop(svc); // simulated crash: no finish(), no seal

    let state = recover(&dir).unwrap();
    assert!(
        state.records_replayed > 0,
        "WAL-only recovery must replay frames"
    );
    // The recovered edge union equals the sink's live assignment. Shard
    // labels are compared as sets of edges: a migration relabels shards
    // wholesale (journaled in the plan frame) without re-announcing
    // still-assigned edges to the sink.
    let recovered_edges: BTreeSet<u32> = state.shards.iter().flatten().copied().collect();
    let live_edges: BTreeSet<u32> = sink.live.iter().map(|&(_, e)| e).collect();
    assert_eq!(
        recovered_edges, live_edges,
        "assignment diverged across the migration"
    );
    // Every recovered intra edge lives in its post-migration shard.
    for (s, edges) in state.shards.iter().enumerate().take(4) {
        for &e in edges {
            if plan2.edge_shard[e as usize] != UNMAPPED {
                assert_eq!(
                    plan2.edge_shard[e as usize] as usize, s,
                    "edge {e} recovered into a pre-migration shard"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Online mode journals one WAL record per deciding event; a cold drop
/// mid-stream must recover to exactly the crashed run's own state at the
/// durable watermark — same assignment set, same retained weight under
/// independently recomputed live weights, zero capacity violations.
#[test]
fn online_crash_recovers_event_granular_state() {
    let (g, w) = universe();
    let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
    let events = stream(&g, 67);

    let mut online_cfg = cfg();
    online_cfg.online = Some(mbta_service::OnlineConfig {
        drift_threshold: 0.1,
    });

    let dir = tmp("online-crash");
    let (store, recovered) = DurableStore::open(&dir, store_cfg(8)).unwrap();
    assert_eq!(recovered.watermark, 0, "test dirs start empty");
    let mut svc = DispatchService::new(&g, &plan, online_cfg);
    svc.attach_store(store);

    let mut sink = StateTrackingSink::default();
    // In online mode `stats.events` counts only deciding events, so the
    // truth cut for weight recomputation is recorded from the driver
    // side: arrivals_cum[k] = raw arrivals offered when record k landed.
    let mut arrivals_cum: Vec<usize> = Vec::new();
    let half = events.len() / 2;
    for (i, &a) in events.iter().take(half).enumerate() {
        while let OfferOutcome::Deferred = svc.offer(a) {
            svc.pump(&mut sink);
        }
        svc.pump(&mut sink);
        while arrivals_cum.len() < sink.per_batch.len() {
            arrivals_cum.push(i + 1);
        }
    }
    assert!(
        sink.per_batch.len() >= 10,
        "trace too small to exercise online records"
    );
    drop(svc); // simulated crash: no finish(), no seal
    sink.events_cum = arrivals_cum;

    let state = recover(&dir).unwrap();
    assert_eq!(
        state.watermark as usize,
        sink.per_batch.len(),
        "with fsync=always every journaled online record must be durable"
    );
    assert_recovery_matches(&g, &plan, &w, &events, &sink, &state);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Torn tail: truncate the newest WAL segment by a random byte count
/// after a crash. Recovery drops at most the torn record(s) and still
/// lands on an exact clean-run prefix.
#[test]
fn truncated_tail_recovers_shorter_prefix() {
    let (g, w) = universe();
    let plan = ShardPlan::build(&g, &w, 4, Routing::HashId);
    let events = stream(&g, 59);
    let clean = drive(&g, &plan, &events, None, None);
    let n_batches = clean.per_batch.len() as u64;
    let crash_at = n_batches.saturating_sub(2).max(2);

    let dir = tmp("torn");
    // snapshot_every = 0: WAL-only, so truncation visibly shortens the
    // recovered watermark instead of being absorbed by a snapshot.
    let _ = drive(&g, &plan, &events, Some((&dir, 0)), Some(crash_at));
    let before = recover(&dir).unwrap();
    assert_eq!(before.watermark, crash_at);

    let mut rng = 0xBADC_0FFEu64;
    let (_, seg) = segment_files(&dir).unwrap().pop().unwrap();
    let bytes = std::fs::read(&seg).unwrap();
    let chop = 1 + (splitmix64(&mut rng) as usize) % (bytes.len() / 2);
    std::fs::write(&seg, &bytes[..bytes.len() - chop]).unwrap();

    let state = recover(&dir).unwrap();
    assert!(state.watermark < crash_at, "truncation must lose the tail");
    assert!(state.truncated_bytes > 0);
    if state.watermark > 0 {
        assert_recovery_matches(&g, &plan, &w, &events, &clean, &state);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
