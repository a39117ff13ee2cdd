//! Per-layer probes: after the timed run, call each layer's public
//! functions directly on inputs captured from it (the checkpoint
//! instances of the mirrored market; the WAL the run wrote) and time them
//! from outside. Timings are medians; every call gets a span.

use crate::drive::store_config;
use crate::inputs::Inputs;
use crate::mirror::Mirror;
use crate::spans::{Tracer, ROOT};
use crate::spec::{Workload, FRAME_EVENTS};
use crate::stats::{median, percentile, sorted};
use crate::verify::Checkpoint;
use mbta_core::engine::{solve_robust, EngineConfig};
use mbta_core::incremental::IncrementalAssignment;
use mbta_core::warm::WarmSolver;
use mbta_graph::subgraph::{induce, SubgraphSpec};
use mbta_graph::{BipartiteGraph, EdgeId, TaskId, WorkerId};
use mbta_matching::greedy::greedy_bmatching;
use mbta_matching::local_search::local_search;
use mbta_matching::mcmf::{max_weight_bmatching, FlowMode, PathAlgo};
use mbta_matching::warm::WarmNet;
use mbta_matching::Matching;
use mbta_net::{
    decode_request, encode_request, read_message, write_message, Client, NetConfig, NetIngress,
    Request,
};
use mbta_service::{recover, DurableStore, Routing, ServiceEvent, ShardPlan};
use mbta_store::wal::replay;
use mbta_store::{SnapshotState, WalRecord};
use mbta_util::SolveCtl;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Events of churn between the cold and the warm solve of the warm-start
/// probes (one production-sized batch).
const WARM_GAP_EVENTS: usize = 256;
/// Churn events applied to the bench-owned `IncrementalAssignment`.
const INCREMENTAL_EVENTS: usize = 20_000;
/// WAL records re-committed by the store probe.
const COMMIT_RECORDS: usize = 2_000;
/// Round trips of the loopback probe.
const RTT_ROUNDS: usize = 400;

/// Named probe results.
pub type Values = BTreeMap<&'static str, f64>;

/// Times `f`, records a `probe.<name>` span, returns `(result, seconds)`.
fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    tracer.record(ROOT, name, t0, t1, 0);
    (out, (t1 - t0).as_secs_f64())
}

fn exact(g: &BipartiteGraph, w: &[f64]) -> (Matching, mbta_matching::mcmf::SolveStats) {
    max_weight_bmatching(g, w, FlowMode::FreeCardinality, PathAlgo::Dijkstra)
}

/// `graph` and `partition`: re-induce the plan's sub-markets and price
/// the min-cut plan against hash routing.
fn plan_probes(w: &Workload, inputs: &Inputs, tracer: &mut Tracer, out: &mut Values) {
    let g = &inputs.graph;
    let plan = ShardPlan::build(g, &inputs.weights, w.shards, w.routing);
    let mut induce_ms = Vec::new();
    for _ in 0..3 {
        let (_, s) = timed(tracer, "probe.graph.induce", || {
            for shard in 0..w.shards as u32 {
                let workers: Vec<(WorkerId, u32)> = g
                    .workers()
                    .filter(|x| plan.worker_shard[x.index()] == shard)
                    .map(|x| (x, g.capacity(x)))
                    .collect();
                let tasks: Vec<(TaskId, u32)> = g
                    .tasks()
                    .filter(|x| plan.task_shard[x.index()] == shard)
                    .map(|x| (x, g.demand(x)))
                    .collect();
                let spec = SubgraphSpec {
                    workers: &workers,
                    tasks: &tasks,
                };
                std::hint::black_box(induce(g, &spec, |_| true));
            }
        });
        induce_ms.push(s * 1e3);
    }
    out.insert("graph.induce_ms", median(&induce_ms));
    if w.shards > 1 {
        let mut extra_ms = Vec::new();
        for _ in 0..3 {
            let (_, cut) = timed(tracer, "probe.partition.mincut_plan", || {
                std::hint::black_box(ShardPlan::build(
                    g,
                    &inputs.weights,
                    w.shards,
                    Routing::MinCut,
                ));
            });
            let (_, hash) = timed(tracer, "probe.partition.hash_plan", || {
                std::hint::black_box(ShardPlan::build(
                    g,
                    &inputs.weights,
                    w.shards,
                    Routing::HashId,
                ));
            });
            extra_ms.push((cut - hash) * 1e3);
        }
        out.insert("partition.mincut_plan_ms", median(&extra_ms));
    }
}

/// `matching` and the engine part of `core`, on the checkpoint instances.
fn solver_probes(inputs: &Inputs, instances: &[&[f64]], tracer: &mut Tracer, out: &mut Values) {
    let g = &inputs.graph;
    let mut cols: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |k: &'static str, v: f64| cols.entry(k).or_default().push(v);
    for w in instances {
        let ((m, stats), mcmf_s) = timed(tracer, "probe.matching.mcmf", || exact(g, w));
        let opt = m.total_weight(w);
        let (greedy, greedy_s) = timed(tracer, "probe.matching.greedy", || {
            greedy_bmatching(g, w, 0.0)
        });
        let greedy_value = greedy.total_weight(w);
        let ((local, _), local_s) = timed(tracer, "probe.matching.local_search", || {
            local_search(g, w, greedy, EngineConfig::new().max_passes)
        });
        let (robust, robust_s) = timed(tracer, "probe.core.solve_robust", || {
            solve_robust(g, w, &EngineConfig::new())
        });
        push("matching.mcmf_ms", mcmf_s * 1e3);
        push("matching.mcmf_iterations", stats.iterations as f64);
        push(
            "matching.mcmf_potential_updates",
            stats.potential_updates as f64,
        );
        push("matching.greedy_ms", greedy_s * 1e3);
        push("matching.local_search_ms", local_s * 1e3);
        if opt > 0.0 {
            push("matching.greedy_ratio", greedy_value / opt);
            push("matching.local_ratio", local.total_weight(w) / opt);
        }
        if robust.is_ok() {
            push("core.solve_robust_ms", robust_s * 1e3);
        }
    }
    for (k, v) in cols {
        out.insert(k, median(&v));
    }
    if let (Some(&robust), Some(&mcmf)) =
        (out.get("core.solve_robust_ms"), out.get("matching.mcmf_ms"))
    {
        if robust > 0.0 {
            out.insert("core.engine_overhead_share", (robust - mcmf) / robust);
        }
    }
}

/// Warm-start probes: a cold solve at a checkpoint, then a re-solve after
/// the next batch worth of churn, through `WarmNet` and `WarmSolver`.
fn warm_probes(inputs: &Inputs, at_events: &[usize], tracer: &mut Tracer, out: &mut Values) {
    let g = &inputs.graph;
    let mut mirror = Mirror::new(g, &inputs.weights);
    let mut cursor = 0usize;
    let mut advance = |mirror: &mut Mirror<'_>, upto: usize| {
        let upto = upto.min(inputs.events.len());
        while cursor < upto {
            mirror.apply(&inputs.events[cursor].event);
            cursor += 1;
        }
        mirror.active_weights()
    };
    let ctl = SolveCtl::unlimited();
    let (mut cold_ms, mut warm_ms, mut core_ms) = (Vec::new(), Vec::new(), Vec::new());
    for &at in at_events {
        let before = advance(&mut mirror, at);
        let after = advance(&mut mirror, at + WARM_GAP_EVENTS);
        let mut net = WarmNet::new(g);
        let ((m0, _), cold_s) = timed(tracer, "probe.matching.warm_cold", || {
            net.solve(g, &before, &Matching::empty(), &ctl)
        });
        let seed = Matching::from_edges(
            m0.edges
                .iter()
                .copied()
                .filter(|e| after[e.index()] > 0.0)
                .collect(),
        );
        let (_, warm_s) = timed(tracer, "probe.matching.warm_resolve", || {
            std::hint::black_box(net.solve(g, &after, &seed, &ctl));
        });
        // The engine-level wrapper repeats the same solve; once is enough.
        if core_ms.is_empty() {
            let mut solver = WarmSolver::new(g);
            solver.solve(g, &before, &ctl);
            let (_, core_s) = timed(tracer, "probe.core.warm_solve", || {
                std::hint::black_box(solver.solve(g, &after, &ctl));
            });
            core_ms.push(core_s * 1e3);
        }
        cold_ms.push(cold_s * 1e3);
        warm_ms.push(warm_s * 1e3);
    }
    if !cold_ms.is_empty() {
        out.insert("matching.warm_cold_ms", median(&cold_ms));
        out.insert("matching.warm_resolve_ms", median(&warm_ms));
        out.insert("core.warm_solve_ms", median(&core_ms));
    }
}

/// `core::incremental`: trace churn applied to a bench-owned
/// `IncrementalAssignment` over the whole universe.
fn incremental_probes(inputs: &Inputs, tracer: &mut Tracer, out: &mut Values) {
    let g = &inputs.graph;
    let mut inc =
        IncrementalAssignment::from_matching(g, inputs.weights.clone(), &Matching::empty())
            .expect("empty seed is feasible");
    for x in g.workers() {
        inc.deactivate_worker(x);
    }
    for x in g.tasks() {
        inc.deactivate_task(x);
    }
    let n = inputs.events.len().min(INCREMENTAL_EVENTS);
    let (_, churn_s) = timed(tracer, "probe.core.incremental", || {
        for a in &inputs.events[..n] {
            match a.event {
                ServiceEvent::WorkerJoin(x) => inc.activate_worker(WorkerId::new(x)),
                ServiceEvent::WorkerLeave(x) => {
                    inc.deactivate_worker(WorkerId::new(x));
                }
                ServiceEvent::TaskPost(x) => inc.activate_task(TaskId::new(x)),
                ServiceEvent::TaskCancel(x) | ServiceEvent::TaskComplete(x) => {
                    inc.deactivate_task(TaskId::new(x));
                }
                ServiceEvent::BenefitUpdate { edge, weight } => {
                    inc.set_weight(EdgeId::new(edge), weight)
                }
            }
        }
    });
    if n > 0 {
        out.insert("core.incremental_event_us", churn_s * 1e6 / n as f64);
    }
    let mut aw_us = Vec::new();
    for _ in 0..5 {
        let (_, s) = timed(tracer, "probe.core.active_weights", || {
            std::hint::black_box(inc.active_weights());
        });
        aw_us.push(s * 1e6);
    }
    out.insert("core.active_weights_us", median(&aw_us));
    let (best, _) = exact(g, &inc.active_weights());
    let mut reseed_us = Vec::new();
    for _ in 0..3 {
        let mut copy = inc.clone();
        let (ok, s) = timed(tracer, "probe.core.reseed", || copy.reseed(&best).is_ok());
        if ok {
            reseed_us.push(s * 1e6);
        }
    }
    if !reseed_us.is_empty() {
        out.insert("core.reseed_us", median(&reseed_us));
    }
}

/// `store`: read back the WAL the run wrote (its un-sealed crash copy),
/// re-commit its records into a fresh store, snapshot, recover.
fn store_probes(
    w: &Workload,
    crash_dir: &Path,
    scratch: &Path,
    tracer: &mut Tracer,
    out: &mut Values,
) -> std::io::Result<()> {
    let Some(cfg) = store_config(w) else {
        return Ok(());
    };
    let (replayed, replay_s) = timed(tracer, "probe.store.replay", || replay(crash_dir));
    let replayed = replayed?;
    let n = replayed.records.len();
    if n == 0 {
        return Ok(());
    }
    out.insert("store.replay_records_per_sec", n as f64 / replay_s);
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(crash_dir)? {
        bytes += entry?.metadata()?.len();
    }
    out.insert("store.bytes_per_record", bytes as f64 / n as f64);

    let mut recover_ms = Vec::new();
    let mut recovered = None;
    for _ in 0..5 {
        let (rec, s) = timed(tracer, "probe.store.recover", || recover(crash_dir));
        recovered = Some(rec?);
        recover_ms.push(s * 1e3);
    }
    out.insert("store.recover_ms", median(&recover_ms));
    out.insert("recover_s", median(&recover_ms) * 1e-3);

    let dir = scratch.join("probe-wal");
    let (mut store, _) = DurableStore::open(&dir, cfg)?;
    let mut commit_us = Vec::new();
    for rec in replayed.records.iter().take(COMMIT_RECORDS) {
        let t0 = Instant::now();
        match rec {
            WalRecord::Batch(r) => store.commit(r)?,
            WalRecord::Online(r) => store.commit_online(r)?,
            WalRecord::Plan(r) => store.commit_plan(r)?,
        }
        let t1 = Instant::now();
        tracer.record(ROOT, "probe.store.commit", t0, t1, rec.seq());
        commit_us.push((t1 - t0).as_secs_f64() * 1e6);
    }
    let commit_us = sorted(&commit_us);
    out.insert("store.commit_us_p50", percentile(&commit_us, 0.5));
    out.insert("store.commit_us_p95", percentile(&commit_us, 0.95));
    if let Some(rec) = recovered {
        let state = SnapshotState {
            watermark: store.stats().watermark,
            shards: rec.shards,
            weights: rec.weights,
        };
        let (res, s) = timed(tracer, "probe.store.snapshot", || store.snapshot(&state));
        res?;
        out.insert("store.snapshot_ms", s * 1e3);
    }
    drop(store);
    std::fs::remove_dir_all(&dir)
}

/// `net`: frame encode / decode cost and the loopback round trip of one
/// `EVENT_BATCH` against a `NetIngress` a bench thread drains.
fn net_probes(inputs: &Inputs, tracer: &mut Tracer, out: &mut Values) -> Result<(), String> {
    let events: Vec<_> = inputs.events.iter().take(FRAME_EVENTS).copied().collect();
    if events.is_empty() {
        return Ok(());
    }
    let n_events = events.len();
    let req = Request::EventBatch { ns: 0, events };
    const ROUNDS: usize = 2_000;
    let mut frame = Vec::new();
    let (_, enc_s) = timed(tracer, "probe.net.encode", || {
        for _ in 0..ROUNDS {
            frame.clear();
            write_message(&mut frame, &encode_request(&req)).expect("write to a Vec");
        }
    });
    let (ok, dec_s) = timed(tracer, "probe.net.decode", || {
        (0..ROUNDS).all(|_| {
            read_message(&mut frame.as_slice())
                .ok()
                .and_then(|p| decode_request(&p).ok())
                .is_some()
        })
    });
    if !ok {
        return Err("net probe: frame did not decode".into());
    }
    out.insert("net.encode_us_per_frame", enc_s * 1e6 / ROUNDS as f64);
    out.insert("net.decode_us_per_frame", dec_s * 1e6 / ROUNDS as f64);
    out.insert("net.bytes_per_event", frame.len() as f64 / n_events as f64);

    let mut ingress = NetIngress::bind(NetConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = ingress.local_addr().to_string();
    let stop = AtomicBool::new(false);
    let rtt = std::thread::scope(|scope| {
        let drain = scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                while ingress.pop_wait(Duration::from_millis(1)).is_some() {}
            }
        });
        let result = (|| {
            let mut client = Client::connect_retry(&addr, Duration::from_secs(10))
                .map_err(|e| format!("connect: {e}"))?;
            let mut rtt_us = Vec::with_capacity(RTT_ROUNDS);
            for i in 0..RTT_ROUNDS {
                let t0 = Instant::now();
                client.request(&req).map_err(|e| format!("request: {e}"))?;
                let t1 = Instant::now();
                tracer.record(ROOT, "probe.net.rtt", t0, t1, i as u64);
                rtt_us.push((t1 - t0).as_secs_f64() * 1e6);
            }
            Ok::<_, String>(rtt_us)
        })();
        stop.store(true, Ordering::Release);
        drain
            .join()
            .map_err(|_| "drain thread panicked".to_string())?;
        result
    });
    ingress.shutdown();
    out.insert("net.loopback_rtt_us_p50", median(&rtt?));
    Ok(())
}

/// Runs every probe that applies to `w` and returns the named results.
/// `checkpoints` are the run's captured market states; `crash_dir` is the
/// un-sealed copy of the WAL a durable run wrote.
pub fn run_probes(
    w: &Workload,
    inputs: &Inputs,
    checkpoints: &[Checkpoint],
    crash_dir: Option<&Path>,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<Values, String> {
    let mut out = Values::new();
    // The final state is the ninth checkpoint; the probes use the eight
    // taken mid-run (the market is fullest there).
    let mid = &checkpoints[..checkpoints.len().saturating_sub(1)];
    let instances: Vec<&[f64]> = mid.iter().map(|c| c.active_weights.as_slice()).collect();
    plan_probes(w, inputs, tracer, &mut out);
    solver_probes(inputs, &instances, tracer, &mut out);
    // Warm re-solves are the slowest probe by far: two checkpoints.
    let at_events: Vec<usize> = mid
        .iter()
        .skip(2)
        .step_by(3)
        .take(2)
        .map(|c| c.at_event)
        .collect();
    warm_probes(inputs, &at_events, tracer, &mut out);
    incremental_probes(inputs, tracer, &mut out);
    if let Some(dir) = crash_dir {
        store_probes(w, dir, scratch, tracer, &mut out).map_err(|e| format!("store probe: {e}"))?;
    }
    if w.tenants > 1 {
        net_probes(inputs, tracer, &mut out)?;
    }
    Ok(out)
}
