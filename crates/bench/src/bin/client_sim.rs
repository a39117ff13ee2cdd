//! Client-simulator load bench for the shard-owner cluster.
//!
//! Two modes:
//!
//! **Bench mode** (default): builds a multi-tenant workload, measures a
//! single-process multi-shard baseline, then stands up an in-process
//! cluster (router + one shard-owner per shard, real TCP sockets) and
//! drives it with N concurrent client connections. Prints a JSON report
//! or, with `--merge BENCH_service.json`, splices a `"cluster"` section
//! into the benchmark document:
//!
//! ```text
//! cargo run -p mbta-bench --release --bin client_sim -- --merge BENCH_service.json
//! ```
//!
//! **Driver mode** (`--addr`): drives an *external* router (started with
//! `mbta route`) with N concurrent connections over the given tenant
//! traces, then FINs. The CI multi-process smoke uses this against a
//! router + 4 real `mbta shard-worker` processes.
//!
//! Events are split round-robin across connections (per tenant), so each
//! connection preserves its own slice's relative order. The cluster is
//! driven exactly as a fleet of producers would: RETRY-AFTER backoff,
//! all-or-nothing admission, one FIN after every producer joins.

use mbta_cluster::topology::{load_tenants, Tenant};
use mbta_cluster::{router, worker, RouterConfig, WorkerConfig};
use mbta_net::{send_events, Client, Request};
use mbta_service::{
    Arrival, DeferBackoff, DispatchService, NullSink, Routing, ServiceConfig, ShardPlan,
};
use mbta_workload::{Profile, TraceFile, TraceSpec, WorkloadSpec};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Bench workload shape: two tenants sized like service_bench's market,
/// halved per tenant so the combined stream matches its scale.
const TENANTS: usize = 2;
const WORKERS: usize = 1000;
const TASKS: usize = 500;
const DEGREE: f64 = 6.0;
const DIMS: usize = 8;
const HORIZON: f64 = 60.0;
const REPEATS: u32 = 2;
const SEED: u64 = 42;
const SHARDS: usize = 4;
const DEFAULT_CONNS: usize = 8;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbta-client-sim-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cannot create temp dir");
    dir
}

/// Writes the bench tenants as trace files (the cluster topology is a
/// shared trace list by construction).
fn make_bench_traces(dir: &std::path::Path) -> Vec<PathBuf> {
    (0..TENANTS)
        .map(|i| {
            let seed = SEED + i as u64 * 101;
            let wspec = WorkloadSpec {
                profile: Profile::Zipfian,
                n_workers: WORKERS,
                n_tasks: TASKS,
                avg_worker_degree: DEGREE,
                skill_dims: DIMS,
                seed,
            };
            let tspec = TraceSpec {
                horizon: HORIZON,
                mean_session: HORIZON * 0.2,
                mean_task_lifetime: HORIZON * 0.3,
                seed,
            };
            let events = tspec.generate_repeated(WORKERS, TASKS, REPEATS);
            let tf = TraceFile::new(wspec, events).expect("bench trace generation failed");
            let path = dir.join(format!("tenant-{i}.trace"));
            std::fs::write(&path, tf.render()).expect("cannot write bench trace");
            path
        })
        .collect()
}

/// Single-process baseline: every tenant's service lives in one process
/// (full plan, no shard ownership), events offered directly — no sockets,
/// no framing. This is what the cluster's fan-out has to beat.
fn run_single_process(tenants: &[Tenant]) -> (u64, f64) {
    let plans: Vec<ShardPlan> = tenants
        .iter()
        .map(|t| ShardPlan::build(&t.graph, &t.weights, SHARDS, Routing::HashId))
        .collect();
    let mut svcs: Vec<DispatchService> = tenants
        .iter()
        .zip(&plans)
        .map(|(t, plan)| DispatchService::new(&t.graph, plan, ServiceConfig::default()))
        .collect();
    let mut sink = NullSink;
    let mut n = 0u64;
    let start = Instant::now();
    for (i, t) in tenants.iter().enumerate() {
        for &a in &t.events {
            n += 1;
            svcs[i].submit(a, &mut sink);
        }
    }
    for svc in svcs {
        svc.finish(&mut sink);
    }
    (n, start.elapsed().as_secs_f64())
}

/// Splits each tenant's stream round-robin into `conns` slices: slice `c`
/// takes events `c, c+conns, c+2*conns, ...`, preserving relative order
/// within the slice.
fn conn_slices(tenants: &[Tenant], conns: usize) -> Vec<Vec<(u32, Vec<Arrival>)>> {
    let mut slices: Vec<Vec<(u32, Vec<Arrival>)>> = (0..conns)
        .map(|_| tenants.iter().map(|t| (t.ns, Vec::new())).collect())
        .collect();
    for (ti, t) in tenants.iter().enumerate() {
        for (i, &a) in t.events.iter().enumerate() {
            slices[i % conns][ti].1.push(a);
        }
    }
    slices
}

/// Drives `addr` with concurrent connections and FINs once every sender
/// has joined. Returns (events sent, wall seconds).
fn drive(addr: &str, tenants: &[Tenant], conns: usize, batch: usize) -> Result<(u64, f64), String> {
    let start = Instant::now();
    let senders: Vec<_> = conn_slices(tenants, conns)
        .into_iter()
        .enumerate()
        .map(|(c, slice)| {
            let addr = addr.to_string();
            std::thread::spawn(move || -> Result<u64, String> {
                let mut client = Client::connect_retry(&addr, Duration::from_secs(10))
                    .map_err(|e| format!("conn {c}: cannot connect to {addr}: {e}"))?;
                let mut backoff = DeferBackoff::new(5, 500, c as u64);
                let mut sent = 0u64;
                for (ns, events) in slice {
                    let s = send_events(&mut client, ns, &events, batch, &mut backoff)
                        .map_err(|e| format!("conn {c}: send failed: {e}"))?;
                    sent += s.sent;
                }
                Ok(sent)
            })
        })
        .collect();
    let mut total = 0u64;
    for h in senders {
        total += h
            .join()
            .map_err(|_| "sender thread panicked".to_string())??;
    }
    let mut fin = Client::connect_retry(addr, Duration::from_secs(10))
        .map_err(|e| format!("cannot connect for FIN: {e}"))?;
    fin.request(&Request::Fin)
        .map_err(|e| format!("FIN failed: {e}"))?;
    Ok((total, start.elapsed().as_secs_f64()))
}

struct ClusterRun {
    events: u64,
    wall_s: f64,
    degraded: u64,
    poisoned: usize,
}

/// In-process cluster: one shard-owner thread per shard + a router, all
/// on real TCP sockets, driven by `conns` concurrent clients.
fn run_cluster(traces: &[PathBuf], tenants: &[Tenant], conns: usize) -> Result<ClusterRun, String> {
    let mut handles = Vec::new();
    let mut owners = Vec::new();
    for s in 0..SHARDS {
        let mut wc = WorkerConfig::new(traces.to_vec(), s, SHARDS);
        wc.linger_ms = 500;
        let h = worker::spawn(wc)?;
        owners.push(h.addr().to_string());
        handles.push(h);
    }
    let rh = router::spawn(RouterConfig::new(traces.to_vec(), owners))?;
    let addr = rh.addr().to_string();

    // The clock covers drive start through router exit: the router only
    // returns after every live owner has finished its shard and answered
    // QUERY_REPORT, so this is end-to-end processing wall, not just the
    // client-side send wall.
    let start = Instant::now();
    let (events, _send_s) = drive(&addr, tenants, conns, 64)?;
    let rs = rh.join()?;
    let wall_s = start.elapsed().as_secs_f64();
    for h in handles {
        let ws = h.join()?;
        if ws.violations() > 0 {
            return Err(format!(
                "shard {} finished with capacity violations",
                ws.shard
            ));
        }
    }
    if !rs.conserved() {
        return Err("router lost track of admitted events".into());
    }
    Ok(ClusterRun {
        events,
        wall_s,
        degraded: rs.degraded,
        poisoned: rs.poisoned.iter().filter(|&&p| p).count(),
    })
}

/// The `"cluster"` JSON object, shaped to splice above the top-level
/// `"results"` key of BENCH_service.json (same contract as store_bench's
/// durability section).
fn cluster_json(
    cores: usize,
    conns: usize,
    single_events: u64,
    single_s: f64,
    run: &ClusterRun,
) -> String {
    let single_eps = single_events as f64 / single_s;
    let cluster_eps = run.events as f64 / run.wall_s;
    let speedup = cluster_eps / single_eps;
    let note = if cores < 2 {
        "single-core host: cluster fan-out cannot beat the in-process baseline here"
    } else {
        "in-process cluster (threads + real TCP); multi-process numbers come from the CI smoke"
    };
    format!(
        concat!(
            "  \"cluster\": {{\n",
            "    \"tenants\": {},\n",
            "    \"shards\": {},\n",
            "    \"connections\": {},\n",
            "    \"host_cores\": {},\n",
            "    \"single_process_events_per_sec\": {:.0},\n",
            "    \"cluster_events_per_sec\": {:.0},\n",
            "    \"speedup\": {:.2},\n",
            "    \"events\": {},\n",
            "    \"degraded\": {},\n",
            "    \"poisoned_shards\": {},\n",
            "    \"note\": \"{}\"\n",
            "  }},\n"
        ),
        TENANTS,
        SHARDS,
        conns,
        cores,
        single_eps,
        cluster_eps,
        speedup,
        run.events,
        run.degraded,
        run.poisoned,
        note
    )
}

/// Splices `section` above the last top-level `"results"` key, replacing
/// any existing section with the same `key`.
fn merge_into(doc: &str, key: &str, section: &str) -> Result<String, String> {
    let mut doc = doc.to_string();
    let marker = format!("\n  \"{key}\": {{");
    if let Some(pos) = doc.find(&marker) {
        let start = pos + 1;
        let close = doc[start..]
            .find("\n  },\n")
            .ok_or_else(|| format!("existing {key} section has no closing brace"))?;
        doc.replace_range(start..start + close + "\n  },\n".len(), "");
    }
    let anchor = doc
        .rfind("\n  \"results\": [")
        .ok_or("no top-level \"results\" key to anchor the section")?
        + 1;
    doc.insert_str(anchor, section);
    Ok(doc)
}

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut traces: Option<Vec<PathBuf>> = None;
    let mut conns = DEFAULT_CONNS;
    let mut batch = 64usize;
    let mut out_path: Option<String> = None;
    let mut merge_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.next(),
            "--traces" => {
                traces = args
                    .next()
                    .map(|v| v.split(',').map(PathBuf::from).collect())
            }
            "--conns" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => conns = n,
                _ => {
                    eprintln!("--conns needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--batch" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => batch = n,
                _ => {
                    eprintln!("--batch needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--out" => out_path = args.next(),
            "--merge" => merge_path = args.next(),
            other => {
                eprintln!(
                    "unknown argument: {other} (usage: client_sim [--conns N] [--batch N] \
                     [--out <path> | --merge <path>] | client_sim --addr A --traces F,F \
                     [--conns N] [--batch N])"
                );
                return ExitCode::from(2);
            }
        }
    }

    // Driver mode: external router, CI smoke.
    if let Some(addr) = addr {
        let Some(traces) = traces else {
            eprintln!("--addr mode requires --traces");
            return ExitCode::from(2);
        };
        let tenants = match load_tenants(&traces) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("client_sim: {e}");
                return ExitCode::FAILURE;
            }
        };
        match drive(&addr, &tenants, conns, batch) {
            Ok((events, wall_s)) => {
                // Stable one-line summary (the CI smoke greps it).
                println!(
                    "client_sim: {events} events over {conns} conns in {wall_s:.2}s \
                     ({:.0} events/sec)",
                    events as f64 / wall_s
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("client_sim: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Bench mode: in-process cluster vs single-process baseline.
    let dir = tmp_dir("bench");
    let trace_paths = make_bench_traces(&dir);
    let tenants = match load_tenants(&trace_paths) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("client_sim: {e}");
            return ExitCode::FAILURE;
        }
    };
    let total_events: usize = tenants.iter().map(|t| t.events.len()).sum();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "workload: {TENANTS} tenants x {} events = {total_events}, {SHARDS} shards, \
         {conns} conns, {cores} cores",
        total_events / TENANTS
    );

    let (single_events, single_s) = run_single_process(&tenants);
    eprintln!(
        "single-process: {single_events} events in {single_s:.2}s ({:.0} events/sec)",
        single_events as f64 / single_s
    );
    let run = match run_cluster(&trace_paths, &tenants, conns) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("client_sim: cluster run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "cluster: {} events in {:.2}s ({:.0} events/sec)",
        run.events,
        run.wall_s,
        run.events as f64 / run.wall_s
    );
    let _ = std::fs::remove_dir_all(&dir);

    let section = cluster_json(cores, conns, single_events, single_s, &run);
    match (merge_path, out_path) {
        (Some(path), _) => {
            let doc = match std::fs::read_to_string(&path) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let merged = match merge_into(&doc, "cluster", &section) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("cannot merge into {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&path, merged) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("merged cluster section into {path}");
        }
        (None, Some(path)) => {
            let doc = format!("{{\n{section}  \"results\": []\n}}\n");
            if let Err(e) = std::fs::write(&path, &doc) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        (None, None) => {
            print!("{{\n{section}  \"results\": []\n}}\n");
        }
    }
    ExitCode::SUCCESS
}
