//! In-process cluster integration tests: real TCP sockets, real router
//! and worker threads, deterministic budgets.
//!
//! The namespace-isolation test is the tenancy contract: running tenant A
//! alongside tenant B through one router must leave A's per-worker
//! decision logs *byte-identical* to running A through the same topology
//! alone. The dead-owner test is the failure contract: an unreachable
//! owner poisons its shard, its events degrade (counted, never silently
//! lost), and the run still finishes. The rejoin test is its flip side:
//! an owner restarted on the same address is re-probed and resumes
//! receiving its shard's events.

use mbta_cluster::topology::{build_plans, load_tenants, save_plans};
use mbta_cluster::{router, worker, RouterConfig, RouterSummary, WorkerConfig, WorkerSummary};
use mbta_net::{send_events, Client, Reply, Request};
use mbta_service::{DeferBackoff, Route, Routing, ServiceEvent};
use mbta_workload::{Profile, TraceFile, TraceSpec, WorkloadSpec};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `(owner, namespace, decision-log hash, WAL-directory hash)` of the
/// two-tenant, two-owner deterministic run below. Captured at the commit
/// before the one-network-path refactor by running this file there; a
/// correctly routed owner's bytes are re-pinned only by a PR that means to
/// change decisions or the WAL format.
const GOLDEN: &[(usize, usize, u64, u64)] = &[
    (0, 0, 0xfdbf3662c059a09f, 0x815eb92c2c2bd628),
    (0, 1, 0x562eb3d81e04f52f, 0x90889303db972bb0),
    (1, 0, 0x579761790bec8341, 0xb7db7f22c1d9d960),
    (1, 1, 0x1f80aed7bc461797, 0x560479ce0ec3fa25),
];

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Hashes every `(owner, namespace)` decision log and `ns-<i>` WAL
/// directory (file names, file bytes, snapshot count — as
/// `tests/dispatch_golden.rs` does) of a run journaled under `wal_root`.
fn golden_hashes(ws: &[WorkerSummary], wal_root: &Path) -> Vec<(usize, usize, u64, u64)> {
    let mut got = Vec::new();
    for w in ws {
        for (ns, log) in w.decision_logs.iter().enumerate() {
            let mut log_hash = FNV_OFFSET;
            fnv1a(&mut log_hash, log);
            let dir = wal_root.join(format!("wal-{}/ns-{ns}", w.shard));
            let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            let mut wal_hash = FNV_OFFSET;
            for f in files {
                fnv1a(&mut wal_hash, f.file_name().unwrap().as_encoded_bytes());
                fnv1a(&mut wal_hash, &std::fs::read(&f).unwrap());
            }
            fnv1a(&mut wal_hash, &w.reports[ns].snapshots.to_le_bytes());
            got.push((w.shard, ns, log_hash, wal_hash));
        }
    }
    got
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbta_cluster_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn make_trace(dir: &Path, name: &str, seed: u64) -> PathBuf {
    let wspec = WorkloadSpec {
        profile: Profile::Zipfian,
        n_workers: 40,
        n_tasks: 24,
        avg_worker_degree: 4.0,
        skill_dims: 4,
        seed,
    };
    let tspec = TraceSpec {
        horizon: 50.0,
        mean_session: 10.0,
        mean_task_lifetime: 15.0,
        seed,
    };
    let events = tspec.generate_repeated(wspec.n_workers, wspec.n_tasks, 2);
    let tf = TraceFile::new(wspec, events).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, tf.render()).unwrap();
    path
}

/// Spins up `n_shards` workers + a router over `traces`, drives every
/// tenant's events through one client connection each, FINs, and joins
/// everything down. With `wal_root`, owner `s` journals under
/// `<wal_root>/wal-<s>`. With `misroute`, one shard-1 event of tenant 0 is
/// first sent straight to owner 0, bypassing the router, and the call
/// waits until owner 0's live report counts it.
fn run_cluster(
    traces: &[PathBuf],
    n_shards: usize,
    wal_root: Option<&Path>,
    misroute: bool,
) -> (RouterSummary, Vec<WorkerSummary>) {
    let mut handles = Vec::new();
    let mut owners = Vec::new();
    for s in 0..n_shards {
        let mut wc = WorkerConfig::new(traces.to_vec(), s, n_shards);
        wc.budget_ms = 0; // deterministic decisions
        wc.threads = 1;
        wc.collect_decisions = true;
        wc.linger_ms = 400;
        wc.wal_dir = wal_root.map(|root| root.join(format!("wal-{s}")));
        let h = worker::spawn(wc).unwrap();
        owners.push(h.addr().to_string());
        handles.push(h);
    }
    let tenants = load_tenants(traces).unwrap();
    if misroute {
        let plans = build_plans(&tenants, n_shards, Routing::HashId, None).unwrap();
        let task = (0..tenants[0].graph.n_tasks() as u32)
            .find(|&t| plans[0].route(&ServiceEvent::TaskPost(t)) == Route::Shard(1))
            .expect("shard 1 holds a task");
        let stray = mbta_service::Arrival {
            time: 0.0,
            event: ServiceEvent::TaskPost(task),
        };
        let mut c = Client::connect_retry(&owners[0], Duration::from_secs(5)).unwrap();
        let reply = c.request(&Request::EventBatch {
            ns: 0,
            events: vec![stray],
        });
        assert_eq!(reply.unwrap(), Reply::Ok { accepted: 1 });
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match c.request(&Request::QueryReport).unwrap() {
                Reply::ShardReport(r) if r.foreign_events == 1 => break,
                Reply::ShardReport(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                other => panic!("live report never counted the misroute: {other:?}"),
            }
        }
    }
    let rc = RouterConfig::new(traces.to_vec(), owners);
    let rh = router::spawn(rc).unwrap();
    let addr = rh.addr().to_string();

    // One connection per tenant preserves each tenant's event order.
    let senders: Vec<_> = tenants
        .into_iter()
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
                let mut backoff = DeferBackoff::new(5, 200, t.seed);
                send_events(&mut c, t.ns, &t.events, 64, &mut backoff).unwrap()
            })
        })
        .collect();
    for h in senders {
        h.join().unwrap();
    }
    let mut fin = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    fin.request(&Request::Fin).unwrap();

    let rs = rh.join().unwrap();
    let ws = handles.into_iter().map(|h| h.join().unwrap()).collect();
    (rs, ws)
}

#[test]
fn namespace_isolation_is_byte_identical_per_tenant() {
    let dir = temp_dir("isolation");
    let trace_a = make_trace(&dir, "a.trace", 11);
    let trace_b = make_trace(&dir, "b.trace", 23);
    let n_shards = 2;

    // The two-tenant run journals; the single-tenant runs do not, so the
    // log comparison below also says a WAL does not change decisions.
    let wal_root = dir.join("both");
    let both = [trace_a.clone(), trace_b.clone()];
    let (rs_both, ws_both) = run_cluster(&both, n_shards, Some(&wal_root), false);
    let (rs_a, ws_a) = run_cluster(&[trace_a], n_shards, None, false);
    let (rs_b, ws_b) = run_cluster(&[trace_b], n_shards, None, false);

    for rs in [&rs_both, &rs_a, &rs_b] {
        assert!(rs.conserved(), "unaccounted events: {rs:?}");
        assert!(rs.poisoned.iter().all(|&p| !p));
        assert_eq!(rs.degraded, 0);
    }
    for ws in [&ws_both, &ws_a, &ws_b] {
        for w in ws.iter() {
            assert_eq!(w.violations(), 0, "shard {} violated capacity", w.shard);
            assert_eq!(w.foreign_events(), 0, "router/worker routing disagreed");
            assert_eq!(w.unknown_namespace, 0);
        }
    }

    // Tenant A's logs with B interleaved == tenant A's logs alone, on
    // every worker — and symmetrically for B.
    for s in 0..n_shards {
        assert_eq!(
            ws_both[s].decision_logs[0], ws_a[s].decision_logs[0],
            "tenant A's shard-{s} log changed when tenant B ran alongside"
        );
        assert_eq!(
            ws_both[s].decision_logs[1], ws_b[s].decision_logs[0],
            "tenant B's shard-{s} log changed when tenant A ran alongside"
        );
    }

    // Both tenants actually produced decisions somewhere.
    let decided: u64 = ws_both
        .iter()
        .flat_map(|w| &w.reports)
        .map(|r| r.decisions)
        .sum();
    assert!(decided > 0, "cluster made no decisions at all");

    let got = golden_hashes(&ws_both, &wal_root);
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (owner, ns, log, wal) in &got {
            println!("    ({owner}, {ns}, {log:#018x}, {wal:#018x}),");
        }
    } else {
        assert_eq!(got, GOLDEN, "an owner's decision log or WAL bytes changed");
    }
}

/// A frame that reaches the wrong owner (here: sent past the router) is
/// acknowledged, counted as foreign — live and in the summary — and
/// otherwise leaves no trace: no decision, no WAL record, every byte of
/// the correctly routed run unchanged.
#[test]
fn misrouted_frame_is_counted_foreign_and_leaves_no_trace() {
    let dir = temp_dir("misroute");
    let traces = [
        make_trace(&dir, "a.trace", 11),
        make_trace(&dir, "b.trace", 23),
    ];
    let wal_root = dir.join("wal");
    let (rs, ws) = run_cluster(&traces, 2, Some(&wal_root), true);

    assert!(rs.conserved(), "unaccounted events: {rs:?}");
    assert_eq!(ws[0].foreign_events(), 1);
    assert_eq!(ws[0].reports[0].foreign_events, 1, "tenant 0's stray");
    assert_eq!(ws[1].foreign_events(), 0);
    assert_eq!(
        ws[0].events,
        rs.per_owner_sent[0] + 1,
        "the stray was received"
    );
    for w in &ws {
        assert_eq!(w.violations(), 0);
    }
    assert_eq!(golden_hashes(&ws, &wal_root), GOLDEN);
}

#[test]
fn dead_owner_poisons_its_shard_and_the_run_finishes() {
    let dir = temp_dir("dead_owner");
    let trace = make_trace(&dir, "t.trace", 7);
    let traces = vec![trace];

    // Shard 0 is a live worker; shard 1 is an address nobody listens on.
    let mut wc = WorkerConfig::new(traces.clone(), 0, 2);
    wc.budget_ms = 0;
    wc.threads = 1;
    wc.linger_ms = 400;
    let live = worker::spawn(wc).unwrap();
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
        // listener dropped: connections now refused
    };

    let mut rc = RouterConfig::new(traces.clone(), vec![live.addr().to_string(), dead_addr]);
    rc.owner_retry_ms = 250;
    let rh = router::spawn(rc).unwrap();
    let addr = rh.addr().to_string();

    let tenants = load_tenants(&traces).unwrap();
    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    let mut backoff = DeferBackoff::new(5, 200, 1);
    send_events(&mut c, 0, &tenants[0].events, 64, &mut backoff).unwrap();
    c.request(&Request::Fin).unwrap();

    let rs = rh.join().unwrap();
    let ws = live.join().unwrap();

    assert!(rs.poisoned[1], "dead owner's shard was not poisoned");
    assert!(!rs.poisoned[0], "live owner's shard was poisoned");
    assert!(rs.degraded > 0, "no events were degraded: {rs:?}");
    assert!(rs.conserved(), "unaccounted events: {rs:?}");
    assert!(rs.owner_reports[0].is_some(), "live owner's report missing");
    assert!(rs.owner_reports[1].is_none());
    assert_eq!(rs.per_owner_sent[0], ws.events, "live owner lost events");
    assert_eq!(ws.violations(), 0);
    assert_eq!(ws.foreign_events(), 0);
}

#[test]
fn poisoned_shard_rejoins_when_its_owner_returns() {
    let dir = temp_dir("rejoin");
    let trace = make_trace(&dir, "t.trace", 13);
    let traces = vec![trace];

    // Shard 0 is live from the start; shard 1's address is reserved (and
    // refused) until we bring its owner up mid-run.
    let mut wc = WorkerConfig::new(traces.clone(), 0, 2);
    wc.budget_ms = 0;
    wc.threads = 1;
    wc.linger_ms = 400;
    let live = worker::spawn(wc).unwrap();
    let late_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };

    let mut rc = RouterConfig::new(
        traces.clone(),
        vec![live.addr().to_string(), late_addr.clone()],
    );
    rc.owner_retry_ms = 150;
    let rh = router::spawn(rc).unwrap();
    let addr = rh.addr().to_string();

    let tenants = load_tenants(&traces).unwrap();
    let events = &tenants[0].events;
    let half = events.len() / 2;
    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    let mut backoff = DeferBackoff::new(5, 200, 1);

    // First half: shard 1's owner is down, so its share poisons and
    // degrades once the retry window closes.
    send_events(&mut c, 0, &events[..half], 32, &mut backoff).unwrap();
    std::thread::sleep(Duration::from_millis(500));

    // The owner comes back on the *same* address; wait out the probe
    // interval so the next shard-1 flush reconnects.
    let mut wc = WorkerConfig::new(traces.clone(), 1, 2);
    wc.listen = late_addr;
    wc.budget_ms = 0;
    wc.threads = 1;
    wc.linger_ms = 400;
    let returned = worker::spawn(wc).unwrap();
    std::thread::sleep(router::PROBE_INTERVAL + Duration::from_millis(200));

    send_events(&mut c, 0, &events[half..], 32, &mut backoff).unwrap();
    c.request(&Request::Fin).unwrap();

    let rs = rh.join().unwrap();
    let ws_live = live.join().unwrap();
    let ws_ret = returned.join().unwrap();

    assert!(!rs.poisoned[1], "shard 1 still poisoned after owner rejoin");
    assert!(!rs.poisoned[0]);
    assert!(rs.degraded > 0, "outage degraded nothing: {rs:?}");
    assert!(rs.per_owner_sent[1] > 0, "rejoined owner got no events");
    assert!(rs.conserved(), "unaccounted events: {rs:?}");
    assert!(
        rs.owner_reports[1].is_some(),
        "rejoined owner never reported"
    );
    for w in [&ws_live, &ws_ret] {
        assert_eq!(w.violations(), 0, "shard {} violated capacity", w.shard);
        assert_eq!(w.foreign_events(), 0);
    }
}

#[test]
fn placement_file_pins_the_plans_across_processes() {
    let dir = temp_dir("placement");
    let trace = make_trace(&dir, "t.trace", 5);
    let tenants = load_tenants(&[trace]).unwrap();

    let built = build_plans(&tenants, 3, Routing::MinCut, None).unwrap();
    let path = dir.join("cluster.plc");
    save_plans(&built, &path).unwrap();
    let imported = build_plans(&tenants, 3, Routing::MinCut, Some(&path)).unwrap();

    for (a, b) in built.iter().zip(&imported) {
        assert_eq!(a.task_shard, b.task_shard);
        assert_eq!(a.worker_shard, b.worker_shard);
        assert_eq!(a.edge_shard, b.edge_shard);
        assert_eq!(a.cross_edges, b.cross_edges);
    }

    // Dimension mismatches are deployment errors, reported not panicked.
    assert!(build_plans(&tenants, 4, Routing::MinCut, Some(&path)).is_err());
}
