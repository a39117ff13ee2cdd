//! The dispatcher is a state machine that does no I/O, and its journal
//! folds back to exactly its live state.
//!
//! - `crates/service/src/dispatch.rs` is read the way
//!   `tests/metric_catalogue.rs` reads the sources: its non-test code may
//!   not name `std::{fs, io, net}`, `mbta_net`, any `mbta_store` module but
//!   `record`, the driver's types (`DurableStore`, `BoundedQueue`,
//!   `Batcher`, `DecisionSink`) or `SystemTime`, and it reads the clock
//!   exactly once (the solve span `BatchStats::solve_ms` reports).
//! - A `Dispatcher` is driven directly — no service, no store, no tempdir —
//!   over seeded traces in seven modes: batch at 4 shards on 1 and 4
//!   threads, min-cut at 8 shards with the boundary rescue on 1 and 2
//!   threads (the shards' carried networks move to a helper thread and
//!   back every batch), online with frequent drift fallbacks and with
//!   none over a stream cut off while sessions are open (the closing
//!   solves are then each shard's only exact solve, on live shards, so the
//!   reference's shard check at the end sees a skipped one), and a
//!   drift-driven re-plan loop. Every commit is encoded as the WAL record
//!   it journals, decoded, and folded with `RecoveredState::apply`; after
//!   each, the fold must hold the dispatcher's per-shard edge sets (an
//!   empty shard and a missing one are the same) and the live weight of
//!   every assigned edge, and agree with its status getters. After every
//!   step, commit or not, `assignments()` equals the summed `shard_sets()`
//!   lengths. Every commit is also audited by the reference market
//!   (`tests/reference`), its union against the unsharded optimum at every
//!   4th commit and at the end.

use mbta::service::{
    BatchConfig, Batcher, BudgetMode, Commit, Dispatcher, OnlineConfig, RecoveredState, Routing,
    ServiceConfig, ServiceReport, ShardPlan,
};
use mbta::store::WalRecord;
use reference::Reference;

mod reference;

/// Every identifier in `code`.
fn identifiers(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|id| !id.is_empty())
}

/// The first segment of every path `code` names under the crate `root`,
/// with `use root::{a::x, b}` groups expanded to `a` and `b`.
fn path_heads<'a>(code: &'a str, root: &str) -> Vec<&'a str> {
    let prefix = format!("{root}::");
    let mut heads = Vec::new();
    let mut from = 0;
    while let Some(at) = code[from..].find(&prefix).map(|i| from + i) {
        from = at + prefix.len();
        let before = code[..at].chars().next_back();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let rest = &code[from..];
        if let Some(group) = rest.strip_prefix('{') {
            // Split the group's top level on commas, nested groups intact.
            let (mut depth, mut start) = (0usize, 0usize);
            for (i, c) in group.char_indices() {
                match c {
                    '{' => depth += 1,
                    '}' if depth == 0 => {
                        heads.push(identifiers(&group[start..i]).next().unwrap_or(""));
                        break;
                    }
                    '}' => depth -= 1,
                    ',' if depth == 0 => {
                        heads.push(identifiers(&group[start..i]).next().unwrap_or(""));
                        start = i + 1;
                    }
                    _ => {}
                }
            }
        } else {
            heads.extend(identifiers(rest).next());
        }
    }
    heads
}

/// What `source`'s non-test code names that a module doing no I/O may not.
fn violations(source: &str) -> Vec<String> {
    let code: Vec<&str> = source
        .lines()
        .take_while(|l| l.trim_start() != "#[cfg(test)]")
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect();
    let code = code.join("\n");
    let mut found: Vec<String> = Vec::new();
    let banned = [
        "DurableStore",
        "BoundedQueue",
        "Batcher",
        "DecisionSink",
        "mbta_net",
        "SystemTime",
    ];
    for name in banned {
        if identifiers(&code).any(|id| id == name) {
            found.push(name.to_string());
        }
    }
    for head in path_heads(&code, "std") {
        if ["fs", "io", "net"].contains(&head) {
            found.push(format!("std::{head}"));
        }
    }
    for head in path_heads(&code, "mbta_store") {
        if head != "record" {
            found.push(format!("mbta_store::{head}"));
        }
    }
    let clock_reads = code.matches("Instant::now").count();
    if clock_reads != 1 {
        found.push(format!("{clock_reads} clock reads"));
    }
    found
}

#[test]
fn the_dispatcher_module_does_no_io() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/service/src/dispatch.rs"
    );
    let source = std::fs::read_to_string(path).expect("the dispatcher's source");
    assert_eq!(violations(&source), Vec::<String>::new());
}

#[test]
fn the_scanner_catches_every_forbidden_form() {
    let clock = "let t = Instant::now();\n";
    let caught = |code: &str| violations(&format!("{clock}{code}"));
    for (code, want) in [
        ("use std::fs;", "std::fs"),
        (
            "use std::{collections::HashMap, io::{self, Write}};",
            "std::io",
        ),
        ("let s = ::std::net::TcpStream::connect(a);", "std::net"),
        (
            "use mbta_store::{record::WalRecord, wal};",
            "mbta_store::wal",
        ),
        (
            "let t = mbta_store::tail::WalTail::new(d);",
            "mbta_store::tail",
        ),
        (
            "use mbta_store::snapshot::SnapshotState;",
            "mbta_store::snapshot",
        ),
        ("fn f(s: mbta_store::DurableStore) {}", "DurableStore"),
        (
            "fn f(s: &mbta_store::store::StoreStats) {}",
            "mbta_store::store",
        ),
        ("fn f(q: &mut BoundedQueue) {}", "BoundedQueue"),
        ("let b = Batcher::new(cfg);", "Batcher"),
        ("impl DecisionSink for X {}", "DecisionSink"),
        ("use mbta_net::wire;", "mbta_net"),
        ("let n = SystemTime::now();", "SystemTime"),
        ("let u = Instant::now();", "2 clock reads"),
    ] {
        assert!(
            caught(code).contains(&want.to_string()),
            "{code}: {:?}",
            caught(code)
        );
    }
    for clean in [
        "use std::time::Instant;",
        "use std::{cmp::Ordering, time::Instant};",
        "use mbta_store::record::{Action, WalRecord};",
        "struct Batchers; let my_std::fs = 1;",
        "// DurableStore, std::fs and Batcher in a comment",
        "#[cfg(test)]\nuse std::fs;",
    ] {
        assert_eq!(caught(clean), Vec::<String>::new(), "{clean}");
    }
    assert_eq!(violations("fn f() {}"), ["0 clock reads"]);
}

/// One mode of the property.
struct Mode {
    name: &'static str,
    shards: usize,
    routing: Routing,
    threads: usize,
    boundary_pass: bool,
    /// Online, with this drift threshold.
    online: Option<f64>,
    replan: bool,
    /// The stream stops two thirds in, while sessions are still open.
    cut_short: bool,
}

const MODES: [Mode; 7] = [
    Mode {
        name: "batch-4-t1",
        shards: 4,
        routing: Routing::HashId,
        threads: 1,
        boundary_pass: false,
        online: None,
        replan: false,
        cut_short: false,
    },
    Mode {
        name: "batch-4-t4",
        shards: 4,
        routing: Routing::HashId,
        threads: 4,
        boundary_pass: false,
        online: None,
        replan: false,
        cut_short: false,
    },
    Mode {
        name: "mincut-8-rescue",
        shards: 8,
        routing: Routing::MinCut,
        threads: 1,
        boundary_pass: true,
        online: None,
        replan: false,
        cut_short: false,
    },
    Mode {
        name: "mincut-8-rescue-t2",
        shards: 8,
        routing: Routing::MinCut,
        threads: 2,
        boundary_pass: true,
        online: None,
        replan: false,
        cut_short: false,
    },
    Mode {
        name: "online",
        shards: 4,
        routing: Routing::HashId,
        threads: 1,
        boundary_pass: false,
        online: Some(0.1),
        replan: false,
        cut_short: false,
    },
    // No drift reaches this threshold: each shard's one exact solve is
    // its closing one, on the nodes still live when the stream stops.
    Mode {
        name: "online-closing",
        shards: 4,
        routing: Routing::HashId,
        threads: 1,
        boundary_pass: false,
        online: Some(1e9),
        replan: false,
        cut_short: true,
    },
    // The re-plan loop runs with the rescue overlay on odd seeds, so plan
    // records carry the overlay's pseudo-shard, and without it on even
    // ones, so migrations unassign what the new plan cuts.
    Mode {
        name: "replan",
        shards: 4,
        routing: Routing::MinCut,
        threads: 1,
        boundary_pass: false,
        online: None,
        replan: true,
        cut_short: false,
    },
];

/// Folds one commit, as the WAL would carry it, into `folded` and checks
/// the result against the dispatcher's live state; then audits it against
/// the reference market.
fn fold_and_check(
    d: &Dispatcher<'_>,
    c: &Commit,
    folded: &mut RecoveredState,
    mirror: &mut Reference,
    at: &str,
) {
    let rec = d.record(c, folded.watermark);
    let decoded = WalRecord::decode(&rec.encode()).expect("a journaled record decodes");
    assert_eq!(decoded, rec, "{at}: record changed through the codec");
    folded.apply(&decoded);

    let live = d.shard_sets();
    let shard = |sets: &[Vec<u32>], s: usize| sets.get(s).cloned().unwrap_or_default();
    for s in 0..live.len().max(folded.shards.len()) {
        let seq = folded.watermark;
        assert_eq!(
            shard(&folded.shards, s),
            shard(&live, s),
            "{at}: shard {s}, seq {seq}"
        );
    }
    for &e in live.iter().flatten() {
        let (got, want) = (folded.weights.get(e as usize), d.weights()[e as usize]);
        assert_eq!(
            got.map(|w| w.to_bits()),
            Some(want.to_bits()),
            "{at}: edge {e}"
        );
    }
    assert_eq!(folded.assignments(), d.assignments(), "{at}");
    assert!((folded.total_weight() - d.value()).abs() < 1e-9, "{at}");
    check_count(d, at);
    mirror.commit(&c.stats, d.decisions());
}

/// The O(shards) assignment count agrees with the edge sets it counts.
fn check_count(d: &Dispatcher<'_>, at: &str) {
    let sets: usize = d.shard_sets().iter().map(Vec::len).sum();
    assert_eq!(d.assignments(), sets, "{at}: assignment count");
}

/// Drives one mode over one seeded trace, checking every commit; returns
/// how many commits were checked and how many of them were re-plans.
fn run(mode: &Mode, seed: u64) -> (u64, u64) {
    let (g, w) = reference::universe(90, 70, 5.0, (2, 2), seed);
    let cfg = ServiceConfig {
        batch: BatchConfig {
            max_events: 8,
            max_bytes: 1 << 20,
            flush_interval: 4.0,
        },
        budget: BudgetMode::Deterministic,
        threads: mode.threads,
        boundary_pass: mode.boundary_pass || (mode.replan && seed % 2 == 1),
        online: mode
            .online
            .map(|drift_threshold| OnlineConfig { drift_threshold }),
        ..ServiceConfig::default()
    };
    let mut events = reference::stream(&g, 12.0, 16.0, seed);
    if mode.cut_short {
        events.truncate(events.len() * 2 / 3);
    }
    let mut plan = ShardPlan::build(&g, &w, mode.shards, mode.routing);
    let mut mirror = Reference::new(&g, &plan, &cfg);
    mirror.every = 4;
    let mut report = ServiceReport {
        degraded_by_shard: vec![0; mode.shards],
        ..ServiceReport::default()
    };
    let mut folded = RecoveredState::default();
    let mut batcher = Batcher::new(cfg.batch);
    let at = |i: usize| format!("{} seed {seed} event {i}", mode.name);
    let (mut idx, mut carried, mut replans) = (0usize, None, 0u64);
    loop {
        let mut d = match carried.take() {
            None => Dispatcher::new(&g, &plan, &cfg),
            Some(detached) => {
                mirror.replan(&plan);
                let (d, c) = Dispatcher::replan(&g, &plan, detached);
                fold_and_check(&d, &c, &mut folded, &mut mirror, &at(idx));
                replans += 1;
                d
            }
        };
        while idx < events.len() {
            let a = events[idx];
            idx += 1;
            mirror.offer(a);
            if mode.online.is_some() {
                if let Some(c) = d.event(a, &mut report) {
                    fold_and_check(&d, &c, &mut folded, &mut mirror, &at(idx));
                }
                check_count(&d, &at(idx));
            } else if let Some(closed) = batcher.offer(a) {
                let c = d.batch(&closed, &mut report);
                fold_and_check(&d, &c, &mut folded, &mut mirror, &at(idx));
                if mode.replan && d.cut_degradation() > 1e-6 {
                    break;
                }
            }
        }
        if idx < events.len() {
            let detached = d.detach(&mut report);
            plan = ShardPlan::build(&g, detached.live_weights(), mode.shards, mode.routing);
            carried = Some(detached);
            continue;
        }
        if mode.online.is_some() {
            for s in 0..d.n_shards() {
                if let Some(c) = d.close(s, &mut report) {
                    fold_and_check(&d, &c, &mut folded, &mut mirror, &at(idx));
                }
            }
        } else if let Some(closed) = batcher.drain() {
            let c = d.batch(&closed, &mut report);
            fold_and_check(&d, &c, &mut folded, &mut mirror, &at(idx));
        }
        d.finish(&mut report);
        mirror.finish(&report);
        assert_eq!(report.rescue_assigns > 0, cfg.boundary_pass, "{}", at(idx));
        assert_eq!(
            report.final_assignments,
            folded.assignments(),
            "{}",
            at(idx)
        );
        return (folded.watermark, replans);
    }
}

#[test]
fn every_commit_folds_to_the_live_state() {
    for mode in &MODES {
        for seed in 1..=3 {
            let (commits, replans) = run(mode, seed);
            assert!(
                commits >= 40,
                "{} seed {seed}: {commits} commits",
                mode.name
            );
            assert_eq!(replans > 0, mode.replan, "{} seed {seed}", mode.name);
        }
    }
}
