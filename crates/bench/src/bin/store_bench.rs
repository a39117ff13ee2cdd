//! Durability microbenchmark: WAL append throughput under `fsync=always`
//! vs `fsync=batch`, plus snapshot-write and full-recovery wall time, on
//! a synthetic but realistically shaped batch-record workload.
//!
//! The numbers answer the two operator questions DESIGN.md §11 raises:
//! what does the per-batch durability guarantee of `always` cost relative
//! to `batch`, and how long is the recovery window after a crash. Prints
//! a JSON report to stdout or `--out <path>`; with `--merge <path>` it
//! instead splices a `"durability"` section into an existing
//! `BENCH_service.json` (replacing any previous one):
//!
//! ```text
//! cargo run -p mbta-bench --release --bin store_bench -- --merge BENCH_service.json
//! ```

use mbta_store::record::{BatchRecord, DecisionRecord, WeightDelta};
use mbta_store::snapshot;
use mbta_store::store::recover;
use mbta_store::wal::{FsyncPolicy, Wal, WalConfig};
use mbta_util::SplitMix64;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Workload shape: enough records that segment rolls and fsync cadence
/// both matter, with delta/decision counts echoing what the dispatch
/// service journals per batch on the service_bench trace.
const RECORDS: u64 = 2_000;
const DELTAS_PER_RECORD: usize = 12;
const DECISIONS_PER_RECORD: usize = 8;
const EDGE_SPACE: u32 = 20_000;
const SHARDS: u32 = 8;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbta-store-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One deterministic, realistically sized batch record.
fn record(seq: u64, rng: &mut SplitMix64) -> BatchRecord {
    let deltas = (0..DELTAS_PER_RECORD)
        .map(|_| WeightDelta {
            edge: (rng.next_u64() as u32) % EDGE_SPACE,
            weight: rng.next_f64() * 2.0,
        })
        .collect();
    let decisions = (0..DECISIONS_PER_RECORD)
        .map(|_| {
            let edge = (rng.next_u64() as u32) % EDGE_SPACE;
            DecisionRecord {
                shard: edge % SHARDS,
                edge,
                assign: !rng.next_u64().is_multiple_of(4), // mostly assigns, like a warm run
                worker: edge / 7,
                task: edge / 13,
                weight: rng.next_f64() * 2.0,
            }
        })
        .collect();
    BatchRecord {
        seq,
        first_time: seq as f64,
        last_time: seq as f64 + 0.5,
        events: 24,
        deltas,
        decisions,
    }
}

struct AppendRun {
    policy: FsyncPolicy,
    group_every: u64,
    records_per_sec: f64,
    mb_per_sec: f64,
    wall_ms: f64,
    wal_bytes: u64,
}

/// Appends the full workload under one fsync policy and group-commit
/// window, and reports throughput. The final `sync` is included in the
/// timing — a benchmark that leaves the page cache dirty would flatter
/// `batch` and `never`.
fn bench_append(
    policy: FsyncPolicy,
    group_every: u64,
    recs: &[BatchRecord],
) -> std::io::Result<AppendRun> {
    let dir = tmp(&format!("{}-g{group_every}", policy.name()));
    let mut wal = Wal::open(
        &dir,
        WalConfig {
            fsync: policy,
            group_every,
            ..WalConfig::default()
        },
    )?;
    let start = Instant::now();
    for rec in recs {
        wal.append(rec.seq, &rec.encode())?;
    }
    wal.sync()?;
    let wall = start.elapsed().as_secs_f64();
    let bytes = wal.bytes();
    drop(wal);
    std::fs::remove_dir_all(&dir)?;
    Ok(AppendRun {
        policy,
        group_every,
        records_per_sec: recs.len() as f64 / wall,
        mb_per_sec: bytes as f64 / (1024.0 * 1024.0) / wall,
        wall_ms: wall * 1000.0,
        wal_bytes: bytes,
    })
}

struct RecoveryRun {
    snapshot_ms: f64,
    recover_ms: f64,
    recovered_watermark: u64,
    recovered_assignments: usize,
}

/// Writes the workload once (batch fsync), snapshots the mid-point state,
/// then times a full cold recovery (snapshot load + WAL-tail replay) —
/// the post-crash `mbta recover` path.
fn bench_recovery(recs: &[BatchRecord]) -> std::io::Result<RecoveryRun> {
    let dir = tmp("recover");
    let mut wal = Wal::open(
        &dir,
        WalConfig {
            fsync: FsyncPolicy::Batch,
            ..WalConfig::default()
        },
    )?;
    for rec in recs {
        wal.append(rec.seq, &rec.encode())?;
    }
    wal.sync()?;
    drop(wal);

    // Snapshot covering the first half, so recovery exercises both legs:
    // snapshot load plus replay of the remaining WAL tail.
    let half = recs.len() as u64 / 2;
    let mut shards: Vec<Vec<u32>> = vec![Vec::new(); SHARDS as usize];
    for (s, shard) in shards.iter_mut().enumerate() {
        *shard = (0..400u32).map(|i| i * SHARDS + s as u32).collect();
    }
    let weights: Vec<f64> = (0..EDGE_SPACE).map(|e| e as f64 / 1000.0).collect();
    let start = Instant::now();
    snapshot::write(&dir, half, &shards, &weights)?;
    let snapshot_ms = start.elapsed().as_secs_f64() * 1000.0;

    let start = Instant::now();
    let recovered = recover(&dir)?;
    let recover_ms = start.elapsed().as_secs_f64() * 1000.0;
    std::fs::remove_dir_all(&dir)?;
    Ok(RecoveryRun {
        snapshot_ms,
        recover_ms,
        recovered_watermark: recovered.watermark,
        recovered_assignments: recovered.assignments(),
    })
}

/// The `"durability"` JSON object (two-space indent, hand-formatted — the
/// workspace has no JSON dependency by design). Ends with `,\n` so it can
/// be spliced directly above the `"results"` key of BENCH_service.json.
fn durability_json(runs: &[AppendRun], rec: &RecoveryRun) -> String {
    let fsync_entries: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "      {{\n",
                    "        \"policy\": \"{}\",\n",
                    "        \"group_every\": {},\n",
                    "        \"records_per_sec\": {:.0},\n",
                    "        \"mb_per_sec\": {:.2},\n",
                    "        \"wall_ms\": {:.1},\n",
                    "        \"wal_bytes\": {}\n",
                    "      }}"
                ),
                r.policy.name(),
                r.group_every,
                r.records_per_sec,
                r.mb_per_sec,
                r.wall_ms,
                r.wal_bytes
            )
        })
        .collect();
    format!(
        concat!(
            "  \"durability\": {{\n",
            "    \"wal_records\": {},\n",
            "    \"deltas_per_record\": {},\n",
            "    \"decisions_per_record\": {},\n",
            "    \"fsync\": [\n{}\n    ],\n",
            "    \"snapshot_write_ms\": {:.2},\n",
            "    \"recover_ms\": {:.2},\n",
            "    \"recovered_watermark\": {},\n",
            "    \"recovered_assignments\": {}\n",
            "  }},\n"
        ),
        RECORDS,
        DELTAS_PER_RECORD,
        DECISIONS_PER_RECORD,
        fsync_entries.join(",\n"),
        rec.snapshot_ms,
        rec.recover_ms,
        rec.recovered_watermark,
        rec.recovered_assignments
    )
}

/// Splices `section` into a BENCH_service.json document, directly above
/// its top-level `"results"` key, replacing any existing `"durability"`
/// section. The *last* `"results"` occurrence is the anchor: nested
/// sections (thread_scaling) carry their own `results` arrays earlier in
/// the document.
fn merge_into(doc: &str, section: &str) -> Result<String, String> {
    let mut doc = doc.to_string();
    if let Some(pos) = doc.find("\n  \"durability\": {") {
        let start = pos + 1; // keep the preceding newline
        let close = doc[start..]
            .find("\n  },\n")
            .ok_or("existing durability section has no closing brace")?;
        doc.replace_range(start..start + close + "\n  },\n".len(), "");
    }
    let anchor = doc
        .rfind("\n  \"results\": [")
        .ok_or("no top-level \"results\" key to anchor the durability section")?
        + 1;
    doc.insert_str(anchor, section);
    Ok(doc)
}

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut merge_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next(),
            "--merge" => merge_path = args.next(),
            other => {
                eprintln!(
                    "unknown argument: {other} (usage: store_bench [--out <path> | --merge <path>])"
                );
                return ExitCode::from(2);
            }
        }
    }

    let mut rng = SplitMix64::new(7);
    let recs: Vec<BatchRecord> = (0..RECORDS).map(|seq| record(seq, &mut rng)).collect();
    let payload: usize = recs.iter().map(|r| r.encode().len()).sum();
    eprintln!(
        "workload: {RECORDS} records, {} payload bytes ({} per record)",
        payload,
        payload / RECORDS as usize
    );

    // Group-commit window 1 is write-through (the pre-existing behavior);
    // the wider windows show what buffering N records per combined write
    // buys under each policy — `always` amortizes the fsync itself,
    // `batch` the syscall count.
    let mut runs = Vec::new();
    for (policy, group_every) in [
        (FsyncPolicy::Always, 1),
        (FsyncPolicy::Always, 8),
        (FsyncPolicy::Batch, 1),
        (FsyncPolicy::Batch, 64),
    ] {
        match bench_append(policy, group_every, &recs) {
            Ok(r) => {
                eprintln!(
                    "fsync={} group={}: {:.0} records/sec, {:.2} MB/s ({:.1} ms)",
                    r.policy.name(),
                    r.group_every,
                    r.records_per_sec,
                    r.mb_per_sec,
                    r.wall_ms
                );
                runs.push(r);
            }
            Err(e) => {
                eprintln!("append bench ({}) failed: {e}", policy.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let rec = match bench_recovery(&recs) {
        Ok(r) => {
            eprintln!(
                "snapshot write {:.2} ms, recover {:.2} ms (watermark {}, {} assignments)",
                r.snapshot_ms, r.recover_ms, r.recovered_watermark, r.recovered_assignments
            );
            r
        }
        Err(e) => {
            eprintln!("recovery bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if rec.recovered_watermark != RECORDS {
        eprintln!(
            "FAIL: recovery lost records ({} of {RECORDS})",
            rec.recovered_watermark
        );
        return ExitCode::FAILURE;
    }

    let section = durability_json(&runs, &rec);
    if let Some(p) = merge_path {
        let doc = match std::fs::read_to_string(&p) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("read {p} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let merged = match merge_into(&doc, &section) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("merge into {p} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(&p, merged) {
            eprintln!("write {p} failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("merged durability section into {p}");
        return ExitCode::SUCCESS;
    }

    let json =
        format!("{{\n  \"benchmark\": \"store_durability\",\n{section}  \"results\": []\n}}\n");
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, &json) {
                eprintln!("write {p} failed: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}
