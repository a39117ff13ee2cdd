//! `mbta-bench`: the system benchmark's command line.
//!
//! ```text
//! mbta-bench run [--seed S] [--runs N] [--seconds T] [--trace 0|1] [--smoke]
//! mbta-bench run --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! mbta-bench agree [--seed S] [--runs N] [--seconds T] [--smoke]
//! mbta-bench manifest
//! ```
//!
//! `run --workload W` measures one workload in this process, prints every
//! metric as `name unit value` and ends with the one-line JSON result the
//! benchmark driver reads. Without `--workload`, `run` measures all six
//! workloads, each (workload, run) in a fresh child process so that
//! `peak_rss_mb` and the telemetry registry are per run, prints medians
//! and quartiles, and rewrites `BASELINE.json` next to this crate.
//! `agree` runs two such sets back to back and checks that they agree
//! within the benchmark's own bounds. `manifest` prints `BENCHMARK.json`.

use mbta_sysbench::host::Host;
use mbta_sysbench::run::{self, Args};
use mbta_sysbench::spec::{
    json_str, layer_of, manifest_json, Better, Workload, END_TO_END, PER_LAYER, RUN_SECONDS,
    WORKLOADS,
};
use mbta_sysbench::stats::quartiles;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: mbta-bench run [--workload W] [--seed S] [--runs N] [--seconds T] \
                     [--trace 0|1] [--smoke] | agree [same flags] | manifest";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    runs: usize,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        runs: 5,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" => {
                cli.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if cli.runs < 3 {
                    return Err("--runs must be at least 3".into());
                }
            }
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds >= 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be within 0..=60".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// Where the benchmark writes (WAL directories, trace files, span
/// files): `<target dir>/mbta-bench`, found from the binary's own path
/// (`<target dir>/<profile>/mbta-bench`), so always inside the checkout.
fn scratch_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or("binary is not inside a target directory")?
        .join("mbta-bench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn fmt_value(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_string(), |v| v.to_string())
}

/// One workload in this process; the last stdout line is the JSON result.
fn run_single(cli: &Cli, w: Workload) -> Result<bool, String> {
    let args = Args {
        workload: if cli.smoke { w.smoke() } else { w },
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    let outcome = run::run(&args, &scratch_root()?)?;
    println!(
        "# workload {} seed {} trace {}",
        w.name,
        cli.seed,
        u8::from(cli.trace)
    );
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.unit, fmt_value(m.value));
    }
    for (k, v) in &outcome.info {
        println!("# {k} {v}");
    }
    for p in &outcome.problems {
        println!("# problem {p}");
        eprintln!("FAIL: {p}");
    }
    println!("{}", outcome.json_line());
    Ok(outcome.correct)
}

/// What one child run printed.
#[derive(Default)]
struct ChildRun {
    metrics: BTreeMap<String, f64>,
    info: BTreeMap<String, String>,
}

fn run_child(cli: &Cli, w: &Workload, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", w.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) failed:\n{}{}",
            w.name,
            u8::from(trace),
            text,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut run = ChildRun::default();
    for line in text.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["#", key, rest @ ..] => {
                run.info.insert((*key).to_string(), rest.join(" "));
            }
            [name, _unit, value] => {
                if let Ok(v) = value.parse::<f64>() {
                    run.metrics.insert((*name).to_string(), v);
                }
            }
            _ => {}
        }
    }
    Ok(run)
}

/// Median and quartiles of one metric over a workload's runs.
#[derive(Clone, Copy)]
struct Summary {
    q1: f64,
    median: f64,
    q3: f64,
    n: usize,
}

/// One full set: every workload, `runs` untraced child runs each (plus
/// one traced run when asked).
struct ResultSet {
    /// workload -> metric -> summary
    summaries: BTreeMap<&'static str, BTreeMap<String, Summary>>,
    /// workload -> info of the first run (exact counts, decision hash)
    info: BTreeMap<&'static str, BTreeMap<String, String>>,
}

fn run_set(cli: &Cli) -> Result<ResultSet, String> {
    let mut set = ResultSet {
        summaries: BTreeMap::new(),
        info: BTreeMap::new(),
    };
    for w in &WORKLOADS {
        let mut columns: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for r in 0..cli.runs {
            eprintln!("{}: run {}/{}", w.name, r + 1, cli.runs);
            let run = run_child(cli, w, false)?;
            for (k, v) in run.metrics {
                columns.entry(k).or_default().push(v);
            }
            if r == 0 {
                set.info.insert(w.name, run.info);
            }
        }
        if cli.trace {
            eprintln!("{}: traced run", w.name);
            let run = run_child(cli, w, true)?;
            for (k, v) in run.metrics {
                columns.entry(k).or_default().push(v);
            }
        }
        let summaries = columns
            .into_iter()
            .map(|(k, v)| {
                let (q1, median, q3) = quartiles(&v);
                (
                    k,
                    Summary {
                        q1,
                        median,
                        q3,
                        n: v.len(),
                    },
                )
            })
            .collect();
        set.summaries.insert(w.name, summaries);
    }
    Ok(set)
}

fn print_set(set: &ResultSet, cli: &Cli) {
    for w in &WORKLOADS {
        println!("\n## {}", w.name);
        let s = &set.summaries[w.name];
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            match s.get(name) {
                Some(x) => println!(
                    "{name} {unit} {} (q1 {} q3 {} n {})",
                    x.median, x.q1, x.q3, x.n
                ),
                None if cli.trace || END_TO_END.iter().any(|m| m.name == name) => {
                    println!("{name} {unit} n/a")
                }
                None => {}
            }
        }
        for (k, v) in &set.info[w.name] {
            println!("# {k} {v}");
        }
    }
}

/// `BASELINE.json`: host, workload parameters, the annotated metric
/// tables, and the committed baseline results.
fn baseline_json(set: &ResultSet, cli: &Cli, host: &Host) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"profile\": {}, \"workers\": {}, \"tasks\": {}, \"degree\": {}, \
                 \"repeats\": {}, \"drift\": {}, \"tenants\": {}, \"shards\": {}, \"routing\": {}, \
                 \"boundary_pass\": {}, \"budget\": {}, \"batch_max\": {}, \"threads\": {}, \
                 \"online_drift_threshold\": {}, \"wal_fsync\": {}, \"lindley_rate\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.profile.name()),
                w.workers,
                w.tasks,
                w.degree,
                w.repeats,
                w.drift,
                w.tenants,
                w.shards,
                json_str(w.routing.name()),
                w.boundary_pass,
                json_str(&format!("{:?}", w.budget)),
                w.batch_max,
                w.threads,
                w.online.map_or("null".to_string(), |d| d.to_string()),
                w.wal
                    .map_or("null".to_string(), |p| json_str(p.name())),
                w.rate,
                json_str(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"applies\": \"all\", \"definition\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name()),
                m.bound,
                json_str(m.what)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"layer\": {}, \"source\": {}, \"moves\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name()),
                json_str(layer_of(m.name)),
                json_str(m.source.tag()),
                json_str(m.moves)
            )
        })
        .collect();
    let results: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let rows: Vec<String> = set.summaries[w.name]
                .iter()
                .map(|(k, s)| {
                    format!(
                        "      {}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                        json_str(k),
                        s.median,
                        s.q1,
                        s.q3,
                        s.n
                    )
                })
                .collect();
            format!("    {}: {{\n{}\n    }}", json_str(w.name), rows.join(",\n"))
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"claim\": null,\n",
            "  \"command\": \"cargo run --release --manifest-path sysbench/Cargo.toml --bin mbta-bench -- run --trace 1\",\n",
            "  \"seed\": {}, \"runs\": {}, \"seconds\": {}, \"smoke\": {},\n",
            "  \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"governor\": {}, \"rustc\": {}, \"git_commit\": {}}},\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "  \"end_to_end\": [\n{}\n  ],\n",
            "  \"per_layer\": [\n{}\n  ],\n",
            "  \"results\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        cli.seed,
        cli.runs,
        cli.seconds,
        cli.smoke,
        host.nproc,
        json_str(&host.cpu_model),
        json_str(&host.governor),
        json_str(&host.rustc),
        json_str(&host.git_commit),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
        results.join(",\n"),
    )
}

fn run_full(cli: &Cli) -> Result<bool, String> {
    let host = Host::read();
    eprintln!(
        "host: {} cores, {}, governor {}, {}, commit {}",
        host.nproc, host.cpu_model, host.governor, host.rustc, host.git_commit
    );
    let set = run_set(cli)?;
    print_set(&set, cli);
    if !cli.smoke {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BASELINE.json");
        std::fs::write(path, baseline_json(&set, cli, &host))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(true)
}

/// Two full sets back to back: medians must agree within each metric's
/// bound, and deterministic workloads must repeat their exact counts and
/// decision hash.
fn agree(cli: &Cli) -> Result<bool, String> {
    let first = run_set(cli)?;
    let second = run_set(cli)?;
    let mut ok = true;
    println!("workload metric first second worse_by bound verdict");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (
                first.summaries[w.name].get(m.name),
                second.summaries[w.name].get(m.name),
            ) else {
                println!("{} {} missing", w.name, m.name);
                ok = false;
                continue;
            };
            let worse_by = match m.better {
                Better::Lower => (b.median - a.median) / a.median,
                Better::Higher => (a.median - b.median) / a.median,
            };
            // The sets are interchangeable, so the check is symmetric.
            let agrees = worse_by.abs() <= m.bound;
            ok &= agrees;
            println!(
                "{} {} {} {} {:+.4} {} {}",
                w.name,
                m.name,
                a.median,
                b.median,
                worse_by,
                m.bound,
                if agrees { "ok" } else { "DISAGREE" }
            );
        }
        for key in ["exact_counts", "exact_decision_hash"] {
            let (a, b) = (first.info[w.name].get(key), second.info[w.name].get(key));
            if a != b {
                println!("{} {key} {a:?} != {b:?} DISAGREE", w.name);
                ok = false;
            } else if let Some(a) = a {
                println!("{} {key} {a} repeats", w.name);
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if command == "manifest" && rest.is_empty() {
        print!("{}", manifest_json());
        return ExitCode::SUCCESS;
    }
    let cli = match parse(rest) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match (command.as_str(), cli.workload) {
        ("run", Some(w)) => run_single(&cli, w),
        ("run", None) => run_full(&cli),
        ("agree", None) => agree(&cli),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mbta-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
