//! The experiment driver: regenerates every table/figure of the evaluation.
//!
//! ```text
//! experiments [--quick] [--out DIR] [ids...]
//! ```
//!
//! With no ids, runs everything in the experiment table. Each table is
//! printed aligned to stdout and written as `<out>/<id>[_k].csv`. Exits 1
//! when a CSV cannot be written or an experiment produces no table or an
//! empty one (after running the rest), 2 on a usage error.

use mbta_bench::experiments::EXPERIMENTS;
use mbta_bench::Scale;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory argument");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!("usage: experiments [--quick] [--out DIR] [ids...]");
                eprintln!("known ids:");
                for e in EXPERIMENTS {
                    eprintln!("  {:<5} {}", e.id, e.title);
                }
                return;
            }
            id => ids.push(id.to_string()),
        }
    }

    if let Some(id) = ids
        .iter()
        .find(|id| !EXPERIMENTS.iter().any(|e| e.id == *id))
    {
        eprintln!("unknown experiment id: {id} (use --help for the list)");
        std::process::exit(2);
    }
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| ids.is_empty() || ids.iter().any(|i| i == e.id))
        .collect();

    println!(
        "mbta experiments: {} experiment(s), scale = {:?}, out = {}",
        selected.len(),
        scale,
        out_dir.display()
    );

    let mut failures = 0usize;
    for exp in selected {
        let start = Instant::now();
        let tables = (exp.run)(scale, exp.title);
        let elapsed = start.elapsed();
        if tables.is_empty() {
            eprintln!("error: {} produced no table", exp.id);
            failures += 1;
        }
        for (k, table) in tables.iter().enumerate() {
            println!("\n{}", table.render());
            let name = if tables.len() == 1 {
                format!("{}.csv", exp.id)
            } else {
                format!("{}_{}.csv", exp.id, k)
            };
            let path = out_dir.join(name);
            if table.is_empty() {
                eprintln!("error: {} produced an empty table", path.display());
                failures += 1;
            }
            if let Err(e) = table.write_csv(&path) {
                eprintln!("error: failed to write {}: {e}", path.display());
                failures += 1;
            } else {
                println!("[written {}]", path.display());
            }
        }
        println!("[{} done in {:.2?}]", exp.id, elapsed);
    }
    if failures > 0 {
        eprintln!("experiments: {failures} failure(s)");
        std::process::exit(1);
    }
}
