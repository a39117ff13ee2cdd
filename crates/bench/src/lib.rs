//! `mbta-bench`: the experiment harness.
//!
//! Regenerates every table and figure of the (reconstructed) evaluation —
//! see DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
//! expected-vs-measured shapes. An experiment is one entry of
//! [`experiments::EXPERIMENTS`] (id, title, run function) plus the plain
//! function it names, which returns its tables. The `experiments` binary
//! prints each table as aligned text and writes a CSV per table under
//! `results/`, exiting non-zero when a table is missing, empty or unwritten:
//!
//! ```text
//! cargo run -p mbta-bench --release --bin experiments            # all
//! cargo run -p mbta-bench --release --bin experiments -- f2 f6   # subset
//! cargo run -p mbta-bench --release --bin experiments -- --quick # small sizes
//! ```
//!
//! The `service_bench` binary is the streaming-service companion: it
//! replays a synthetic lifecycle/drift trace through the dispatch
//! service across shard counts, sweeps the solver-pool width
//! (`--threads` scaling, with the host's parallelism recorded next to
//! the speedups), and measures the telemetry on/off overhead. Its JSON
//! output is committed as the repo-root `BENCH_service.json` baseline
//! (EXPERIMENTS.md §S1 reads it):
//!
//! ```text
//! cargo run -p mbta-bench --release --bin service_bench -- --out BENCH_service.json
//! ```
//!
//! Criterion microbenches (one group per timing-centric figure) live in
//! `benches/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod harness;

pub use harness::Scale;
