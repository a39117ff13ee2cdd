//! `mbta-sysbench`: the system benchmark of the mbta workspace.
//!
//! One binary, `mbta-bench`, defines every performance number the
//! repository quotes: six named workloads, seven end-to-end metrics with
//! regression bounds, and a per-layer breakdown measured from outside —
//! by timing calls into each library crate's public functions and by
//! diffing the telemetry registry the program already exports. The
//! vocabulary lives in [`spec`]; `BENCHMARK.json` at the repository root
//! is rendered from it. See `README.md` next to this crate.
//!
//! ```text
//! cargo run --release --manifest-path sysbench/Cargo.toml --bin mbta-bench -- run
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod drive;
pub mod host;
pub mod inputs;
pub mod mirror;
pub mod probes;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod verify;
