//! Argument parsing: one walk over argv, and one declaration per flag (no
//! external CLI dependency is on the workspace allowlist).
//!
//! [`Args::walk`] is the only loop that reads argv: it pairs every flag
//! with the token after it (the [`SWITCHES`] take none). A command's arm of
//! [`parse`] then reads its options out of the [`Args`] by name, and each
//! read is that flag's whole declaration — name, value kind (`switch`,
//! `num`, `named` with a `parse_*` vocabulary, [`Arg::text`] for paths and
//! strings, [`Arg::list`]), default and range rule ([`Bound`]) — written
//! where the field it fills is built, so the library's own config types
//! are filled directly. Missing values, unparsable or out-of-range numbers
//! and unknown words are reported by [`Args::last`] and [`Arg`], unknown
//! flags, absent required flags and cross-flag rules by [`Args::finish`];
//! no command formats those messages itself. Options that several
//! commands share are [`Args`] methods (`wal`, `online`, `universe`,
//! `routing`, `queue_cap`, `combiner`, ...), declared once.
//!
//! **To add a flag:** read it in the command's arm (or in the shared
//! group it belongs to) with one line such as
//! `shards: a.num("--shards", 4, Bound::Ge1)?`, and add it to the command's
//! stanza in [`USAGE`]; a flag without a value also goes into [`SWITCHES`].
//! The `usage_and_parser_agree` test fails until parser and usage text
//! name the same flags.

use mbta_cluster::{RouterConfig, WorkerConfig};
use mbta_core::algorithms::Algorithm;
use mbta_core::online::ArrivalOrder;
use mbta_market::Combiner;
use mbta_matching::mcmf::PathAlgo;
use mbta_matching::online::OnlinePolicy;
use mbta_service::{DropPolicy, FsyncPolicy, Routing};
use mbta_workload::{Profile, WorkloadSpec};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
usage:
  mbta gen --profile <uniform|zipfian|microtask|freelance>
           [--workers N] [--tasks N] [--degree F] [--dims N] [--seed N]
           --out FILE
  mbta stats FILE   (graph instance, or Prometheus metrics snapshot)
  mbta solve FILE [--algorithm <exact|greedy|local|quality|worker|random|cardinality|stable>]
                  [--combiner <balanced|harmonic|min|linear:L>] [--pairs]
                  [--deadline-ms N] [--fallback <none|chain>]
  mbta solve --inject-faults [--instances N] [--deadline-ms N] [--seed N]
  mbta gen-trace --out FILE [--profile P] [--workers N] [--tasks N]
                 [--degree F] [--dims N] [--seed N] [--horizon F] [--repeats N]
  mbta serve  --trace FILE [--shards N] [--threads N] [--batch-max N]
              [--batch-bytes N] [--flush-ms F] [--queue-cap N]
              [--drop-policy <drop-newest|drop-oldest|defer>]
              [--routing <hash|range|min-cut>] [--boundary-pass]
              [--replan-threshold F] [--online] [--drift-threshold F]
              [--budget-ms N] [--drift F]
              [--poison-shard S] [--max-wall-ms N] [--decisions FILE]
              [--metrics-out FILE] [--metrics-every N]
              [--wal-dir DIR] [--snapshot-every N]
              [--fsync <always|batch|never>] [--group-commit N]
              [--listen ADDR]
  mbta replay --trace FILE [serve flags; deterministic budgets]
  mbta plan-stats --trace FILE [--shards N,N,...]
  mbta recover --trace FILE --wal-dir DIR
  mbta follow --trace FILE --wal-dir DIR [--listen ADDR]
              [--query-listen ADDR] [--heartbeat-ms N]
              [--poll-ms N] [--max-wait-ms N]
  mbta send   --addr ADDR (--trace FILE | --status) [--batch N]
              [--namespace N] [--drift F] [--connect-wait-ms N]
  mbta shard-worker --traces FILE,FILE,... --shard S --shards N
              [--listen ADDR] [--routing <hash|range|min-cut>]
              [--placements FILE] [--wal-dir DIR] [--group-commit N]
              [--fsync <always|batch|never>] [--snapshot-every N]
              [--queue-cap N] [--threads N] [--online]
              [--drift-threshold F] [--budget-ms N] [--linger-ms N]
              [--decisions-dir DIR]
  mbta route  --traces FILE,FILE,... --owners ADDR,ADDR,...
              [--listen ADDR] [--routing <hash|range|min-cut>]
              [--placements FILE] [--save-placements FILE]
              [--queue-cap N] [--batch N] [--owner-retry-ms N]
              [--report-wait-ms N]
  mbta sweep FILE [--steps N]
  mbta maxmin FILE [--combiner <balanced|harmonic|min|linear:L>]
  mbta budget FILE --limit B [--combiner C] [--iters N]
  mbta online FILE [--policy <greedy|ranking|twophase|threshold>]
                   [--order <id|random|best-first|best-last>] [--seed N]
  mbta report FILE [--algorithm A] [--combiner C] [--top K]
  mbta topk FILE [--k N] [--combiner C]
  mbta help";

/// Degradation policy for robust solves (`--fallback`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackMode {
    /// Exact tier or bust: the solve *fails* (non-zero exit) if the engine
    /// returns anything below [`mbta_core::engine::QualityTier::Exact`].
    None,
    /// Full graceful-degradation chain; any tier is accepted.
    Chain,
}

/// Where a `serve` / `replay` run takes its events from. The trace-only
/// knobs live inside [`Source::Trace`], so a network run that re-plans or
/// weaves drift cannot be expressed.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// Read the events from the trace file.
    Trace {
        /// Benefit-drift injection rate in [0, 1] (0 = lifecycle events
        /// only).
        drift: f64,
        /// Re-plan the shard layout at a batch boundary once the live cut
        /// fraction has degraded past this much above the plan's baseline.
        replan_threshold: Option<f64>,
    },
    /// Accept events over framed TCP on this address (the trace still
    /// defines the market universe). `serve` only.
    Listen(String),
}

/// Options shared by `serve` and `replay`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOpts {
    /// Trace file produced by `gen-trace` (or `TraceFile::render`).
    pub trace: PathBuf,
    /// Shard count.
    pub shards: usize,
    /// Solver-pool width for touched-shard solves (`0` = one worker per
    /// available hardware thread; `1` = the exact sequential path).
    pub threads: usize,
    /// Batch count watermark.
    pub batch_max: usize,
    /// Batch byte watermark.
    pub batch_bytes: usize,
    /// Batch time watermark, in trace time units.
    pub flush_ms: f64,
    /// Ingress queue capacity.
    pub queue_cap: usize,
    /// Ingress overload policy.
    pub drop_policy: DropPolicy,
    /// Task-to-shard routing.
    pub routing: Routing,
    /// Run the cross-shard boundary-rescue matching after every batch's
    /// per-shard solves.
    pub boundary_pass: bool,
    /// Per-event online decision path: bypass the batcher, decide on every
    /// event, and journal one WAL record per deciding event. Incompatible
    /// with `--boundary-pass`.
    pub online: bool,
    /// With `--online`: fraction of a shard's matched weight that may
    /// drift before the warm-started exact fallback fires.
    pub drift_threshold: f64,
    /// Per-batch wall-clock solve budget in ms (`serve` only; `replay`
    /// always runs deterministic, unbudgeted solves).
    pub budget_ms: u64,
    /// Pre-poison one shard (fault-injection demo): it is not solved and
    /// keeps its greedy-repaired assignment without stalling siblings.
    pub poison_shard: Option<usize>,
    /// Fail (non-zero exit) if the whole run exceeds this wall-clock
    /// budget.
    pub max_wall_ms: Option<u64>,
    /// Write the decision log here.
    pub decisions: Option<PathBuf>,
    /// Write a telemetry snapshot here when the run finishes (Prometheus
    /// text exposition, or JSON when the path ends in `.json`).
    pub metrics_out: Option<PathBuf>,
    /// With `--metrics-out`: overwrite the snapshot file with an interval
    /// delta every N batches (a scrape target, not a log).
    pub metrics_every: Option<u64>,
    /// Journal every batch to a write-ahead log in this directory (must
    /// be empty or nonexistent; `mbta recover` reads it back).
    pub wal_dir: Option<PathBuf>,
    /// With `--wal-dir`: write a full-state snapshot every N batches
    /// (`0` = only the final seal).
    pub snapshot_every: u64,
    /// With `--wal-dir`: fsync policy for WAL appends.
    pub fsync: FsyncPolicy,
    /// With `--wal-dir`: group-commit window — buffer N records per
    /// combined WAL write (`1` = write-through).
    pub group_commit: u64,
    /// Event source: the trace itself, or a TCP ingress.
    pub source: Source,
}

/// Options for `mbta follow` (WAL-follower replication).
#[derive(Debug, Clone, PartialEq)]
pub struct FollowOpts {
    /// Trace the primary is serving (defines the universe the promoted
    /// state is validated against).
    pub trace: PathBuf,
    /// The primary's WAL directory (shared filesystem).
    pub wal_dir: PathBuf,
    /// The primary's ingress address: on promotion the follower verifies
    /// the port is actually dead (bind / connect-refused gate) before
    /// taking over. Without it, promotion is gated on the heartbeat only.
    pub listen: Option<String>,
    /// Serve read-only status queries on this address while following.
    pub query_listen: Option<String>,
    /// Heartbeat staleness window in ms: the primary is presumed dead
    /// once its heartbeat file is older than this.
    pub heartbeat_ms: u64,
    /// Tail poll interval in ms.
    pub poll_ms: u64,
    /// How long to wait for the primary's WAL dir + first heartbeat to
    /// appear before giving up.
    pub max_wait_ms: u64,
}

/// What `mbta send` does once connected.
#[derive(Debug, Clone, PartialEq)]
pub enum SendMode {
    /// Query the endpoint's status instead of sending events.
    Status,
    /// Stream a trace's events.
    Trace {
        /// Trace whose events are streamed.
        trace: PathBuf,
        /// Events per `EVENT_BATCH` request.
        batch: usize,
        /// Tenant namespace id stamped on every batch (single-tenant
        /// endpoints ignore it; the cluster router routes by it).
        namespace: u32,
        /// Benefit-drift injection rate in [0, 1], woven exactly as
        /// `serve --drift` would.
        drift: f64,
    },
}

/// Options for `mbta send` (TCP event producer / status probe).
#[derive(Debug, Clone, PartialEq)]
pub struct SendOpts {
    /// Ingress address to connect to.
    pub addr: String,
    /// How long to keep retrying the initial connect (covers starting
    /// the client before the server has bound).
    pub connect_wait_ms: u64,
    /// Status probe, or the trace to stream.
    pub mode: SendMode,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate an instance and persist it.
    Gen {
        /// The market universe to generate.
        spec: WorkloadSpec,
        /// Output path.
        out: PathBuf,
    },
    /// Print dataset statistics of a persisted instance.
    Stats {
        /// Instance path.
        file: PathBuf,
    },
    /// Solve a persisted instance.
    Solve {
        /// Instance path.
        file: PathBuf,
        /// Algorithm to run.
        algorithm: Algorithm,
        /// Mutual-benefit combiner.
        combiner: Combiner,
        /// Whether to print every assigned pair.
        pairs: bool,
        /// Wall-clock budget for the solve; routes through the robust
        /// engine when set.
        deadline_ms: Option<u64>,
        /// Degradation policy; routes through the robust engine when set.
        /// `none` demands the exact tier (non-zero exit otherwise),
        /// `chain` accepts graceful degradation.
        fallback: Option<FallbackMode>,
    },
    /// Run the synthetic fault-injection campaign through the robust
    /// engine (`solve --inject-faults`): adversarial topologies and
    /// poisoned weights, each solved under a deadline.
    FaultCampaign {
        /// Number of fuzzed instances.
        instances: usize,
        /// Per-instance deadline handed to the engine.
        deadline_ms: u64,
        /// Base seed of the campaign.
        seed: u64,
    },
    /// λ-sweep frontier of a persisted instance.
    Sweep {
        /// Instance path.
        file: PathBuf,
        /// Number of λ steps (inclusive endpoints).
        steps: usize,
    },
    /// Egalitarian (bottleneck) solve.
    MaxMin {
        /// Instance path.
        file: PathBuf,
        /// Mutual-benefit combiner.
        combiner: Combiner,
    },
    /// Budget-constrained solve (Lagrangian + greedy comparison). Edge
    /// costs default to uniform 1.0 per assignment, since persisted graphs
    /// carry benefits but not task pay.
    Budget {
        /// Instance path.
        file: PathBuf,
        /// Budget limit.
        limit: f64,
        /// Mutual-benefit combiner.
        combiner: Combiner,
        /// Lagrangian binary-search iterations.
        iters: u32,
    },
    /// Online simulation against the hindsight optimum.
    Online {
        /// Instance path.
        file: PathBuf,
        /// Online policy.
        policy: OnlinePolicy,
        /// Arrival order.
        order: ArrivalOrder,
    },
    /// Solve and print an operator audit report.
    Report {
        /// Instance path.
        file: PathBuf,
        /// Algorithm to run.
        algorithm: Algorithm,
        /// Mutual-benefit combiner.
        combiner: Combiner,
        /// Rows per report section.
        top: usize,
    },
    /// Generate a persisted event trace for the dispatch service.
    GenTrace {
        /// The market universe; its seed also seeds the trace.
        spec: WorkloadSpec,
        /// Trace horizon in abstract time units.
        horizon: f64,
        /// Sessions per worker / postings per task.
        repeats: u32,
        /// Output path.
        out: PathBuf,
    },
    /// Run the dispatch service over a trace with wall-clock budgets.
    Serve(ServeOpts),
    /// Deterministically replay a trace (unbudgeted solves, byte-identical
    /// decision logs across runs).
    Replay(ServeOpts),
    /// Tail a primary's WAL as a warm read-only follower; promote on
    /// primary death (stale heartbeat + dead port).
    Follow(FollowOpts),
    /// Stream a trace's events to a serving ingress over TCP (or query
    /// an endpoint's status with `--status`).
    Send(SendOpts),
    /// Run one cluster shard-owner worker process.
    ShardWorker(WorkerConfig),
    /// Run the cluster router: client admission, placement routing, and
    /// owner fan-out.
    Route(RouterConfig),
    /// Rebuild assignment state from a WAL directory (latest snapshot +
    /// log-tail replay) and verify it against the trace's universe.
    Recover {
        /// Trace the crashed run was serving (rebuilds the universe the
        /// recovered state is validated against).
        trace: PathBuf,
        /// WAL directory of the crashed run.
        wal_dir: PathBuf,
    },
    /// Compare shard-plan quality (hash vs range vs min-cut cut stats)
    /// over a trace's universe at several shard counts.
    PlanStats {
        /// Trace whose universe is partitioned.
        trace: PathBuf,
        /// Shard counts to tabulate.
        shards: Vec<usize>,
    },
    /// Enumerate the k best assignments (Murty).
    TopK {
        /// Instance path.
        file: PathBuf,
        /// How many solutions to list.
        k: usize,
        /// Mutual-benefit combiner.
        combiner: Combiner,
    },
    /// Print usage.
    Help,
}

/// Parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

const EXACT: Algorithm = Algorithm::ExactMB {
    algo: PathAlgo::Dijkstra,
};

fn parse_profile(s: &str) -> Result<Profile, ParseError> {
    match s {
        "uniform" => Ok(Profile::Uniform),
        "zipfian" => Ok(Profile::Zipfian),
        "microtask" => Ok(Profile::Microtask),
        "freelance" => Ok(Profile::Freelance),
        _ => err(format!("unknown profile '{s}'")),
    }
}

fn parse_algorithm(s: &str) -> Result<Algorithm, ParseError> {
    match s {
        "exact" => Ok(EXACT),
        "exact-spfa" => Ok(Algorithm::ExactMB {
            algo: PathAlgo::Spfa,
        }),
        "greedy" => Ok(Algorithm::GreedyMB),
        "local" => Ok(Algorithm::LocalSearch { max_passes: 8 }),
        "quality" => Ok(Algorithm::QualityOnly),
        "worker" => Ok(Algorithm::WorkerOnly),
        "random" => Ok(Algorithm::Random { seed: 0 }),
        "cardinality" => Ok(Algorithm::Cardinality),
        "stable" => Ok(Algorithm::Stable),
        _ => err(format!("unknown algorithm '{s}'")),
    }
}

fn parse_combiner(s: &str) -> Result<Combiner, ParseError> {
    if let Some(l) = s.strip_prefix("linear:") {
        let lambda: f64 = l
            .parse()
            .map_err(|_| ParseError(format!("bad lambda '{l}'")))?;
        if !(0.0..=1.0).contains(&lambda) {
            return err(format!("lambda {lambda} out of [0,1]"));
        }
        return Ok(Combiner::Linear { lambda });
    }
    match s {
        "balanced" => Ok(Combiner::balanced()),
        "harmonic" => Ok(Combiner::Harmonic),
        "min" => Ok(Combiner::Min),
        _ => err(format!(
            "unknown combiner '{s}' (try balanced|harmonic|min|linear:0.7)"
        )),
    }
}

fn parse_fallback(s: &str) -> Result<FallbackMode, ParseError> {
    match s {
        "none" => Ok(FallbackMode::None),
        "chain" => Ok(FallbackMode::Chain),
        _ => err(format!("unknown fallback mode '{s}' (try none|chain)")),
    }
}

fn parse_routing(s: &str) -> Result<Routing, ParseError> {
    match s {
        "hash" => Ok(Routing::HashId),
        "range" => Ok(Routing::Range),
        "min-cut" => Ok(Routing::MinCut),
        _ => err(format!("unknown routing '{s}' (try hash|range|min-cut)")),
    }
}

fn parse_drop_policy(s: &str) -> Result<DropPolicy, ParseError> {
    DropPolicy::parse(s).ok_or_else(|| {
        ParseError(format!(
            "unknown drop policy '{s}' (try drop-newest|drop-oldest|defer)"
        ))
    })
}

fn parse_fsync(s: &str) -> Result<FsyncPolicy, ParseError> {
    FsyncPolicy::parse(s).ok_or_else(|| {
        ParseError(format!(
            "unknown fsync policy '{s}' (try always|batch|never)"
        ))
    })
}

/// Seeded variants come back with seed 0; `online` binds `--seed` after
/// the walk, so the seed may follow the flag it seeds.
fn parse_policy(s: &str) -> Result<OnlinePolicy, ParseError> {
    match s {
        "greedy" => Ok(OnlinePolicy::Greedy),
        "ranking" => Ok(OnlinePolicy::Ranking { seed: 0 }),
        "twophase" => Ok(OnlinePolicy::TwoPhase {
            sample_fraction: 0.5,
            threshold_quantile: 0.5,
        }),
        "threshold" => Ok(OnlinePolicy::RandomThreshold { seed: 0 }),
        _ => err(format!("unknown policy '{s}'")),
    }
}

fn parse_order(s: &str) -> Result<ArrivalOrder, ParseError> {
    match s {
        "id" => Ok(ArrivalOrder::ById),
        "random" => Ok(ArrivalOrder::Random { seed: 0 }),
        "best-first" => Ok(ArrivalOrder::BestFirst),
        "best-last" => Ok(ArrivalOrder::BestLast),
        _ => err(format!("unknown order '{s}'")),
    }
}

/// Range rule of a numeric flag.
#[derive(Debug, Clone, Copy)]
enum Bound {
    Any,
    Ge1,
    Ge2,
    /// `> 0` and finite.
    Positive,
    /// `>= 0` and finite.
    NonNeg,
    /// In `[0, 1]`.
    Unit,
    UpTo100,
}

impl Bound {
    /// The complaint to print after the flag's name when `x` is outside
    /// the bound.
    fn violated(self, x: f64) -> Option<&'static str> {
        let (ok, complaint) = match self {
            Bound::Any => (true, ""),
            Bound::Ge1 => (x >= 1.0, "must be >= 1"),
            Bound::Ge2 => (x >= 2.0, "must be >= 2"),
            Bound::Positive => (x > 0.0 && x.is_finite(), "must be positive and finite"),
            Bound::NonNeg => (x >= 0.0 && x.is_finite(), "must be finite and >= 0"),
            Bound::Unit => ((0.0..=1.0).contains(&x), "must be in [0,1]"),
            Bound::UpTo100 => ((1.0..=100.0).contains(&x), "must be in 1..=100"),
        };
        (!ok).then_some(complaint)
    }
}

/// One occurrence of a value flag: the token that followed it, verbatim.
#[derive(Clone, Copy)]
struct Arg<'a> {
    flag: &'a str,
    text: &'a str,
}

impl Arg<'_> {
    fn num<N: FromStr>(self, bound: Bound) -> Result<N, ParseError> {
        // Whatever one of the number types accepts also reads as an `f64`,
        // which is what the bound is checked on.
        let (Ok(n), Ok(x)) = (self.text.parse::<N>(), self.text.parse::<f64>()) else {
            return err(format!("bad value for {}: '{}'", self.flag, self.text));
        };
        match bound.violated(x) {
            Some(complaint) => err(format!("{} {complaint}", self.flag)),
            None => Ok(n),
        }
    }

    /// A path or a string, taken as is.
    fn text<T: for<'s> From<&'s str>>(self) -> Result<T, ParseError> {
        Ok(self.text.into())
    }

    /// Comma-separated items, trimmed, empty items skipped; at least one.
    fn list<T: for<'s> From<&'s str>>(self, what: &str) -> Result<Vec<T>, ParseError> {
        let items: Vec<T> = (self.text.split(','))
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(T::from)
            .collect();
        if items.is_empty() {
            return err(format!("{} needs a comma list of {what}", self.flag));
        }
        Ok(items)
    }
}

/// The flags that take no value. Every other flag consumes the token after
/// it, whatever that token looks like.
const SWITCHES: [&str; 5] = [
    "--pairs",
    "--inject-faults",
    "--boundary-pass",
    "--online",
    "--status",
];

/// A command's argv after the one walk. The command then reads its options
/// out by name — each read is that flag's one declaration: name, value
/// kind, default and [`Bound`] — and [`Args::finish`] rejects whatever was
/// given but never read.
struct Args<'a> {
    cmd: &'a str,
    /// The leading `FILE` positional, until a command takes it.
    file: Option<&'a str>,
    /// Every flag given with its value (`None` for a switch, or when argv
    /// ended before the value), in argv order.
    given: Vec<(&'a str, Option<&'a str>)>,
    /// Every flag the command has read so far.
    known: Vec<&'static str>,
    /// First absent required flag and first broken cross-flag rule. Both
    /// wait for `finish`, which reports an unknown flag first — the
    /// order a reader of argv would find them in.
    missing: Option<&'static str>,
    rejected: Option<String>,
}

impl<'a> Args<'a> {
    fn walk(cmd: &'a str, tokens: impl Iterator<Item = &'a str>) -> Args<'a> {
        let mut cur = tokens.peekable();
        let file = cur.next_if(|tok| !tok.starts_with("--"));
        let mut given = Vec::new();
        while let Some(flag) = cur.next() {
            given.push((flag, cur.next_if(|_| !SWITCHES.contains(&flag))));
        }
        Args {
            cmd,
            file,
            given,
            known: Vec::new(),
            missing: None,
            rejected: None,
        }
    }

    fn opt_file(&mut self) -> Option<PathBuf> {
        self.file.take().map(PathBuf::from)
    }

    fn file(&mut self) -> Result<PathBuf, ParseError> {
        let cmd = self.cmd;
        (self.opt_file()).ok_or_else(|| ParseError(format!("{cmd} requires a file")))
    }

    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| *flag == name)
    }

    fn switch(&mut self, name: &'static str) -> bool {
        self.known.push(name);
        self.has(name)
    }

    /// Parses every occurrence of `name` in argv order (an early bad value
    /// is an error even when a later one would win) and keeps the last.
    fn last<T>(
        &mut self,
        name: &'static str,
        mut parse: impl FnMut(Arg<'a>) -> Result<T, ParseError>,
    ) -> Result<Option<T>, ParseError> {
        self.known.push(name);
        let mut last = None;
        for &(flag, value) in self.given.iter().filter(|(flag, _)| *flag == name) {
            let Some(text) = value else {
                return err(format!("{flag} needs a value"));
            };
            last = Some(parse(Arg { flag, text })?);
        }
        Ok(last)
    }

    /// Marks `name` as a flag the command cannot run without.
    fn require(&mut self, name: &'static str) {
        if !self.has(name) {
            self.missing.get_or_insert(name);
        }
    }

    /// A required flag's value. When it is absent `finish` fails; until
    /// then the caller holds an empty placeholder.
    fn required<T: Default>(
        &mut self,
        name: &'static str,
        parse: impl FnMut(Arg<'a>) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.require(name);
        Ok(self.last(name, parse)?.unwrap_or_default())
    }

    fn num<N: FromStr>(
        &mut self,
        name: &'static str,
        default: N,
        bound: Bound,
    ) -> Result<N, ParseError> {
        Ok(self.last(name, |v| v.num(bound))?.unwrap_or(default))
    }

    /// A value from a closed vocabulary, parsed by one of the `parse_*`
    /// functions.
    fn named<T>(
        &mut self,
        name: &'static str,
        default: T,
        parse: fn(&str) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        Ok(self.last(name, |v| parse(v.text))?.unwrap_or(default))
    }

    /// Records a broken cross-flag rule (the first one is reported).
    fn reject(&mut self, message: impl Into<String>) {
        self.rejected.get_or_insert(message.into());
    }

    /// Giving `flag` without `other` is rejected.
    fn needs(&mut self, flag: &str, other: &str) {
        if self.has(flag) && !self.has(other) {
            self.reject(format!("{flag} needs {other}"));
        }
    }

    fn finish(self) -> Result<(), ParseError> {
        // A token in flag position is a flag, `--` or not; so is a leading
        // token no command took as its file.
        let tokens = (self.file.iter().copied()).chain(self.given.iter().map(|(flag, _)| *flag));
        for flag in tokens {
            if !self.known.contains(&flag) {
                return err(format!("unknown flag for {}: '{flag}'", self.cmd));
            }
        }
        if let Some(flag) = self.missing {
            return err(format!("{} requires {flag}", self.cmd));
        }
        self.rejected.map_or(Ok(()), err)
    }

    // Flags and option groups that more than one command declares.

    fn trace(&mut self) -> Result<PathBuf, ParseError> {
        self.required("--trace", Arg::text)
    }

    fn routing(&mut self, default: Routing) -> Result<Routing, ParseError> {
        self.named("--routing", default, parse_routing)
    }

    fn queue_cap(&mut self, default: usize) -> Result<usize, ParseError> {
        self.num("--queue-cap", default, Bound::Ge1)
    }

    fn batch(&mut self, default: usize) -> Result<usize, ParseError> {
        self.num("--batch", default, Bound::Ge1)
    }

    fn drift(&mut self) -> Result<f64, ParseError> {
        self.num("--drift", 0.0, Bound::Unit)
    }

    fn combiner(&mut self) -> Result<Combiner, ParseError> {
        self.named("--combiner", Combiner::balanced(), parse_combiner)
    }

    fn algorithm(&mut self) -> Result<Algorithm, ParseError> {
        self.named("--algorithm", EXACT, parse_algorithm)
    }

    /// The market universe of `gen` / `gen-trace`.
    fn universe(&mut self) -> Result<WorkloadSpec, ParseError> {
        let demo = WorkloadSpec::demo(Profile::Uniform);
        Ok(WorkloadSpec {
            profile: self.named("--profile", demo.profile, parse_profile)?,
            n_workers: self.num("--workers", demo.n_workers, Bound::Any)?,
            n_tasks: self.num("--tasks", demo.n_tasks, Bound::Any)?,
            avg_worker_degree: self.num("--degree", demo.avg_worker_degree, Bound::NonNeg)?,
            skill_dims: self.num("--dims", demo.skill_dims, Bound::Ge1)?,
            seed: self.num("--seed", demo.seed, Bound::Any)?,
        })
    }

    /// Durability: the WAL directory, and the knobs that only mean
    /// something with one (each keeps the destination's value when absent).
    fn wal(
        &mut self,
        fsync: &mut FsyncPolicy,
        group_commit: &mut u64,
        snapshot_every: &mut u64,
    ) -> Result<Option<PathBuf>, ParseError> {
        *snapshot_every = self.num("--snapshot-every", *snapshot_every, Bound::Any)?;
        *fsync = self.named("--fsync", *fsync, parse_fsync)?;
        *group_commit = self.num("--group-commit", *group_commit, Bound::Ge1)?;
        let knob_given = ["--snapshot-every", "--fsync", "--group-commit"].map(|k| self.has(k));
        if knob_given.contains(&true) && !self.has("--wal-dir") {
            self.reject("--snapshot-every / --fsync / --group-commit need --wal-dir");
        }
        self.last("--wal-dir", Arg::text)
    }

    /// Per-event online dispatch: whether it is on, and its drift threshold.
    fn online(&mut self) -> Result<(bool, f64), ParseError> {
        self.needs("--drift-threshold", "--online");
        let drift_threshold = self.num("--drift-threshold", 0.2, Bound::Positive)?;
        Ok((self.switch("--online"), drift_threshold))
    }
}

/// `serve` and `replay`: the same options; `replay` then refuses what
/// only a wall-clock or network run can mean.
fn parse_service(a: &mut Args<'_>) -> Result<ServeOpts, ParseError> {
    let (online, drift_threshold) = a.online()?;
    let drift = a.drift()?;
    let replan_threshold = a.last("--replan-threshold", |v| v.num(Bound::Positive))?;
    let listen: Option<String> = a.last("--listen", Arg::text)?;
    if listen.is_some() {
        if a.cmd == "replay" {
            a.reject("--listen only applies to serve (replay is a deterministic re-run)");
        } else if drift > 0.0 {
            a.reject("--listen takes events from the network; put --drift on `mbta send`");
        } else if replan_threshold.is_some() {
            a.reject("--replan-threshold needs a trace-driven run (network serve never re-plans)");
        }
    }
    let mut o = ServeOpts {
        trace: a.trace()?,
        shards: a.num("--shards", 4, Bound::Ge1)?,
        // 0 is allowed: "use the host's available parallelism".
        threads: a.num("--threads", 0, Bound::Any)?,
        batch_max: a.num("--batch-max", 256, Bound::Ge1)?,
        batch_bytes: a.num("--batch-bytes", 64 * 1024, Bound::Ge1)?,
        flush_ms: a.num("--flush-ms", 10.0, Bound::Positive)?,
        queue_cap: a.queue_cap(4096)?,
        drop_policy: a.named("--drop-policy", DropPolicy::Defer, parse_drop_policy)?,
        routing: a.routing(Routing::HashId)?,
        boundary_pass: a.switch("--boundary-pass"),
        online,
        drift_threshold,
        budget_ms: a.num("--budget-ms", 50, Bound::Ge1)?,
        poison_shard: a.last("--poison-shard", |v| v.num(Bound::Any))?,
        max_wall_ms: a.last("--max-wall-ms", |v| v.num(Bound::Any))?,
        decisions: a.last("--decisions", Arg::text)?,
        metrics_out: a.last("--metrics-out", Arg::text)?,
        metrics_every: a.last("--metrics-every", |v| v.num(Bound::Ge1))?,
        wal_dir: None,
        snapshot_every: 64,
        fsync: FsyncPolicy::Batch,
        group_commit: 1,
        source: match listen {
            Some(addr) => Source::Listen(addr),
            None => Source::Trace {
                drift,
                replan_threshold,
            },
        },
    };
    o.wal_dir = a.wal(&mut o.fsync, &mut o.group_commit, &mut o.snapshot_every)?;
    a.needs("--metrics-every", "--metrics-out");
    if let Some(s) = o.poison_shard.filter(|&s| s >= o.shards) {
        let shards = o.shards;
        a.reject(format!("--poison-shard {s} out of range (shards {shards})"));
    }
    if o.online && o.boundary_pass {
        a.reject("--online and --boundary-pass are incompatible (the rescue overlay is a batch construct)");
    }
    if a.cmd == "replay" && a.has("--budget-ms") {
        a.reject("--budget-ms only applies to serve (replay solves are unbudgeted)");
    }
    Ok(o)
}

/// Parses a full command line (without `argv[0]`).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut tokens = args.iter().map(String::as_str);
    let Some(cmd) = tokens.next() else {
        return err("no command given");
    };
    let cmd = if matches!(cmd, "--help" | "-h") {
        "help"
    } else {
        cmd
    };
    let mut a = Args::walk(cmd, tokens);
    let command = match cmd {
        "help" => Command::Help,
        "gen" => {
            a.require("--profile");
            Command::Gen {
                spec: a.universe()?,
                out: a.required("--out", Arg::text)?,
            }
        }
        "stats" => Command::Stats { file: a.file()? },
        "solve" => {
            // `solve --inject-faults` runs on synthetic instances and takes
            // no file; every other form requires one.
            let file = a.opt_file();
            let (algorithm, combiner, pairs) = (a.algorithm()?, a.combiner()?, a.switch("--pairs"));
            let deadline_ms = a.last("--deadline-ms", |v| v.num(Bound::Any))?;
            let fallback = a.last("--fallback", |v| parse_fallback(v.text))?;
            let instances = a.num("--instances", 1_000, Bound::Ge1)?;
            let seed = a.num("--seed", 0, Bound::Any)?;
            if a.switch("--inject-faults") {
                if file.is_some() {
                    a.reject("--inject-faults generates its own instances; drop the file");
                }
                Command::FaultCampaign {
                    instances,
                    deadline_ms: deadline_ms.unwrap_or(50),
                    seed,
                }
            } else {
                let campaign_only = |flag: &&str| ["--instances", "--seed"].contains(flag);
                if let Some(flag) = a.given.iter().rev().map(|(f, _)| *f).find(campaign_only) {
                    a.reject(format!("{flag} only applies with --inject-faults"));
                }
                if file.is_none() {
                    a.reject("solve requires a file (or --inject-faults)");
                }
                Command::Solve {
                    file: file.unwrap_or_default(),
                    algorithm,
                    combiner,
                    pairs,
                    deadline_ms,
                    fallback,
                }
            }
        }
        "gen-trace" => Command::GenTrace {
            spec: a.universe()?,
            horizon: a.num("--horizon", 50.0, Bound::Positive)?,
            repeats: a.num("--repeats", 4, Bound::Ge1)?,
            out: a.required("--out", Arg::text)?,
        },
        "serve" => Command::Serve(parse_service(&mut a)?),
        "replay" => Command::Replay(parse_service(&mut a)?),
        "plan-stats" => {
            let counts = |v: Arg<'_>| {
                let items = v.text.split(',');
                let counts = (items.map(|s| {
                    Arg {
                        text: s.trim(),
                        ..v
                    }
                    .num(Bound::Any)
                }))
                .collect::<Result<Vec<usize>, _>>()?;
                if counts.contains(&0) {
                    return err("--shards needs a comma list of counts >= 1");
                }
                Ok(counts)
            };
            Command::PlanStats {
                trace: a.trace()?,
                shards: (a.last("--shards", counts)?).unwrap_or_else(|| vec![2, 4, 8]),
            }
        }
        "recover" => Command::Recover {
            trace: a.trace()?,
            wal_dir: a.required("--wal-dir", Arg::text)?,
        },
        "follow" => Command::Follow(FollowOpts {
            trace: a.trace()?,
            wal_dir: a.required("--wal-dir", Arg::text)?,
            listen: a.last("--listen", Arg::text)?,
            query_listen: a.last("--query-listen", Arg::text)?,
            heartbeat_ms: a.num("--heartbeat-ms", 1_000, Bound::Ge1)?,
            poll_ms: a.num("--poll-ms", 20, Bound::Ge1)?,
            max_wait_ms: a.num("--max-wait-ms", 10_000, Bound::Any)?,
        }),
        "send" => {
            let addr = a.required("--addr", Arg::text)?;
            let connect_wait_ms = a.num("--connect-wait-ms", 5_000, Bound::Any)?;
            let (batch, drift) = (a.batch(64)?, a.drift()?);
            let namespace = a.num("--namespace", 0, Bound::Any)?;
            let (status, trace) = (a.switch("--status"), a.last("--trace", Arg::text)?);
            match (status, &trace) {
                (true, Some(_)) => a.reject("--status queries the endpoint; drop --trace"),
                (false, None) => a.reject("send requires --trace (or --status)"),
                _ => {}
            }
            let mode = match trace {
                Some(trace) => SendMode::Trace {
                    trace,
                    batch,
                    namespace,
                    drift,
                },
                None => SendMode::Status,
            };
            Command::Send(SendOpts {
                addr,
                connect_wait_ms,
                mode,
            })
        }
        "shard-worker" => {
            let traces = a.required("--traces", |v| v.list("paths"))?;
            let shard = a.required("--shard", |v| v.num(Bound::Any))?;
            let shards = a.required("--shards", |v| v.num(Bound::Ge1))?;
            let mut cfg = WorkerConfig::new(traces, shard, shards);
            cfg.listen = a.last("--listen", Arg::text)?.unwrap_or(cfg.listen);
            cfg.routing = a.routing(cfg.routing)?;
            cfg.placements = a.last("--placements", Arg::text)?;
            cfg.queue_cap = a.queue_cap(cfg.queue_cap)?;
            cfg.threads = a.num("--threads", cfg.threads, Bound::Any)?;
            // 0 is allowed: deterministic (unbudgeted) solves.
            cfg.budget_ms = a.num("--budget-ms", cfg.budget_ms, Bound::Any)?;
            cfg.linger_ms = a.num("--linger-ms", cfg.linger_ms, Bound::Any)?;
            cfg.decisions_dir = a.last("--decisions-dir", Arg::text)?;
            let (online, drift_threshold) = a.online()?;
            cfg.online = online.then_some(drift_threshold);
            cfg.wal_dir = a.wal(
                &mut cfg.fsync,
                &mut cfg.group_commit,
                &mut cfg.snapshot_every,
            )?;
            if shard >= shards {
                a.reject(format!(
                    "--shard {shard} out of range for --shards {shards}"
                ));
            }
            Command::ShardWorker(cfg)
        }
        "route" => {
            let traces = a.required("--traces", |v| v.list("paths"))?;
            let owners = a.required("--owners", |v| v.list("addresses"))?;
            let mut cfg = RouterConfig::new(traces, owners);
            cfg.listen = a.last("--listen", Arg::text)?.unwrap_or(cfg.listen);
            cfg.routing = a.routing(cfg.routing)?;
            cfg.placements = a.last("--placements", Arg::text)?;
            cfg.save_placements = a.last("--save-placements", Arg::text)?;
            cfg.queue_cap = a.queue_cap(cfg.queue_cap)?;
            cfg.batch = a.batch(cfg.batch)?;
            cfg.owner_retry_ms = a.num("--owner-retry-ms", cfg.owner_retry_ms, Bound::Any)?;
            cfg.report_wait_ms = a.num("--report-wait-ms", cfg.report_wait_ms, Bound::Any)?;
            Command::Route(cfg)
        }
        "sweep" => Command::Sweep {
            file: a.file()?,
            steps: a.num("--steps", 11, Bound::Ge2)?,
        },
        "maxmin" => Command::MaxMin {
            file: a.file()?,
            combiner: a.combiner()?,
        },
        "budget" => Command::Budget {
            file: a.file()?,
            limit: a.required("--limit", |v| v.num(Bound::NonNeg))?,
            combiner: a.combiner()?,
            iters: a.num("--iters", 20, Bound::Any)?,
        },
        "online" => {
            // The seed binds late, so `--seed` may follow the flag it seeds.
            let seed = a.num("--seed", 0, Bound::Any)?;
            Command::Online {
                file: a.file()?,
                policy: match a.named("--policy", OnlinePolicy::Greedy, parse_policy)? {
                    OnlinePolicy::Ranking { .. } => OnlinePolicy::Ranking { seed },
                    OnlinePolicy::RandomThreshold { .. } => OnlinePolicy::RandomThreshold { seed },
                    p => p,
                },
                order: match a.named("--order", ArrivalOrder::Random { seed }, parse_order)? {
                    ArrivalOrder::Random { .. } => ArrivalOrder::Random { seed },
                    o => o,
                },
            }
        }
        "report" => Command::Report {
            file: a.file()?,
            algorithm: a.algorithm()?,
            combiner: a.combiner()?,
            top: a.num("--top", 10, Bound::Any)?,
        },
        "topk" => Command::TopK {
            file: a.file()?,
            k: a.num("--k", 5, Bound::UpTo100)?,
            combiner: a.combiner()?,
        },
        other => return err(format!("unknown command '{other}'")),
    };
    a.finish()?;
    Ok(command)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn trace_source(drift: f64, replan_threshold: Option<f64>) -> Source {
        Source::Trace {
            drift,
            replan_threshold,
        }
    }

    #[test]
    fn parses_cluster_commands() {
        let cmd = parse(&sv(&[
            "shard-worker",
            "--traces",
            "a.trace,b.trace",
            "--shard",
            "1",
            "--shards",
            "4",
            "--routing",
            "min-cut",
            "--wal-dir",
            "wal",
            "--group-commit",
            "8",
        ]))
        .unwrap();
        let Command::ShardWorker(o) = cmd else {
            panic!("wrong command: {cmd:?}");
        };
        assert_eq!(
            o.traces,
            vec![PathBuf::from("a.trace"), PathBuf::from("b.trace")]
        );
        assert_eq!((o.shard, o.n_shards), (1, 4));
        assert_eq!(o.routing, Routing::MinCut);
        assert_eq!(o.group_commit, 8);
        assert_eq!(o.listen, "127.0.0.1:0");

        let cmd = parse(&sv(&[
            "route",
            "--traces",
            "a.trace",
            "--owners",
            "127.0.0.1:7001, 127.0.0.1:7002",
            "--owner-retry-ms",
            "500",
        ]))
        .unwrap();
        let Command::Route(o) = cmd else {
            panic!("wrong command: {cmd:?}");
        };
        assert_eq!(o.owners, vec!["127.0.0.1:7001", "127.0.0.1:7002"]);
        assert_eq!(o.owner_retry_ms, 500);

        // Validation: shard range, required flags, wal-gated flags.
        assert!(parse(&sv(&[
            "shard-worker",
            "--traces",
            "t",
            "--shard",
            "4",
            "--shards",
            "4"
        ]))
        .is_err());
        assert!(parse(&sv(&[
            "shard-worker",
            "--traces",
            "t",
            "--shard",
            "0",
            "--shards",
            "2",
            "--group-commit",
            "4"
        ]))
        .is_err());
        assert!(parse(&sv(&["route", "--traces", "t"])).is_err());
        assert!(parse(&sv(&["route", "--owners", "x:1"])).is_err());
    }

    #[test]
    fn parses_gen() {
        let cmd = parse(&sv(&[
            "gen",
            "--profile",
            "freelance",
            "--workers",
            "100",
            "--out",
            "x.mbta",
        ]))
        .unwrap();
        match cmd {
            Command::Gen { spec, out } => {
                assert_eq!(spec.profile, Profile::Freelance);
                assert_eq!(spec.n_workers, 100);
                assert_eq!(spec.n_tasks, 500); // default
                assert_eq!(out, PathBuf::from("x.mbta"));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn gen_requires_profile_and_out() {
        assert!(parse(&sv(&["gen", "--out", "x"])).is_err());
        assert!(parse(&sv(&["gen", "--profile", "uniform"])).is_err());
    }

    #[test]
    fn parses_solve_with_options() {
        let cmd = parse(&sv(&[
            "solve",
            "m.mbta",
            "--algorithm",
            "greedy",
            "--combiner",
            "linear:0.7",
            "--pairs",
        ]))
        .unwrap();
        match cmd {
            Command::Solve {
                algorithm,
                combiner,
                pairs,
                ..
            } => {
                assert_eq!(algorithm, Algorithm::GreedyMB);
                assert_eq!(combiner, Combiner::Linear { lambda: 0.7 });
                assert!(pairs);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_robust_solve_flags() {
        match parse(&sv(&[
            "solve",
            "m.mbta",
            "--deadline-ms",
            "50",
            "--fallback",
            "chain",
        ]))
        .unwrap()
        {
            Command::Solve {
                deadline_ms,
                fallback,
                ..
            } => {
                assert_eq!(deadline_ms, Some(50));
                assert_eq!(fallback, Some(FallbackMode::Chain));
            }
            _ => panic!("wrong command"),
        }
        match parse(&sv(&["solve", "m.mbta", "--fallback", "none"])).unwrap() {
            Command::Solve { fallback, .. } => {
                assert_eq!(fallback, Some(FallbackMode::None));
            }
            _ => panic!("wrong command"),
        }
        match parse(&sv(&["solve", "m.mbta"])).unwrap() {
            Command::Solve {
                deadline_ms,
                fallback,
                ..
            } => {
                assert_eq!(deadline_ms, None);
                assert_eq!(fallback, None);
            }
            _ => panic!("wrong command"),
        }
        // --fallback is value-taking now; bare or unknown values fail.
        assert!(parse(&sv(&["solve", "m.mbta", "--fallback"])).is_err());
        assert!(parse(&sv(&["solve", "m.mbta", "--fallback", "maybe"])).is_err());
    }

    #[test]
    fn parses_gen_trace() {
        match parse(&sv(&[
            "gen-trace",
            "--out",
            "t.trace",
            "--workers",
            "800",
            "--tasks",
            "500",
            "--repeats",
            "4",
            "--horizon",
            "60",
        ]))
        .unwrap()
        {
            Command::GenTrace {
                spec,
                repeats,
                horizon,
                out,
            } => {
                assert_eq!(spec.n_workers, 800);
                assert_eq!(spec.n_tasks, 500);
                assert_eq!(repeats, 4);
                assert_eq!(horizon, 60.0);
                assert_eq!(out, PathBuf::from("t.trace"));
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["gen-trace"])).is_err()); // needs --out
        assert!(parse(&sv(&["gen-trace", "--out", "t", "--repeats", "0"])).is_err());
        assert!(parse(&sv(&["gen-trace", "--out", "t", "--horizon", "nan"])).is_err());
    }

    #[test]
    fn parses_serve_and_replay() {
        match parse(&sv(&[
            "serve",
            "--trace",
            "t.trace",
            "--batch-max",
            "256",
            "--flush-ms",
            "10",
            "--shards",
            "4",
            "--threads",
            "2",
            "--drop-policy",
            "drop-oldest",
            "--routing",
            "range",
            "--drift",
            "0.2",
            "--poison-shard",
            "2",
            "--decisions",
            "out.log",
            "--metrics-out",
            "m.prom",
            "--metrics-every",
            "50",
        ]))
        .unwrap()
        {
            Command::Serve(o) => {
                assert_eq!(o.trace, PathBuf::from("t.trace"));
                assert_eq!(o.batch_max, 256);
                assert_eq!(o.flush_ms, 10.0);
                assert_eq!(o.shards, 4);
                assert_eq!(o.threads, 2);
                assert_eq!(o.drop_policy, DropPolicy::DropOldest);
                assert_eq!(o.routing, Routing::Range);
                assert_eq!(o.source, trace_source(0.2, None));
                assert_eq!(o.poison_shard, Some(2));
                assert_eq!(o.decisions, Some(PathBuf::from("out.log")));
                assert_eq!(o.metrics_out, Some(PathBuf::from("m.prom")));
                assert_eq!(o.metrics_every, Some(50));
            }
            _ => panic!("wrong command"),
        }
        match parse(&sv(&["replay", "--trace", "t.trace"])).unwrap() {
            Command::Replay(o) => {
                // Defaults.
                assert_eq!(o.shards, 4);
                assert_eq!(o.threads, 0, "--threads defaults to host parallelism");
                assert_eq!(o.batch_max, 256);
                assert_eq!(o.drop_policy, DropPolicy::Defer);
                assert_eq!(o.routing, Routing::HashId);
                assert_eq!(o.source, trace_source(0.0, None));
                assert_eq!(o.metrics_out, None);
                assert_eq!(o.metrics_every, None);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["serve"])).is_err()); // needs --trace
        assert!(parse(&sv(&["serve", "--trace", "t", "--shards", "0"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--drift", "1.5"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--drop-policy", "yolo"])).is_err());
        // Poison shard must be inside the shard range.
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--shards",
            "2",
            "--poison-shard",
            "2"
        ]))
        .is_err());
        // Interval scraping needs a file to scrape into, and a period >= 1.
        assert!(parse(&sv(&["serve", "--trace", "t", "--metrics-every", "5"])).is_err());
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--metrics-out",
            "m.prom",
            "--metrics-every",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn parses_partition_flags() {
        match parse(&sv(&[
            "serve",
            "--trace",
            "t.trace",
            "--routing",
            "min-cut",
            "--boundary-pass",
            "--replan-threshold",
            "0.05",
        ]))
        .unwrap()
        {
            Command::Serve(o) => {
                assert_eq!(o.routing, Routing::MinCut);
                assert!(o.boundary_pass);
                assert_eq!(o.source, trace_source(0.0, Some(0.05)));
            }
            _ => panic!("wrong command"),
        }
        // Defaults: hash routing, no rescue, no re-planning.
        match parse(&sv(&["replay", "--trace", "t.trace"])).unwrap() {
            Command::Replay(o) => {
                assert!(!o.boundary_pass);
                assert_eq!(o.source, trace_source(0.0, None));
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["serve", "--trace", "t", "--routing", "mincut"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--replan-threshold", "0"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--replan-threshold", "nan"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--replan-threshold", "-1"])).is_err());
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--listen",
            ":1",
            "--replan-threshold",
            "0.1"
        ]))
        .is_err());
    }

    #[test]
    fn parses_online_flags() {
        match parse(&sv(&[
            "serve",
            "--trace",
            "t.trace",
            "--online",
            "--drift-threshold",
            "0.35",
        ]))
        .unwrap()
        {
            Command::Serve(o) => {
                assert!(o.online);
                assert_eq!(o.drift_threshold, 0.35);
            }
            _ => panic!("wrong command"),
        }
        // Defaults: batch mode, threshold present but inert.
        match parse(&sv(&["serve", "--trace", "t.trace"])).unwrap() {
            Command::Serve(o) => {
                assert!(!o.online);
                assert_eq!(o.drift_threshold, 0.2);
            }
            _ => panic!("wrong command"),
        }
        // `replay` accepts the online flags (a deterministic online re-run).
        match parse(&sv(&["replay", "--trace", "t.trace", "--online"])).unwrap() {
            Command::Replay(o) => assert!(o.online),
            _ => panic!("wrong command"),
        }
        // The threshold needs the mode, must be positive/finite, and the
        // rescue overlay is batch-only.
        assert!(parse(&sv(&["serve", "--trace", "t", "--drift-threshold", "0.1"])).is_err());
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--online",
            "--drift-threshold",
            "0"
        ]))
        .is_err());
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--online",
            "--drift-threshold",
            "inf"
        ]))
        .is_err());
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--online",
            "--boundary-pass"
        ]))
        .is_err());
    }

    #[test]
    fn parses_plan_stats() {
        match parse(&sv(&["plan-stats", "--trace", "t.trace"])).unwrap() {
            Command::PlanStats { trace, shards } => {
                assert_eq!(trace, PathBuf::from("t.trace"));
                assert_eq!(shards, vec![2, 4, 8]);
            }
            _ => panic!("wrong command"),
        }
        match parse(&sv(&["plan-stats", "--trace", "t", "--shards", "1,4,16"])).unwrap() {
            Command::PlanStats { shards, .. } => assert_eq!(shards, vec![1, 4, 16]),
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["plan-stats"])).is_err());
        assert!(parse(&sv(&["plan-stats", "--trace", "t", "--shards", "4,0"])).is_err());
        assert!(parse(&sv(&["plan-stats", "--trace", "t", "--shards", "x"])).is_err());
        assert!(parse(&sv(&["plan-stats", "--trace", "t", "--bogus"])).is_err());
    }

    #[test]
    fn parses_durability_flags() {
        match parse(&sv(&[
            "serve",
            "--trace",
            "t.trace",
            "--wal-dir",
            "/tmp/wal",
            "--snapshot-every",
            "16",
            "--fsync",
            "always",
            "--group-commit",
            "8",
        ]))
        .unwrap()
        {
            Command::Serve(o) => {
                assert_eq!(o.wal_dir, Some(PathBuf::from("/tmp/wal")));
                assert_eq!(o.snapshot_every, 16);
                assert_eq!(o.fsync, FsyncPolicy::Always);
                assert_eq!(o.group_commit, 8);
            }
            _ => panic!("wrong command"),
        }
        // Defaults: no WAL, batch fsync, snapshot every 64 batches,
        // write-through appends.
        match parse(&sv(&["serve", "--trace", "t.trace"])).unwrap() {
            Command::Serve(o) => {
                assert_eq!(o.wal_dir, None);
                assert_eq!(o.snapshot_every, 64);
                assert_eq!(o.fsync, FsyncPolicy::Batch);
                assert_eq!(o.group_commit, 1);
            }
            _ => panic!("wrong command"),
        }
        // Durability tuning knobs require the WAL itself.
        assert!(parse(&sv(&["serve", "--trace", "t", "--fsync", "never"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--snapshot-every", "8"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--group-commit", "8"])).is_err());
        // A zero window would never flush.
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--wal-dir",
            "/tmp/w",
            "--group-commit",
            "0"
        ]))
        .is_err());
        // And the fsync policy must be a known one.
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--wal-dir",
            "/tmp/w",
            "--fsync",
            "sometimes"
        ]))
        .is_err());
    }

    #[test]
    fn parses_recover() {
        match parse(&sv(&[
            "recover",
            "--trace",
            "t.trace",
            "--wal-dir",
            "/tmp/wal",
        ]))
        .unwrap()
        {
            Command::Recover { trace, wal_dir } => {
                assert_eq!(trace, PathBuf::from("t.trace"));
                assert_eq!(wal_dir, PathBuf::from("/tmp/wal"));
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["recover", "--trace", "t"])).is_err());
        assert!(parse(&sv(&["recover", "--wal-dir", "/tmp/wal"])).is_err());
        assert!(parse(&sv(&[
            "recover",
            "--trace",
            "t",
            "--wal-dir",
            "w",
            "--bogus"
        ]))
        .is_err());
    }

    #[test]
    fn parses_listen_follow_send() {
        match parse(&sv(&[
            "serve",
            "--trace",
            "t.trace",
            "--listen",
            "127.0.0.1:7700",
        ]))
        .unwrap()
        {
            Command::Serve(o) => assert_eq!(o.source, Source::Listen("127.0.0.1:7700".into())),
            _ => panic!("wrong command"),
        }
        // Network ingress is serve-only, and drift belongs to the sender.
        assert!(parse(&sv(&["replay", "--trace", "t", "--listen", ":1"])).is_err());
        assert!(parse(&sv(&[
            "serve", "--trace", "t", "--listen", ":1", "--drift", "0.2"
        ]))
        .is_err());

        match parse(&sv(&[
            "follow",
            "--trace",
            "t.trace",
            "--wal-dir",
            "/tmp/wal",
            "--listen",
            "127.0.0.1:7700",
            "--query-listen",
            "127.0.0.1:7701",
            "--heartbeat-ms",
            "400",
            "--poll-ms",
            "10",
            "--max-wait-ms",
            "3000",
        ]))
        .unwrap()
        {
            Command::Follow(o) => {
                assert_eq!(o.trace, PathBuf::from("t.trace"));
                assert_eq!(o.wal_dir, PathBuf::from("/tmp/wal"));
                assert_eq!(o.listen.as_deref(), Some("127.0.0.1:7700"));
                assert_eq!(o.query_listen.as_deref(), Some("127.0.0.1:7701"));
                assert_eq!(o.heartbeat_ms, 400);
                assert_eq!(o.poll_ms, 10);
                assert_eq!(o.max_wait_ms, 3000);
            }
            _ => panic!("wrong command"),
        }
        // Defaults.
        match parse(&sv(&["follow", "--trace", "t", "--wal-dir", "w"])).unwrap() {
            Command::Follow(o) => {
                assert_eq!(o.listen, None);
                assert_eq!(o.heartbeat_ms, 1_000);
                assert_eq!(o.poll_ms, 20);
                assert_eq!(o.max_wait_ms, 10_000);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["follow", "--wal-dir", "w"])).is_err());
        assert!(parse(&sv(&["follow", "--trace", "t"])).is_err());
        assert!(parse(&sv(&[
            "follow",
            "--trace",
            "t",
            "--wal-dir",
            "w",
            "--heartbeat-ms",
            "0"
        ]))
        .is_err());

        match parse(&sv(&[
            "send",
            "--addr",
            "127.0.0.1:7700",
            "--trace",
            "t.trace",
            "--batch",
            "32",
            "--drift",
            "0.1",
        ]))
        .unwrap()
        {
            Command::Send(o) => {
                assert_eq!(o.addr, "127.0.0.1:7700");
                assert_eq!(
                    o.mode,
                    SendMode::Trace {
                        trace: PathBuf::from("t.trace"),
                        batch: 32,
                        namespace: 0,
                        drift: 0.1,
                    }
                );
            }
            _ => panic!("wrong command"),
        }
        match parse(&sv(&["send", "--addr", ":7700", "--status"])).unwrap() {
            Command::Send(o) => assert_eq!(o.mode, SendMode::Status),
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["send", "--trace", "t"])).is_err()); // needs --addr
        assert!(parse(&sv(&["send", "--addr", ":1"])).is_err()); // trace or status
        assert!(parse(&sv(&["send", "--addr", ":1", "--trace", "t", "--status"])).is_err());
        assert!(parse(&sv(&[
            "send", "--addr", ":1", "--trace", "t", "--batch", "0"
        ]))
        .is_err());
    }

    #[test]
    fn parses_fault_campaign() {
        match parse(&sv(&[
            "solve",
            "--inject-faults",
            "--instances",
            "200",
            "--deadline-ms",
            "25",
            "--seed",
            "7",
        ]))
        .unwrap()
        {
            Command::FaultCampaign {
                instances,
                deadline_ms,
                seed,
            } => {
                assert_eq!(instances, 200);
                assert_eq!(deadline_ms, 25);
                assert_eq!(seed, 7);
            }
            _ => panic!("wrong command"),
        }
        // Deadline defaults to the CI smoke budget of 50 ms.
        assert!(matches!(
            parse(&sv(&["solve", "--inject-faults"])).unwrap(),
            Command::FaultCampaign {
                instances: 1000,
                deadline_ms: 50,
                seed: 0,
            }
        ));
        // A file and the campaign are mutually exclusive; campaign-only
        // flags need --inject-faults; plain solve still needs a file.
        assert!(parse(&sv(&["solve", "m.mbta", "--inject-faults"])).is_err());
        assert!(parse(&sv(&["solve", "m.mbta", "--instances", "5"])).is_err());
        assert!(parse(&sv(&["solve", "m.mbta", "--seed", "5"])).is_err());
        assert!(parse(&sv(&["solve"])).is_err());
        assert!(parse(&sv(&["solve", "--inject-faults", "--instances", "0"])).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&sv(&["solve", "f", "--combiner", "linear:1.5"])).is_err());
        assert!(parse(&sv(&["solve", "f", "--algorithm", "nope"])).is_err());
        assert!(parse(&sv(&["gen", "--profile", "nope", "--out", "x"])).is_err());
        assert!(parse(&sv(&["frobnicate"])).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&sv(&["sweep", "f", "--steps", "1"])).is_err());
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse(&sv(&[h])).unwrap(), Command::Help);
        }
    }

    #[test]
    fn parses_maxmin_budget_online() {
        assert!(matches!(
            parse(&sv(&["maxmin", "m.mbta", "--combiner", "min"])).unwrap(),
            Command::MaxMin {
                combiner: Combiner::Min,
                ..
            }
        ));
        match parse(&sv(&[
            "budget", "m.mbta", "--limit", "12.5", "--iters", "9",
        ]))
        .unwrap()
        {
            Command::Budget { limit, iters, .. } => {
                assert_eq!(limit, 12.5);
                assert_eq!(iters, 9);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["budget", "m.mbta"])).is_err()); // missing --limit
        match parse(&sv(&[
            "online",
            "m.mbta",
            "--policy",
            "threshold",
            "--order",
            "best-last",
            "--seed",
            "7",
        ]))
        .unwrap()
        {
            Command::Online { policy, order, .. } => {
                assert_eq!(policy, OnlinePolicy::RandomThreshold { seed: 7 });
                assert_eq!(order, ArrivalOrder::BestLast);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["online", "m.mbta", "--policy", "nope"])).is_err());
        assert!(parse(&sv(&["online", "m.mbta", "--order", "nope"])).is_err());
    }

    #[test]
    fn parses_report() {
        match parse(&sv(&[
            "report",
            "m.mbta",
            "--top",
            "5",
            "--algorithm",
            "greedy",
        ]))
        .unwrap()
        {
            Command::Report { top, algorithm, .. } => {
                assert_eq!(top, 5);
                assert_eq!(algorithm, Algorithm::GreedyMB);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_topk() {
        match parse(&sv(&["topk", "m.mbta", "--k", "3"])).unwrap() {
            Command::TopK { k, .. } => assert_eq!(k, 3),
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["topk", "m.mbta", "--k", "0"])).is_err());
        assert!(parse(&sv(&["topk", "m.mbta", "--k", "1000"])).is_err());
    }

    /// Every distinct message the parser can produce, one row per message
    /// per command, captured at the commit before the parser became
    /// table-driven. A row changes only in a PR that means to change the
    /// CLI's behaviour.
    #[test]
    fn golden_error_messages() {
        const WAL_NEED: &str = "--snapshot-every / --fsync / --group-commit need --wal-dir";
        let rows: &[(&str, &str)] = &[
            ("", "no command given"),
            ("frobnicate", "unknown command 'frobnicate'"),
            // gen
            ("gen --bogus", "unknown flag for gen: '--bogus'"),
            ("gen --profile", "--profile needs a value"),
            ("gen --profile nope --out x", "unknown profile 'nope'"),
            ("gen --out x", "gen requires --profile"),
            ("gen --profile uniform", "gen requires --out"),
            ("gen --workers x", "bad value for --workers: 'x'"),
            ("gen --seed -1", "bad value for --seed: '-1'"),
            // stats
            ("stats", "stats requires a file"),
            // solve
            ("solve f --bogus", "unknown flag for solve: '--bogus'"),
            ("solve f --algorithm", "--algorithm needs a value"),
            ("solve f --algorithm nope", "unknown algorithm 'nope'"),
            (
                "solve f --combiner nope",
                "unknown combiner 'nope' (try balanced|harmonic|min|linear:0.7)",
            ),
            ("solve f --combiner linear:x", "bad lambda 'x'"),
            ("solve f --combiner linear:1.5", "lambda 1.5 out of [0,1]"),
            (
                "solve f --fallback maybe",
                "unknown fallback mode 'maybe' (try none|chain)",
            ),
            ("solve f --deadline-ms x", "bad value for --deadline-ms: 'x'"),
            ("solve f --pairs --pairs --combiner --pairs", "unknown combiner '--pairs' (try balanced|harmonic|min|linear:0.7)"),
            ("solve --inject-faults --instances 0", "--instances must be >= 1"),
            (
                "solve f --inject-faults",
                "--inject-faults generates its own instances; drop the file",
            ),
            (
                "solve f --instances 5",
                "--instances only applies with --inject-faults",
            ),
            ("solve f --seed 5", "--seed only applies with --inject-faults"),
            ("solve", "solve requires a file (or --inject-faults)"),
            ("solve --pairs", "solve requires a file (or --inject-faults)"),
            // gen-trace
            ("gen-trace --bogus", "unknown flag for gen-trace: '--bogus'"),
            ("gen-trace", "gen-trace requires --out"),
            ("gen-trace --out", "--out needs a value"),
            ("gen-trace --out t --profile nope", "unknown profile 'nope'"),
            (
                "gen-trace --out t --horizon nan",
                "--horizon must be positive and finite",
            ),
            (
                "gen-trace --out t --horizon 0",
                "--horizon must be positive and finite",
            ),
            ("gen-trace --out t --repeats 0", "--repeats must be >= 1"),
            ("gen-trace --out t --repeats x", "bad value for --repeats: 'x'"),
            // serve
            ("serve --trace t --bogus", "unknown flag for serve: '--bogus'"),
            ("serve", "serve requires --trace"),
            ("serve --trace", "--trace needs a value"),
            ("serve --trace t --shards x", "bad value for --shards: 'x'"),
            ("serve --trace t --shards --online", "bad value for --shards: '--online'"),
            ("serve --trace t --shards 0", "--shards must be >= 1"),
            ("serve --trace t --threads -1", "bad value for --threads: '-1'"),
            ("serve --trace t --batch-max 0", "--batch-max must be >= 1"),
            ("serve --trace t --batch-bytes 0", "--batch-bytes must be >= 1"),
            (
                "serve --trace t --flush-ms 0",
                "--flush-ms must be positive and finite",
            ),
            (
                "serve --trace t --flush-ms inf",
                "--flush-ms must be positive and finite",
            ),
            ("serve --trace t --queue-cap 0", "--queue-cap must be >= 1"),
            (
                "serve --trace t --drop-policy yolo",
                "unknown drop policy 'yolo' (try drop-newest|drop-oldest|defer)",
            ),
            (
                "serve --trace t --routing mincut",
                "unknown routing 'mincut' (try hash|range|min-cut)",
            ),
            (
                "serve --trace t --replan-threshold 0",
                "--replan-threshold must be positive and finite",
            ),
            (
                "serve --trace t --online --drift-threshold 0",
                "--drift-threshold must be positive and finite",
            ),
            (
                "serve --trace t --online --drift-threshold inf",
                "--drift-threshold must be positive and finite",
            ),
            ("serve --trace t --budget-ms 0", "--budget-ms must be >= 1"),
            ("serve --trace t --drift 1.5", "--drift must be in [0,1]"),
            ("serve --trace t --drift nan", "--drift must be in [0,1]"),
            (
                "serve --trace t --poison-shard x",
                "bad value for --poison-shard: 'x'",
            ),
            (
                "serve --trace t --poison-shard 5",
                "--poison-shard 5 out of range (shards 4)",
            ),
            (
                "serve --trace t --shards 2 --poison-shard 2",
                "--poison-shard 2 out of range (shards 2)",
            ),
            (
                "serve --trace t --max-wall-ms x",
                "bad value for --max-wall-ms: 'x'",
            ),
            (
                "serve --trace t --metrics-every 5",
                "--metrics-every needs --metrics-out",
            ),
            (
                "serve --trace t --metrics-out m --metrics-every 0",
                "--metrics-every must be >= 1",
            ),
            ("serve --trace t --snapshot-every 8", WAL_NEED),
            ("serve --trace t --fsync never", WAL_NEED),
            ("serve --trace t --group-commit 8", WAL_NEED),
            (
                "serve --trace t --wal-dir w --group-commit 0",
                "--group-commit must be >= 1",
            ),
            (
                "serve --trace t --wal-dir w --fsync sometimes",
                "unknown fsync policy 'sometimes' (try always|batch|never)",
            ),
            (
                "serve --trace t --online --boundary-pass",
                "--online and --boundary-pass are incompatible (the rescue overlay is a batch construct)",
            ),
            (
                "serve --trace t --drift-threshold 0.1",
                "--drift-threshold needs --online",
            ),
            (
                "serve --trace t --listen :1 --drift 0.2",
                "--listen takes events from the network; put --drift on `mbta send`",
            ),
            (
                "serve --trace t --listen :1 --replan-threshold 0.1",
                "--replan-threshold needs a trace-driven run (network serve never re-plans)",
            ),
            // replay
            ("replay --trace t --bogus", "unknown flag for replay: '--bogus'"),
            ("replay", "replay requires --trace"),
            ("replay --trace t --shards 0", "--shards must be >= 1"),
            (
                "replay --trace t --drift-threshold 0.1",
                "--drift-threshold needs --online",
            ),
            ("replay --trace t --fsync never", WAL_NEED),
            (
                "replay --trace t --metrics-every 5",
                "--metrics-every needs --metrics-out",
            ),
            (
                "replay --trace t --poison-shard 4",
                "--poison-shard 4 out of range (shards 4)",
            ),
            (
                "replay --trace t --listen :1",
                "--listen only applies to serve (replay is a deterministic re-run)",
            ),
            // plan-stats
            (
                "plan-stats --trace t --bogus",
                "unknown flag for plan-stats: '--bogus'",
            ),
            ("plan-stats", "plan-stats requires --trace"),
            ("plan-stats --trace t --shards", "--shards needs a value"),
            (
                "plan-stats --trace t --shards 4,0",
                "--shards needs a comma list of counts >= 1",
            ),
            ("plan-stats --trace t --shards x", "bad value for --shards: 'x'"),
            ("plan-stats --trace t --shards 2,,4", "bad value for --shards: ''"),
            // recover
            (
                "recover --trace t --wal-dir w --bogus",
                "unknown flag for recover: '--bogus'",
            ),
            ("recover --wal-dir w", "recover requires --trace"),
            ("recover --trace t", "recover requires --wal-dir"),
            ("recover --trace t --wal-dir", "--wal-dir needs a value"),
            // follow
            ("follow --bogus", "unknown flag for follow: '--bogus'"),
            ("follow --wal-dir w", "follow requires --trace"),
            ("follow --trace t", "follow requires --wal-dir"),
            ("follow --trace t --wal-dir w --listen", "--listen needs a value"),
            (
                "follow --trace t --wal-dir w --heartbeat-ms 0",
                "--heartbeat-ms must be >= 1",
            ),
            (
                "follow --trace t --wal-dir w --poll-ms 0",
                "--poll-ms must be >= 1",
            ),
            (
                "follow --trace t --wal-dir w --max-wait-ms x",
                "bad value for --max-wait-ms: 'x'",
            ),
            // send
            ("send --bogus", "unknown flag for send: '--bogus'"),
            ("send --trace t", "send requires --addr"),
            ("send --addr", "--addr needs a value"),
            ("send --addr :1", "send requires --trace (or --status)"),
            (
                "send --addr :1 --trace t --status",
                "--status queries the endpoint; drop --trace",
            ),
            ("send --addr :1 --trace t --batch 0", "--batch must be >= 1"),
            (
                "send --addr :1 --trace t --drift -0.1",
                "--drift must be in [0,1]",
            ),
            (
                "send --addr :1 --trace t --namespace -1",
                "bad value for --namespace: '-1'",
            ),
            (
                "send --addr :1 --trace t --connect-wait-ms x",
                "bad value for --connect-wait-ms: 'x'",
            ),
            // shard-worker
            (
                "shard-worker --bogus",
                "unknown flag for shard-worker: '--bogus'",
            ),
            (
                "shard-worker --shard 0 --shards 2",
                "shard-worker requires --traces",
            ),
            (
                "shard-worker --traces t --shards 2",
                "shard-worker requires --shard",
            ),
            (
                "shard-worker --traces t --shard 0",
                "shard-worker requires --shards",
            ),
            ("shard-worker --traces", "--traces needs a value"),
            (
                "shard-worker --traces , --shard 0 --shards 2",
                "--traces needs a comma list of paths",
            ),
            (
                "shard-worker --traces t --shard 0 --shards 0",
                "--shards must be >= 1",
            ),
            (
                "shard-worker --traces t --shard x --shards 2",
                "bad value for --shard: 'x'",
            ),
            (
                "shard-worker --traces t --shard 4 --shards 4",
                "--shard 4 out of range for --shards 4",
            ),
            (
                "shard-worker --traces t --shard 0 --shards 2 --routing x",
                "unknown routing 'x' (try hash|range|min-cut)",
            ),
            (
                "shard-worker --traces t --shard 0 --shards 2 --group-commit 4",
                WAL_NEED,
            ),
            (
                "shard-worker --traces t --shard 0 --shards 2 --fsync always",
                WAL_NEED,
            ),
            (
                "shard-worker --traces t --shard 0 --shards 2 --snapshot-every 0",
                WAL_NEED,
            ),
            (
                "shard-worker --traces t --shard 0 --shards 2 --wal-dir w --group-commit 0",
                "--group-commit must be >= 1",
            ),
            (
                "shard-worker --traces t --shard 0 --shards 2 --wal-dir w --fsync x",
                "unknown fsync policy 'x' (try always|batch|never)",
            ),
            (
                "shard-worker --traces t --shard 0 --shards 2 --queue-cap 0",
                "--queue-cap must be >= 1",
            ),
            (
                "shard-worker --traces t --shard 0 --shards 2 --linger-ms x",
                "bad value for --linger-ms: 'x'",
            ),
            // route
            ("route --bogus", "unknown flag for route: '--bogus'"),
            ("route --owners x:1", "route requires --traces"),
            ("route --traces t", "route requires --owners"),
            ("route --traces t --owners", "--owners needs a value"),
            (
                "route --traces t --owners ,",
                "--owners needs a comma list of addresses",
            ),
            (
                "route --traces , --owners x:1",
                "--traces needs a comma list of paths",
            ),
            (
                "route --traces t --owners x:1 --routing x",
                "unknown routing 'x' (try hash|range|min-cut)",
            ),
            (
                "route --traces t --owners x:1 --queue-cap 0",
                "--queue-cap must be >= 1",
            ),
            ("route --traces t --owners x:1 --batch 0", "--batch must be >= 1"),
            (
                "route --traces t --owners x:1 --owner-retry-ms x",
                "bad value for --owner-retry-ms: 'x'",
            ),
            (
                "route --traces t --owners x:1 --report-wait-ms -5",
                "bad value for --report-wait-ms: '-5'",
            ),
            // sweep
            ("sweep", "sweep requires a file"),
            ("sweep f --bogus", "unknown flag for sweep: '--bogus'"),
            ("sweep f --steps", "--steps needs a value"),
            ("sweep f --steps 1", "--steps must be >= 2"),
            ("sweep f --steps --steps", "bad value for --steps: '--steps'"),
            // maxmin
            ("maxmin", "maxmin requires a file"),
            ("maxmin f --bogus", "unknown flag for maxmin: '--bogus'"),
            (
                "maxmin f --combiner --combiner",
                "unknown combiner '--combiner' (try balanced|harmonic|min|linear:0.7)",
            ),
            // budget
            ("budget", "budget requires a file"),
            ("budget f --bogus", "unknown flag for budget: '--bogus'"),
            ("budget f", "budget requires --limit"),
            ("budget f --limit -1", "--limit must be finite and >= 0"),
            ("budget f --limit inf", "--limit must be finite and >= 0"),
            ("budget f --limit x", "bad value for --limit: 'x'"),
            ("budget f --limit 3 --iters x", "bad value for --iters: 'x'"),
            // online
            ("online", "online requires a file"),
            ("online f --bogus", "unknown flag for online: '--bogus'"),
            ("online f --policy nope", "unknown policy 'nope'"),
            ("online f --order nope", "unknown order 'nope'"),
            ("online f --seed --seed", "bad value for --seed: '--seed'"),
            // report
            ("report", "report requires a file"),
            ("report f --bogus", "unknown flag for report: '--bogus'"),
            ("report f --algorithm nope", "unknown algorithm 'nope'"),
            ("report f --top --top", "bad value for --top: '--top'"),
            // topk
            ("topk", "topk requires a file"),
            ("topk f --bogus", "unknown flag for topk: '--bogus'"),
            ("topk f --k 0", "--k must be in 1..=100"),
            ("topk f --k 101", "--k must be in 1..=100"),
            ("topk f --k --k", "bad value for --k: '--k'"),
        ];
        for (line, want) in rows {
            let argv: Vec<&str> = line.split_whitespace().collect();
            match parse(&sv(&argv)) {
                Err(e) => assert_eq!(e.0, *want, "`mbta {line}`"),
                Ok(cmd) => panic!("`mbta {line}` parsed as {cmd:?}, expected error: {want}"),
            }
        }
    }

    /// Per command: a repeated flag keeps the last value, and a flag's
    /// value is the next token verbatim, even when it looks like a flag.
    #[test]
    fn repeated_flags_are_last_wins_and_values_are_verbatim() {
        let same: &[(&str, &str)] = &[
            (
                "gen --profile uniform --out a --seed 1 --seed 2 --out b",
                "gen --profile uniform --seed 2 --out b",
            ),
            (
                "solve f --combiner min --combiner harmonic",
                "solve f --combiner harmonic",
            ),
            (
                "solve --inject-faults --instances 5 --instances 9",
                "solve --inject-faults --instances 9",
            ),
            (
                "gen-trace --out a --repeats 2 --out b --repeats 3",
                "gen-trace --out b --repeats 3",
            ),
            (
                "serve --trace a --shards 2 --trace b --shards 8",
                "serve --trace b --shards 8",
            ),
            (
                "replay --trace a --online --routing range --routing min-cut --online",
                "replay --trace a --routing min-cut --online",
            ),
            (
                "plan-stats --trace a --shards 2 --shards 3,5",
                "plan-stats --trace a --shards 3,5",
            ),
            (
                "recover --trace a --wal-dir w --wal-dir v",
                "recover --trace a --wal-dir v",
            ),
            (
                "follow --trace a --wal-dir w --poll-ms 5 --poll-ms 7",
                "follow --trace a --wal-dir w --poll-ms 7",
            ),
            (
                "send --addr :1 --addr :2 --trace t --batch 3 --batch 4",
                "send --addr :2 --trace t --batch 4",
            ),
            (
                "shard-worker --traces a --traces b,c --shard 1 --shard 0 --shards 2",
                "shard-worker --traces b,c --shard 0 --shards 2",
            ),
            (
                "route --traces a --owners x:1 --owners y:1,z:2 --batch 5 --batch 6",
                "route --traces a --owners y:1,z:2 --batch 6",
            ),
            ("sweep f --steps 3 --steps 5", "sweep f --steps 5"),
            (
                "maxmin f --combiner min --combiner linear:0.3",
                "maxmin f --combiner linear:0.3",
            ),
            (
                "budget f --limit 1 --iters 3 --limit 2",
                "budget f --iters 3 --limit 2",
            ),
            (
                "online f --seed 1 --order id --order random --seed 9",
                "online f --order random --seed 9",
            ),
            ("report f --top 1 --top 2", "report f --top 2"),
            ("topk f --k 1 --k 2", "topk f --k 2"),
        ];
        for (a, b) in same {
            let p = |l: &str| parse(&sv(&l.split_whitespace().collect::<Vec<_>>()));
            let (pa, pb) = (p(a), p(b));
            assert!(pa.is_ok(), "`mbta {a}`: {pa:?}");
            assert_eq!(pa, pb, "`mbta {a}` vs `mbta {b}`");
        }
        // The token after a value flag is its value, whatever it looks
        // like; the switch of the same spelling stays off.
        let verbatim: &[(&str, &str)] = &[
            ("gen --profile uniform --out --seed", "\"--seed\""),
            ("gen-trace --out --profile", "\"--profile\""),
            ("serve --trace t --decisions --online", "\"--online\""),
            (
                "replay --trace t --metrics-out --boundary-pass",
                "\"--boundary-pass\"",
            ),
            ("plan-stats --trace --shards", "\"--shards\""),
            ("recover --trace --wal-dir --wal-dir --trace", "\"--trace\""),
            (
                "follow --trace t --wal-dir w --listen --query-listen",
                "\"--query-listen\"",
            ),
            ("send --addr --status --status", "\"--status\""),
            (
                "shard-worker --traces --online --shard 0 --shards 1",
                "\"--online\"",
            ),
            ("route --traces t --owners --listen", "\"--listen\""),
        ];
        for (line, needle) in verbatim {
            let argv: Vec<&str> = line.split_whitespace().collect();
            let cmd = parse(&sv(&argv)).unwrap_or_else(|e| panic!("`mbta {line}`: {e}"));
            let shown = format!("{cmd:?}");
            assert!(
                shown.contains(needle),
                "`mbta {line}` lost {needle}: {shown}"
            );
        }
        for line in [
            "serve --trace t --decisions --online",
            "shard-worker --traces --online --shard 0 --shards 1",
        ] {
            let argv: Vec<&str> = line.split_whitespace().collect();
            let shown = format!("{:?}", parse(&sv(&argv)).unwrap());
            assert!(
                shown.contains("online: false") || shown.contains("online: None"),
                "{shown}"
            );
        }
    }

    fn parse_line(line: &str) -> Result<Command, ParseError> {
        parse(&sv(&line.split_whitespace().collect::<Vec<_>>()))
    }

    /// The error message `mbta <line>` is rejected with.
    fn rejection(line: &str) -> String {
        match parse_line(line) {
            Err(e) => e.0,
            Ok(cmd) => panic!("`mbta {line}` parsed as {cmd:?}"),
        }
    }

    /// The `--flag` names in `text`, each with whether a value placeholder
    /// (`N`, `FILE`, `<a|b>`, ...) follows it.
    fn flags_in(text: &str) -> Vec<(String, bool)> {
        let words: Vec<&str> = text.split_whitespace().collect();
        let mut flags = Vec::new();
        for (i, word) in words.iter().enumerate() {
            let Some(at) = word.find("--") else { continue };
            let name: String = word[at..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                .collect();
            let ends_word = at + name.len() == word.len();
            let placeholder = words
                .get(i + 1)
                .is_some_and(|next| next.starts_with(|c: char| c.is_ascii_uppercase() || c == '<'));
            flags.push((name, ends_word && placeholder));
        }
        flags
    }

    /// Usage text and parser cannot drift: per command, the flags its
    /// `USAGE` stanza prints are exactly the flags it accepts, and the
    /// flags printed without a value are exactly the `SWITCHES`.
    #[test]
    fn usage_and_parser_agree() {
        use std::collections::{BTreeMap, BTreeSet};
        // Stanzas: a line `  mbta <cmd> ...` plus its continuation lines.
        let mut stanzas: BTreeMap<&str, String> = BTreeMap::new();
        let mut current = "";
        for line in USAGE.lines().skip(1) {
            if let Some(rest) = line.strip_prefix("  mbta ") {
                current = rest.split_whitespace().next().unwrap();
            }
            let stanza = stanzas.entry(current).or_default();
            stanza.push_str(line);
            stanza.push('\n');
        }
        assert_eq!(stanzas.len(), 19, "commands in USAGE: {:?}", stanzas.keys());

        // Every flag any command could know is a string literal of this
        // file (above the tests) or a token of USAGE.
        let source = include_str!("args.rs");
        let source = &source[..source.find("#[cfg(test)]\nmod tests").unwrap()];
        let mut candidates: BTreeSet<String> = BTreeSet::new();
        for (name, _) in flags_in(&source.replace('"', " ")) {
            candidates.insert(name);
        }
        assert!(candidates.len() > 60, "source scan found {candidates:?}");

        let mut usage_switches = BTreeSet::new();
        for (&cmd, stanza) in &stanzas {
            let mut printed = BTreeSet::new();
            for (name, takes_value) in flags_in(stanza) {
                if !takes_value {
                    usage_switches.insert(name.clone());
                }
                printed.insert(name);
            }
            if cmd == "replay" {
                // "[serve flags; deterministic budgets]".
                assert_eq!(printed, BTreeSet::from(["--trace".to_string()]));
                printed = flags_in(&stanzas["serve"])
                    .into_iter()
                    .map(|f| f.0)
                    .collect();
                printed.remove("--listen");
                printed.remove("--budget-ms");
            }
            // Probe with what the command needs to get as far as its
            // cross-flag rules: `replay` refuses two of `serve`'s flags there.
            let base = if stanza.contains(&format!("mbta {cmd} FILE")) {
                format!("{cmd} f")
            } else if cmd == "replay" {
                "replay --trace t".to_string()
            } else {
                cmd.to_string()
            };
            let accepted: BTreeSet<String> = candidates
                .iter()
                .filter(|flag| match parse_line(&format!("{base} {flag} 1")) {
                    Ok(_) => true,
                    Err(ParseError(why)) => {
                        why != format!("unknown flag for {cmd}: '{flag}'")
                            && !why.contains("only applies to serve")
                    }
                })
                .cloned()
                .collect();
            assert_eq!(accepted, printed, "`mbta {cmd}`: parser vs USAGE stanza");
        }
        let switches: BTreeSet<String> = SWITCHES.iter().map(|s| s.to_string()).collect();
        assert_eq!(switches, usage_switches);
    }

    /// Each shared option group behaves the same on every command that
    /// includes it: same range rules, same messages.
    #[test]
    fn shared_groups_agree_across_commands() {
        const SERVE: &str = "serve --trace t";
        const REPLAY: &str = "replay --trace t";
        const WORKER: &str = "shard-worker --traces t --shard 0 --shards 2";
        const ROUTE: &str = "route --traces t --owners x:1";
        type Cases<'a> = &'a [(&'a str, &'a str)];
        let groups: &[(&[&str], Cases<'_>)] = &[
            // Durability.
            (
                &[SERVE, REPLAY, WORKER],
                &[
                    (
                        "--snapshot-every 8",
                        "--snapshot-every / --fsync / --group-commit need --wal-dir",
                    ),
                    (
                        "--fsync never",
                        "--snapshot-every / --fsync / --group-commit need --wal-dir",
                    ),
                    (
                        "--group-commit 8",
                        "--snapshot-every / --fsync / --group-commit need --wal-dir",
                    ),
                    (
                        "--wal-dir w --group-commit 0",
                        "--group-commit must be >= 1",
                    ),
                    (
                        "--wal-dir w --fsync x",
                        "unknown fsync policy 'x' (try always|batch|never)",
                    ),
                    (
                        "--wal-dir w --snapshot-every x",
                        "bad value for --snapshot-every: 'x'",
                    ),
                    // Online dispatch.
                    ("--drift-threshold 0.3", "--drift-threshold needs --online"),
                    (
                        "--online --drift-threshold 0",
                        "--drift-threshold must be positive and finite",
                    ),
                    (
                        "--online --drift-threshold nan",
                        "--drift-threshold must be positive and finite",
                    ),
                ],
            ),
            (
                &[SERVE, REPLAY, WORKER, ROUTE],
                &[
                    (
                        "--routing x",
                        "unknown routing 'x' (try hash|range|min-cut)",
                    ),
                    ("--queue-cap 0", "--queue-cap must be >= 1"),
                ],
            ),
            (
                &[SERVE, REPLAY, "send --addr :1 --trace t"],
                &[("--drift 2", "--drift must be in [0,1]")],
            ),
            (
                &[ROUTE, "send --addr :1 --trace t"],
                &[("--batch 0", "--batch must be >= 1")],
            ),
            // The market universe.
            (
                &["gen --profile uniform --out x", "gen-trace --out x"],
                &[
                    ("--profile nope", "unknown profile 'nope'"),
                    ("--dims 0", "--dims must be >= 1"),
                    ("--degree -3", "--degree must be finite and >= 0"),
                    ("--degree nan", "--degree must be finite and >= 0"),
                    ("--degree inf", "--degree must be finite and >= 0"),
                    ("--workers -1", "bad value for --workers: '-1'"),
                ],
            ),
            (
                &[
                    "solve f",
                    "maxmin f",
                    "budget f --limit 1",
                    "report f",
                    "topk f",
                ],
                &[
                    (
                        "--combiner nope",
                        "unknown combiner 'nope' (try balanced|harmonic|min|linear:0.7)",
                    ),
                    ("--combiner linear:2", "lambda 2 out of [0,1]"),
                ],
            ),
            (
                &["solve f", "report f"],
                &[("--algorithm nope", "unknown algorithm 'nope'")],
            ),
        ];
        for (commands, cases) in groups {
            for base in *commands {
                assert!(parse_line(base).is_ok(), "`mbta {base}`");
                for (flags, want) in *cases {
                    let line = format!("{base} {flags}");
                    assert_eq!(rejection(&line), *want, "`mbta {line}`");
                }
            }
        }
        // The leading FILE positional: a flag is not a file.
        for cmd in [
            "stats", "sweep", "maxmin", "budget", "online", "report", "topk",
        ] {
            let want = format!("{cmd} requires a file");
            assert_eq!(rejection(cmd), want);
            assert_eq!(rejection(&format!("{cmd} --combiner min")), want);
        }

        // Defaults that differ between commands on purpose.
        let serve_like = |line: &str| match parse_line(line).unwrap() {
            Command::Serve(o) | Command::Replay(o) => o,
            other => panic!("wrong command: {other:?}"),
        };
        let worker = |line: &str| match parse_line(line).unwrap() {
            Command::ShardWorker(cfg) => cfg,
            other => panic!("wrong command: {other:?}"),
        };
        for base in [SERVE, REPLAY] {
            let o = serve_like(&format!("{base} --wal-dir w"));
            assert_eq!(
                (o.snapshot_every, o.fsync, o.group_commit),
                (64, FsyncPolicy::Batch, 1)
            );
            assert_eq!((o.online, o.drift_threshold), (false, 0.2));
            assert_eq!(
                (o.routing, o.queue_cap, o.budget_ms),
                (Routing::HashId, 4096, 50)
            );
        }
        let w = worker(&format!("{WORKER} --wal-dir w"));
        assert_eq!(
            (w.snapshot_every, w.fsync, w.group_commit),
            (0, FsyncPolicy::Batch, 1)
        );
        assert_eq!(
            (w.online, w.routing, w.queue_cap, w.budget_ms),
            (None, Routing::HashId, 4096, 50)
        );
        assert_eq!(worker(&format!("{WORKER} --online")).online, Some(0.2));
        let tuned = worker(&format!("{WORKER} --drift-threshold 0.3 --online"));
        assert_eq!(tuned.online, Some(0.3));
        // `--budget-ms 0` means deterministic solves on a shard worker
        // only; `serve` needs a real budget and `replay` has none to set.
        assert_eq!(worker(&format!("{WORKER} --budget-ms 0")).budget_ms, 0);
        assert_eq!(
            rejection(&format!("{SERVE} --budget-ms 0")),
            "--budget-ms must be >= 1"
        );
        assert_eq!(
            rejection(&format!("{REPLAY} --budget-ms 20")),
            "--budget-ms only applies to serve (replay solves are unbudgeted)"
        );
    }

    /// Generator flags that used to reach `WorkloadSpec::generate`
    /// unchecked (`--dims 0` panicked there; a negative or NaN degree
    /// silently wrote a 0-edge instance).
    #[test]
    fn rejects_degenerate_universe_flags() {
        for base in ["gen --profile uniform --out f", "gen-trace --out f"] {
            assert_eq!(
                rejection(&format!("{base} --dims 0")),
                "--dims must be >= 1"
            );
            for degree in ["nan", "-3", "inf"] {
                assert_eq!(
                    rejection(&format!("{base} --degree {degree}")),
                    "--degree must be finite and >= 0"
                );
            }
            assert!(parse_line(&format!("{base} --dims 1 --degree 0")).is_ok());
        }
    }

    /// A forgotten FILE no longer swallows the first flag, and commands
    /// without flags reject trailing tokens instead of ignoring them.
    #[test]
    fn positionals_and_trailing_tokens() {
        assert_eq!(rejection("sweep --steps 5"), "sweep requires a file");
        assert_eq!(rejection("stats --bogus"), "stats requires a file");
        assert_eq!(
            rejection("stats f --bogus junk"),
            "unknown flag for stats: '--bogus'"
        );
        assert_eq!(rejection("stats f junk"), "unknown flag for stats: 'junk'");
        for help in ["help", "--help", "-h"] {
            assert_eq!(
                rejection(&format!("{help} extra")),
                "unknown flag for help: 'extra'"
            );
        }
        // Commands that take no file still call a stray word a flag.
        assert_eq!(
            rejection("serve t.trace --trace t"),
            "unknown flag for serve: 't.trace'"
        );
    }

    /// `shard-worker` used to ignore a threshold given without `--online`
    /// and worded its range rule differently from `serve`; `replay` used
    /// to ignore `--budget-ms`.
    #[test]
    fn option_groups_no_longer_drift_between_commands() {
        let worker = "shard-worker --traces t --shard 0 --shards 2";
        assert_eq!(
            rejection(&format!("{worker} --drift-threshold 0.3")),
            "--drift-threshold needs --online"
        );
        assert_eq!(
            rejection(&format!("{worker} --online --drift-threshold 0")),
            "--drift-threshold must be positive and finite"
        );
        assert_eq!(
            rejection("replay --trace t --budget-ms 20"),
            "--budget-ms only applies to serve (replay solves are unbudgeted)"
        );
    }

    #[test]
    fn all_algorithms_parse() {
        for a in [
            "exact",
            "exact-spfa",
            "greedy",
            "local",
            "quality",
            "worker",
            "random",
            "cardinality",
            "stable",
        ] {
            assert!(parse_algorithm(a).is_ok(), "{a}");
        }
    }
}
