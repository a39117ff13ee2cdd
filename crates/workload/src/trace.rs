//! Timed event traces: who is online when.
//!
//! The churn experiments (F14) use uniformly random activate/deactivate
//! events; real markets have *sessions* — a worker logs on, stays a while,
//! logs off; a task is posted and expires. This module generates such
//! session-structured traces deterministically: each worker gets an arrival
//! time uniform over the horizon and an exponentially distributed session
//! length; tasks get posting times and lifetimes the same way. The result
//! is a time-sorted event list a simulation loop can replay against an
//! `IncrementalAssignment` (see the `day_simulation` example) or feed into
//! the streaming dispatch service (`mbta-service`).
//!
//! # Ordering contract
//!
//! Every trace returned by this module is **normalized**
//! ([`normalize_trace`]): events are sorted by `(time, event)` under
//! [`f64::total_cmp`], exact duplicates are removed, and timestamps are
//! then made *strictly* monotone (ties are bumped up by one ULP). Strict
//! monotonicity means downstream consumers never depend on how a sort
//! implementation breaks ties — replaying the same trace yields the same
//! batch boundaries on every platform.
//!
//! # Persistence
//!
//! [`TraceFile`] bundles a trace with the [`WorkloadSpec`] of the market
//! universe it runs against, in a line-oriented text format
//! ([`TraceFile::render`] / [`TraceFile::parse`]). A trace file is therefore
//! self-contained: `mbta serve --trace FILE` regenerates the universe from
//! the header and replays the events, bit-identically.

use crate::spec::{Profile, WorkloadSpec};
use mbta_util::SplitMix64;
use std::fmt;

/// One market event.
///
/// The derived `Ord` (variant order, then id) is part of the normalization
/// contract: it is the deterministic tie-break for events sharing a
/// timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Event {
    /// Worker `id` comes online.
    WorkerOn(u32),
    /// Worker `id` goes offline.
    WorkerOff(u32),
    /// Task `id` is posted.
    TaskPosted(u32),
    /// Task `id` expires (or is cancelled).
    TaskExpired(u32),
}

impl Event {
    /// The stable on-disk keyword for this event kind.
    pub fn keyword(&self) -> &'static str {
        match self {
            Event::WorkerOn(_) => "won",
            Event::WorkerOff(_) => "woff",
            Event::TaskPosted(_) => "tpost",
            Event::TaskExpired(_) => "texp",
        }
    }

    /// The entity id the event refers to.
    pub fn id(&self) -> u32 {
        match *self {
            Event::WorkerOn(id)
            | Event::WorkerOff(id)
            | Event::TaskPosted(id)
            | Event::TaskExpired(id) => id,
        }
    }
}

/// An event with its timestamp (abstract time units in `[0, horizon]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// When the event happens.
    pub time: f64,
    /// What happens.
    pub event: Event,
}

/// Parameters of a session trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Length of the simulated period (e.g. 24.0 for a day in hours).
    pub horizon: f64,
    /// Mean worker session length (exponential).
    pub mean_session: f64,
    /// Mean task lifetime (exponential).
    pub mean_task_lifetime: f64,
    /// Trace seed.
    pub seed: u64,
}

impl TraceSpec {
    /// Generates the normalized event list for `n_workers` workers and
    /// `n_tasks` tasks: one session per worker, one posting per task. The
    /// matching off/expired event is included only if it falls inside the
    /// horizon (otherwise the entity is still live at the end).
    pub fn generate(&self, n_workers: usize, n_tasks: usize) -> Vec<TimedEvent> {
        self.generate_repeated(n_workers, n_tasks, 1)
    }

    /// Like [`generate`](Self::generate), but every worker gets `repeats`
    /// independent sessions and every task is re-posted `repeats` times.
    /// This is how long high-churn streams are produced for the dispatch
    /// service: the event count scales as ≈ `2 · repeats · (workers +
    /// tasks)` without growing the market universe.
    ///
    /// Sessions of the same worker may overlap (arrivals are independent);
    /// consumers must treat activation events as idempotent, which both
    /// `IncrementalAssignment` and the dispatch service do.
    pub fn generate_repeated(
        &self,
        n_workers: usize,
        n_tasks: usize,
        repeats: u32,
    ) -> Vec<TimedEvent> {
        assert!(self.horizon > 0.0, "horizon must be positive");
        assert!(
            self.mean_session > 0.0 && self.mean_task_lifetime > 0.0,
            "mean durations must be positive"
        );
        assert!(repeats >= 1, "repeats must be >= 1");
        let root = SplitMix64::new(self.seed);
        let mut events = Vec::with_capacity(2 * repeats as usize * (n_workers + n_tasks));

        let mut wrng = root.derive("worker-sessions");
        for _ in 0..repeats {
            for w in 0..n_workers as u32 {
                let start = wrng.next_f64() * self.horizon;
                let dur = exponential(&mut wrng, self.mean_session);
                events.push(TimedEvent {
                    time: start,
                    event: Event::WorkerOn(w),
                });
                if start + dur < self.horizon {
                    events.push(TimedEvent {
                        time: start + dur,
                        event: Event::WorkerOff(w),
                    });
                }
            }
        }
        let mut trng = root.derive("task-lifetimes");
        for _ in 0..repeats {
            for t in 0..n_tasks as u32 {
                let posted = trng.next_f64() * self.horizon;
                let dur = exponential(&mut trng, self.mean_task_lifetime);
                events.push(TimedEvent {
                    time: posted,
                    event: Event::TaskPosted(t),
                });
                if posted + dur < self.horizon {
                    events.push(TimedEvent {
                        time: posted + dur,
                        event: Event::TaskExpired(t),
                    });
                }
            }
        }
        normalize_trace(&mut events);
        events
    }
}

/// The smallest `f64` strictly greater than `x` (finite `x` only).
fn strictly_after(x: f64) -> f64 {
    debug_assert!(x.is_finite());
    if x == 0.0 {
        // Covers -0.0 too: the smallest positive subnormal.
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f64::from_bits(bits + 1)
    } else {
        f64::from_bits(bits - 1)
    }
}

/// Normalizes a trace in place: sorts by `(time, event)` with
/// [`f64::total_cmp`] (a *total* order — no platform- or data-dependent
/// tie-breaking, unlike `partial_cmp`-based sorts), removes exact
/// duplicates, and bumps remaining timestamp ties up by one ULP so the
/// sequence is strictly monotone.
///
/// Idempotent, and invariant under input permutation: any reordering of the
/// same multiset of events normalizes to the same byte-identical trace.
///
/// # Panics
/// Panics if any timestamp is non-finite (traces model wall-clock offsets;
/// NaN/±∞ have no meaningful position in a schedule).
pub fn normalize_trace(events: &mut Vec<TimedEvent>) {
    for e in events.iter() {
        assert!(e.time.is_finite(), "non-finite event time {}", e.time);
    }
    events.sort_by(|a, b| {
        a.time
            .total_cmp(&b.time)
            .then_with(|| a.event.cmp(&b.event))
    });
    events.dedup_by(|a, b| a.time.to_bits() == b.time.to_bits() && a.event == b.event);
    let mut time_bumps = 0u64;
    let mut prev: Option<f64> = None;
    for e in events.iter_mut() {
        if let Some(p) = prev {
            if e.time <= p {
                e.time = strictly_after(p);
                time_bumps += 1;
            }
        }
        prev = Some(e.time);
    }
    mbta_telemetry::counter_add!("mbta_workload_trace_events_total", events.len() as u64);
    mbta_telemetry::counter_add!("mbta_workload_trace_time_bumps_total", time_bumps);
}

/// Error from [`TraceFile::parse`], locating the problem both ways a
/// reader might look for it: by line number (for an editor) and by byte
/// offset of that line's start (for `dd`/`xxd` on a large or binary-mangled
/// file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the problem.
    pub line: usize,
    /// Byte offset of the offending line's first byte within the input
    /// (`0` for errors not tied to a file position, e.g. a missing spec
    /// header or an invalid in-memory event list).
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace line {} (byte offset {}): {}",
            self.line, self.offset, self.message
        )
    }
}

impl std::error::Error for TraceParseError {}

/// A self-contained persisted trace: the market universe spec plus the
/// normalized event stream that plays against it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// The spec regenerating the market universe the events refer to.
    pub spec: WorkloadSpec,
    /// The normalized event stream.
    pub events: Vec<TimedEvent>,
}

impl TraceFile {
    /// Builds a trace file, normalizing the events and validating that
    /// every event id is inside the spec's universe.
    pub fn new(spec: WorkloadSpec, mut events: Vec<TimedEvent>) -> Result<Self, TraceParseError> {
        normalize_trace(&mut events);
        for (i, e) in events.iter().enumerate() {
            check_id_in_universe(&spec, e.event).map_err(|message| TraceParseError {
                line: i + 1,
                offset: 0, // in-memory events have no file position
                message,
            })?;
        }
        Ok(TraceFile { spec, events })
    }

    /// Renders the line-oriented text format. Timestamps use Rust's
    /// shortest round-tripping `f64` display, so
    /// `parse(render(t)) == t` bit-for-bit.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(32 * self.events.len() + 128);
        out.push_str("# mbta-trace v1\n");
        out.push_str(&format!(
            "spec profile={} workers={} tasks={} degree={} dims={} seed={}\n",
            self.spec.profile.name(),
            self.spec.n_workers,
            self.spec.n_tasks,
            self.spec.avg_worker_degree,
            self.spec.skill_dims,
            self.spec.seed,
        ));
        for e in &self.events {
            out.push_str(&format!(
                "{} {} {}\n",
                e.event.keyword(),
                e.event.id(),
                e.time
            ));
        }
        out
    }

    /// Parses the text format produced by [`render`](Self::render).
    /// Validates timestamps (finite), event kinds, and that ids fall inside
    /// the declared universe; the parsed trace is re-normalized, so a
    /// hand-edited file with out-of-order lines still replays
    /// deterministically.
    pub fn parse(text: &str) -> Result<TraceFile, TraceParseError> {
        let err = |line: usize, offset: usize, message: String| TraceParseError {
            line,
            offset,
            message,
        };
        let mut spec: Option<WorkloadSpec> = None;
        let mut events = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            // `raw` borrows from `text`, so the pointer difference is the
            // exact byte offset of this line's start — correct under both
            // `\n` and `\r\n` endings, where a running `len() + 1` is not.
            let at = raw.as_ptr() as usize - text.as_ptr() as usize;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let head = parts.next().expect("non-empty line has a first token");
            if head == "spec" {
                if spec.is_some() {
                    return Err(err(line_no, at, "duplicate spec line".into()));
                }
                spec = Some(parse_spec_line(parts, line_no, at)?);
                continue;
            }
            let kind = head;
            let id: u32 = parts
                .next()
                .ok_or_else(|| err(line_no, at, "missing event id".into()))?
                .parse()
                .map_err(|_| err(line_no, at, "bad event id".into()))?;
            let time: f64 = parts
                .next()
                .ok_or_else(|| err(line_no, at, "missing timestamp".into()))?
                .parse()
                .map_err(|_| err(line_no, at, "bad timestamp".into()))?;
            if !time.is_finite() {
                return Err(err(line_no, at, format!("non-finite timestamp {time}")));
            }
            if parts.next().is_some() {
                return Err(err(line_no, at, "trailing tokens".into()));
            }
            let event = match kind {
                "won" => Event::WorkerOn(id),
                "woff" => Event::WorkerOff(id),
                "tpost" => Event::TaskPosted(id),
                "texp" => Event::TaskExpired(id),
                other => return Err(err(line_no, at, format!("unknown event kind '{other}'"))),
            };
            events.push(TimedEvent { time, event });
        }
        let spec = spec.ok_or_else(|| err(0, 0, "missing spec header line".into()))?;
        TraceFile::new(spec, events)
    }
}

fn check_id_in_universe(spec: &WorkloadSpec, event: Event) -> Result<(), String> {
    let (limit, side) = match event {
        Event::WorkerOn(_) | Event::WorkerOff(_) => (spec.n_workers, "worker"),
        Event::TaskPosted(_) | Event::TaskExpired(_) => (spec.n_tasks, "task"),
    };
    if (event.id() as usize) < limit {
        Ok(())
    } else {
        Err(format!(
            "{side} id {} out of universe range 0..{limit}",
            event.id()
        ))
    }
}

fn parse_spec_line<'a>(
    parts: impl Iterator<Item = &'a str>,
    line_no: usize,
    offset: usize,
) -> Result<WorkloadSpec, TraceParseError> {
    let err = |message: String| TraceParseError {
        line: line_no,
        offset,
        message,
    };
    let mut profile = None;
    let mut workers = None;
    let mut tasks = None;
    let mut degree = None;
    let mut dims = None;
    let mut seed = None;
    for kv in parts {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| err(format!("malformed spec field '{kv}'")))?;
        match k {
            "profile" => {
                profile = Some(match v {
                    "uniform" => Profile::Uniform,
                    "zipfian" => Profile::Zipfian,
                    "microtask" => Profile::Microtask,
                    "freelance" => Profile::Freelance,
                    other => return Err(err(format!("unknown profile '{other}'"))),
                })
            }
            "workers" => workers = Some(v.parse().map_err(|_| err("bad workers".into()))?),
            "tasks" => tasks = Some(v.parse().map_err(|_| err("bad tasks".into()))?),
            "degree" => degree = Some(v.parse().map_err(|_| err("bad degree".into()))?),
            "dims" => dims = Some(v.parse().map_err(|_| err("bad dims".into()))?),
            "seed" => seed = Some(v.parse().map_err(|_| err("bad seed".into()))?),
            other => return Err(err(format!("unknown spec field '{other}'"))),
        }
    }
    Ok(WorkloadSpec {
        profile: profile.ok_or_else(|| err("spec missing profile".into()))?,
        n_workers: workers.ok_or_else(|| err("spec missing workers".into()))?,
        n_tasks: tasks.ok_or_else(|| err("spec missing tasks".into()))?,
        avg_worker_degree: degree.ok_or_else(|| err("spec missing degree".into()))?,
        skill_dims: dims.ok_or_else(|| err("spec missing dims".into()))?,
        seed: seed.ok_or_else(|| err("spec missing seed".into()))?,
    })
}

/// Exponential sample with the given mean (inverse CDF).
fn exponential(rng: &mut SplitMix64, mean: f64) -> f64 {
    let u = rng.next_f64().max(1e-12);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_util::FxHashMap;

    fn spec() -> TraceSpec {
        TraceSpec {
            horizon: 24.0,
            mean_session: 4.0,
            mean_task_lifetime: 6.0,
            seed: 11,
        }
    }

    #[test]
    fn events_are_strictly_sorted_and_in_horizon() {
        let evs = spec().generate(200, 100);
        assert!(evs.windows(2).all(|w| w[0].time < w[1].time), "ties left");
        assert!(evs.iter().all(|e| (0.0..24.0).contains(&e.time)));
    }

    #[test]
    fn every_entity_turns_on_once_and_off_at_most_once() {
        let evs = spec().generate(150, 80);
        let mut on: FxHashMap<u32, u32> = FxHashMap::default();
        let mut off: FxHashMap<u32, u32> = FxHashMap::default();
        for e in &evs {
            match e.event {
                Event::WorkerOn(w) => *on.entry(w).or_insert(0) += 1,
                Event::WorkerOff(w) => *off.entry(w).or_insert(0) += 1,
                _ => {}
            }
        }
        assert_eq!(on.len(), 150);
        assert!(on.values().all(|&c| c == 1));
        assert!(off.values().all(|&c| c == 1));
        // With mean session 4h over a 24h horizon most sessions end inside.
        assert!(off.len() > 100, "only {} offs", off.len());
    }

    #[test]
    fn repeated_sessions_scale_event_count() {
        let one = spec().generate_repeated(100, 80, 1);
        let four = spec().generate_repeated(100, 80, 4);
        assert!(
            four.len() > 3 * one.len(),
            "{} vs {}",
            four.len(),
            one.len()
        );
        assert!(four.windows(2).all(|w| w[0].time < w[1].time));
        // Each worker now has up to 4 on events.
        let mut on: FxHashMap<u32, u32> = FxHashMap::default();
        for e in &four {
            if let Event::WorkerOn(w) = e.event {
                *on.entry(w).or_insert(0) += 1;
            }
        }
        assert!(on.values().all(|&c| (1..=4).contains(&c)));
    }

    #[test]
    fn off_follows_on_for_each_worker() {
        let evs = spec().generate(100, 0);
        let mut on_time: FxHashMap<u32, f64> = FxHashMap::default();
        for e in &evs {
            match e.event {
                Event::WorkerOn(w) => {
                    on_time.insert(w, e.time);
                }
                Event::WorkerOff(w) => {
                    assert!(e.time >= on_time[&w], "off before on for {w}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = spec().generate(50, 50);
        let b = spec().generate(50, 50);
        assert_eq!(a, b);
        let mut other = spec();
        other.seed = 12;
        assert_ne!(a, other.generate(50, 50));
    }

    #[test]
    fn normalize_breaks_ties_strictly_and_deterministically() {
        // Regression test for cross-platform ordering determinism: exact
        // timestamp ties used to rely on sort-stability + insertion order,
        // so two differently-produced permutations of the same trace could
        // replay differently. normalize_trace must map ANY permutation of
        // the same events to one strictly-monotone sequence.
        let base = vec![
            TimedEvent {
                time: 1.0,
                event: Event::TaskPosted(3),
            },
            TimedEvent {
                time: 1.0,
                event: Event::WorkerOn(7),
            },
            TimedEvent {
                time: 1.0,
                event: Event::WorkerOn(2),
            },
            TimedEvent {
                time: 0.5,
                event: Event::WorkerOff(1),
            },
            TimedEvent {
                time: 1.0,
                event: Event::WorkerOn(2),
            }, // exact dup
            TimedEvent {
                time: 2.0,
                event: Event::TaskExpired(3),
            },
        ];
        let mut a = base.clone();
        normalize_trace(&mut a);
        // Dup removed, strictly increasing.
        assert_eq!(a.len(), 5);
        assert!(a.windows(2).all(|w| w[0].time < w[1].time));
        // Tie-break is (variant, id): WorkerOn(2) < WorkerOn(7) < TaskPosted(3).
        assert_eq!(a[1].event, Event::WorkerOn(2));
        assert_eq!(a[2].event, Event::WorkerOn(7));
        assert_eq!(a[3].event, Event::TaskPosted(3));
        // The bumped timestamps moved by one ULP, not a visible amount.
        assert!(a[2].time > 1.0 && a[2].time < 1.0 + 1e-9);

        // Any permutation normalizes to the identical byte sequence.
        let mut rng = SplitMix64::new(99);
        for _ in 0..20 {
            let mut p = base.clone();
            rng.shuffle(&mut p);
            normalize_trace(&mut p);
            let bits = |v: &[TimedEvent]| {
                v.iter()
                    .map(|e| (e.time.to_bits(), e.event))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&p), bits(&a));
        }

        // Idempotent.
        let mut again = a.clone();
        normalize_trace(&mut again);
        assert_eq!(again, a);
    }

    #[test]
    #[should_panic(expected = "non-finite event time")]
    fn normalize_rejects_nan_times() {
        let mut evs = vec![TimedEvent {
            time: f64::NAN,
            event: Event::WorkerOn(0),
        }];
        normalize_trace(&mut evs);
    }

    #[test]
    fn strictly_after_is_minimal_increment() {
        for x in [0.0, -0.0, 1.0, 24.0, 1e-300, -3.5] {
            let y = strictly_after(x);
            assert!(y > x, "{y} not after {x}");
            // Nothing fits between x and y.
            let mid = (x + y) / 2.0;
            assert!(mid <= x || mid >= y);
        }
    }

    #[test]
    fn trace_file_roundtrips_bit_identically() {
        let wspec = WorkloadSpec {
            profile: Profile::Zipfian,
            n_workers: 60,
            n_tasks: 40,
            avg_worker_degree: 5.5,
            skill_dims: 8,
            seed: 17,
        };
        let events = spec().generate_repeated(60, 40, 2);
        let tf = TraceFile::new(wspec, events).unwrap();
        let text = tf.render();
        let back = TraceFile::parse(&text).unwrap();
        assert_eq!(back.spec, tf.spec);
        let bits = |v: &[TimedEvent]| {
            v.iter()
                .map(|e| (e.time.to_bits(), e.event))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&back.events), bits(&tf.events));
        // Render is a fixed point too (replay logs compare byte-equal).
        assert_eq!(back.render(), text);
    }

    #[test]
    fn trace_file_rejects_bad_input() {
        let good =
            "# c\nspec profile=uniform workers=4 tasks=2 degree=2 dims=2 seed=1\nwon 0 0.5\n";
        assert!(TraceFile::parse(good).is_ok());
        // Missing spec.
        assert!(TraceFile::parse("won 0 0.5\n").is_err());
        // Out-of-universe id.
        let bad_id = "spec profile=uniform workers=4 tasks=2 degree=2 dims=2 seed=1\nwon 4 0.5\n";
        assert!(TraceFile::parse(bad_id).is_err());
        // Unknown kind, bad time, trailing garbage.
        for line in [
            "zap 0 0.5",
            "won 0 nan",
            "won 0 0.5 extra",
            "won x 0.5",
            "won 0",
        ] {
            let text =
                format!("spec profile=uniform workers=4 tasks=2 degree=2 dims=2 seed=1\n{line}\n");
            assert!(TraceFile::parse(&text).is_err(), "accepted: {line}");
        }
        // Duplicate or malformed spec lines.
        let dup = "spec profile=uniform workers=4 tasks=2 degree=2 dims=2 seed=1\n\
                   spec profile=uniform workers=4 tasks=2 degree=2 dims=2 seed=1\n";
        assert!(TraceFile::parse(dup).is_err());
        assert!(
            TraceFile::parse("spec profile=nope workers=1 tasks=1 degree=1 dims=1 seed=1\n")
                .is_err()
        );
        assert!(TraceFile::parse("spec workers=1 tasks=1 degree=1 dims=1 seed=1\n").is_err());
        assert!(TraceFile::parse(
            "spec profile=uniform workers=1 tasks=1 degree=1 dims=1 seed=1 bogus=2\n"
        )
        .is_err());
    }

    #[test]
    fn parse_error_reports_line_and_byte_offset() {
        // A corrupted line in the middle of an otherwise valid file: the
        // error must name both the 1-based line and the byte offset of
        // that line's start, so the bad bytes can be found with either an
        // editor (`:4`) or `xxd -s <offset>`.
        let header = "# mbta-trace v1\n";
        let spec_line = "spec profile=uniform workers=4 tasks=2 degree=2 dims=2 seed=1\n";
        let good = "won 0 0.5\n";
        let bad = "won 1 garbage\n";
        let text = format!("{header}{spec_line}{good}{bad}won 2 0.9\n");

        let e = TraceFile::parse(&text).unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(e.offset, header.len() + spec_line.len() + good.len());
        assert_eq!(e.message, "bad timestamp");
        let shown = e.to_string();
        assert!(shown.contains("line 4"), "display: {shown}");
        assert!(
            shown.contains(&format!("byte offset {}", e.offset)),
            "display: {shown}"
        );

        // CRLF endings shift every line start by one extra byte; the
        // pointer-derived offset must track that exactly.
        let crlf = text.replace('\n', "\r\n");
        let e2 = TraceFile::parse(&crlf).unwrap_err();
        assert_eq!(e2.line, 4);
        assert_eq!(e2.offset, e.offset + 3, "three CRLF line ends precede");
    }

    #[test]
    fn mean_session_roughly_respected() {
        // Average measured session (among completed ones) within 25% of the
        // configured mean, over a long horizon so truncation bias is small.
        let long = TraceSpec {
            horizon: 1000.0,
            mean_session: 5.0,
            mean_task_lifetime: 5.0,
            seed: 3,
        };
        let evs = long.generate(2000, 0);
        let mut on_time: FxHashMap<u32, f64> = FxHashMap::default();
        let mut total = 0.0;
        let mut n = 0usize;
        for e in &evs {
            match e.event {
                Event::WorkerOn(w) => {
                    on_time.insert(w, e.time);
                }
                Event::WorkerOff(w) => {
                    total += e.time - on_time[&w];
                    n += 1;
                }
                _ => {}
            }
        }
        let mean = total / n as f64;
        assert!((3.75..6.25).contains(&mean), "mean session {mean}");
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_rejected() {
        TraceSpec {
            horizon: 0.0,
            mean_session: 1.0,
            mean_task_lifetime: 1.0,
            seed: 0,
        }
        .generate(1, 1);
    }
}
