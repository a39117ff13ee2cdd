//! In-memory span recorder for the traced run.
//!
//! The driver records a span around every call it makes into a layer;
//! nothing inside the library crates is instrumented. Spans stay in
//! memory and are written out once, after the measurement.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = 0;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based id (0 is "no parent").
    pub id: u32,
    /// Id of the span that caused this one.
    pub parent: u32,
    /// Call name (`offer`, `pump`, `solve`, `sink`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Batch sequence number or event index the span belongs to.
    pub batch: u64,
}

/// The recorder. Ids are indices, so lookups are O(1).
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span at `start`; close it with [`Tracer::close`].
    pub fn open(&mut self, parent: u32, name: &'static str, start: Instant, batch: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            batch,
        });
        id
    }

    /// Closes span `id` at `end`.
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        batch: u64,
    ) -> u32 {
        let id = self.open(parent, name, start, batch);
        self.close(id, end);
        id
    }

    /// Records a span known only by its duration, placed so that it ends
    /// at `end` (a child synthesized from a duration the callee reported).
    pub fn record_ending_at(
        &mut self,
        parent: u32,
        name: &'static str,
        end: Instant,
        dur_s: f64,
        batch: u64,
    ) -> u32 {
        let end_ns = self.ns(end);
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: end_ns.saturating_sub((dur_s * 1e9) as u64),
            end_ns,
            batch,
        });
        id
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Forgets every span recorded after the first `len` (the newest
    /// ones: ids stay dense).
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"batch\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.batch
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let t0 = t.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let pump = t.open(ROOT, "pump", at(0), 7);
        t.record(pump, "sink", at(8), at(10), 7);
        t.record_ending_at(pump, "solve", at(8), 0.005, 7);
        t.close(pump, at(10));
        let own = t.self_times();
        assert!((own["pump"] - 0.003).abs() < 1e-9);
        assert!((own["solve"] - 0.005).abs() < 1e-9);
        assert!((own["sink"] - 0.002).abs() < 1e-9);
        // Dropping the newest spans keeps ids dense.
        let mark = t.len();
        t.record(ROOT, "event", at(10), at(11), 8);
        t.truncate(mark);
        assert_eq!(t.open(ROOT, "next", at(11), 9) as usize, mark + 1);
        t.truncate(mark);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"id\":1,\"parent\":0,\"name\":\"pump\",\"start_ns\":0,"));
        assert!(text.contains("\"name\":\"solve\",\"start_ns\":3000000,\"end_ns\":8000000"));
    }
}
