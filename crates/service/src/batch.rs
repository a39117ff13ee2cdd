//! Micro-batch accumulation with count, byte, and time watermarks.
//!
//! The dispatcher trades latency for solve quality by accumulating events
//! into bounded micro-batches: one shard solve amortizes over many churn
//! events, and the local-repair noise of applying events one at a time is
//! cleaned up by the batch re-solve. [`Batcher`] closes a batch on the
//! first watermark tripped:
//!
//! * **count** — `max_events` arrivals buffered,
//! * **bytes** — `max_bytes` of encoded payload buffered (admission
//!   control for benefit-update-heavy streams whose events are wider),
//! * **time** — the next arrival's timestamp is `flush_interval` past the
//!   batch's first arrival (virtual time, so replay is deterministic: the
//!   flush decision depends only on the stream, never the host clock).
//!
//! The time watermark closes the batch *before* admitting the trigger
//! arrival — events at or beyond the watermark belong to the next batch,
//! which is what keeps batch membership a pure function of the stream.

use crate::event::Arrival;
use std::fmt;

/// Why a batch was closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushReason {
    /// Event-count watermark (`max_events`) reached.
    Count,
    /// Byte watermark (`max_bytes`) reached.
    Bytes,
    /// Time watermark: an arrival landed `flush_interval` or more past the
    /// batch's opening timestamp.
    Watermark,
    /// End of stream: the final partial batch, flushed by `drain`.
    Drain,
    /// Not a batch at all: one per-event flush from the online decision
    /// path (`--online`), which bypasses the batcher entirely.
    Online,
}

impl FlushReason {
    /// Stable keyword for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            FlushReason::Count => "count",
            FlushReason::Bytes => "bytes",
            FlushReason::Watermark => "watermark",
            FlushReason::Drain => "drain",
            FlushReason::Online => "online",
        }
    }
}

impl fmt::Display for FlushReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Watermark configuration for [`Batcher`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Close the batch once it holds this many events.
    pub max_events: usize,
    /// Close the batch once its encoded payload reaches this many bytes.
    pub max_bytes: usize,
    /// Close the batch when an arrival is this far (in stream time units)
    /// past the batch's first arrival.
    pub flush_interval: f64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_events: 256,
            max_bytes: 64 * 1024,
            flush_interval: 10.0,
        }
    }
}

impl BatchConfig {
    /// Panics on configurations that can never flush (or always flush).
    pub fn validate(&self) {
        assert!(self.max_events >= 1, "max_events must be >= 1");
        assert!(self.max_bytes >= 1, "max_bytes must be >= 1");
        assert!(
            self.flush_interval > 0.0 && self.flush_interval.is_finite(),
            "flush_interval must be positive and finite"
        );
    }
}

/// A closed batch, ready to dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedBatch {
    /// The buffered arrivals, in stream order.
    pub events: Vec<Arrival>,
    /// Which watermark closed the batch.
    pub reason: FlushReason,
}

/// Accumulates arrivals until a watermark trips.
#[derive(Debug)]
pub struct Batcher {
    cfg: BatchConfig,
    buf: Vec<Arrival>,
    bytes: usize,
    opened_at: f64,
}

impl Batcher {
    /// A new empty batcher. Panics if `cfg` is unusable.
    pub fn new(cfg: BatchConfig) -> Self {
        cfg.validate();
        Batcher {
            cfg,
            buf: Vec::with_capacity(cfg.max_events),
            bytes: 0,
            opened_at: 0.0,
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Offers an arrival; returns a batch if a watermark tripped.
    ///
    /// A time-watermark flush returns the batch *without* `a` (which opens
    /// the next batch); count/byte flushes return the batch *including*
    /// `a`. Either way `a` is consumed.
    pub fn offer(&mut self, a: Arrival) -> Option<ClosedBatch> {
        if !self.buf.is_empty() && a.time - self.opened_at >= self.cfg.flush_interval {
            let closed = self.close(FlushReason::Watermark);
            self.admit(a);
            return Some(closed);
        }
        self.admit(a);
        if self.buf.len() >= self.cfg.max_events {
            return Some(self.close(FlushReason::Count));
        }
        if self.bytes >= self.cfg.max_bytes {
            return Some(self.close(FlushReason::Bytes));
        }
        None
    }

    /// Flushes whatever is buffered as the stream's final batch.
    pub fn drain(&mut self) -> Option<ClosedBatch> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.close(FlushReason::Drain))
        }
    }

    fn admit(&mut self, a: Arrival) {
        if self.buf.is_empty() {
            self.opened_at = a.time;
        }
        self.bytes += a.event.encoded_size();
        self.buf.push(a);
    }

    fn close(&mut self, reason: FlushReason) -> ClosedBatch {
        self.bytes = 0;
        ClosedBatch {
            events: std::mem::take(&mut self.buf),
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ServiceEvent;

    fn at(time: f64, id: u32) -> Arrival {
        Arrival {
            time,
            event: ServiceEvent::WorkerJoin(id),
        }
    }

    #[test]
    fn count_watermark_includes_trigger() {
        let mut b = Batcher::new(BatchConfig {
            max_events: 3,
            ..BatchConfig::default()
        });
        assert!(b.offer(at(0.0, 0)).is_none());
        assert!(b.offer(at(0.1, 1)).is_none());
        let closed = b.offer(at(0.2, 2)).expect("third event flushes");
        assert_eq!(closed.reason, FlushReason::Count);
        assert_eq!(closed.events.len(), 3);
        assert!(b.is_empty());
    }

    #[test]
    fn byte_watermark_counts_payload() {
        // Benefit updates are 24 bytes; two of them cross a 40-byte line.
        let mut b = Batcher::new(BatchConfig {
            max_bytes: 40,
            ..BatchConfig::default()
        });
        let upd = |time| Arrival {
            time,
            event: ServiceEvent::BenefitUpdate {
                edge: 0,
                weight: 0.5,
            },
        };
        assert!(b.offer(upd(0.0)).is_none());
        let closed = b.offer(upd(0.1)).expect("48 bytes >= 40");
        assert_eq!(closed.reason, FlushReason::Bytes);
        assert_eq!(closed.events.len(), 2);
    }

    #[test]
    fn time_watermark_excludes_trigger() {
        let mut b = Batcher::new(BatchConfig {
            flush_interval: 5.0,
            ..BatchConfig::default()
        });
        assert!(b.offer(at(1.0, 0)).is_none());
        assert!(b.offer(at(3.0, 1)).is_none());
        let closed = b.offer(at(6.0, 2)).expect("6.0 - 1.0 >= 5.0");
        assert_eq!(closed.reason, FlushReason::Watermark);
        assert_eq!(closed.events.len(), 2, "trigger opens the next batch");
        assert_eq!(b.len(), 1);
        // The trigger's time reopens the window.
        assert!(b.offer(at(10.9, 3)).is_none());
        let closed = b.offer(at(11.0, 4)).expect("11.0 - 6.0 >= 5.0");
        assert_eq!(closed.events.len(), 2);
    }

    #[test]
    fn drain_flushes_partial_batch_once() {
        let mut b = Batcher::new(BatchConfig::default());
        assert!(b.drain().is_none(), "empty batcher has nothing to drain");
        b.offer(at(0.0, 0));
        let closed = b.drain().expect("partial batch");
        assert_eq!(closed.reason, FlushReason::Drain);
        assert_eq!(closed.events.len(), 1);
        assert!(b.drain().is_none());
    }

    #[test]
    #[should_panic(expected = "max_events")]
    fn zero_count_watermark_rejected() {
        Batcher::new(BatchConfig {
            max_events: 0,
            ..BatchConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "flush_interval")]
    fn non_finite_interval_rejected() {
        Batcher::new(BatchConfig {
            flush_interval: f64::NAN,
            ..BatchConfig::default()
        });
    }
}
