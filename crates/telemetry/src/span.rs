//! Lightweight timing spans.
//!
//! A [`Span`] is a monotonic-clock stopwatch tied to a static name: on
//! drop it observes the elapsed milliseconds into the global histogram
//! `<name>_ms`. Attributes recorded while the span is open accumulate
//! into counters `<name>_<key>_total`. Spans nest naturally — a
//! thread-local depth tracks the current nesting level purely for
//! introspection ([`Span::depth`]) and tests; timing is per-span, so a
//! parent's histogram includes its children's time, which is what phase
//! breakdowns want.
//!
//! When recording is switched off at runtime via [`crate::set_enabled`],
//! `enter` skips the clock read — the cost is one relaxed atomic load.

use std::cell::Cell;
use std::time::Instant;

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// An open timing span. See the module docs.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Opens a span named `name`. Records nothing if telemetry is
    /// disabled at runtime.
    pub fn enter(name: &'static str) -> Self {
        let start = if crate::enabled() {
            DEPTH.with(|d| d.set(d.get() + 1));
            Some(Instant::now())
        } else {
            None
        };
        Span { name, start }
    }

    /// Adds `n` to the counter `<name>_<key>_total`.
    pub fn attr(&self, key: &str, n: u64) {
        if self.start.is_some() {
            crate::global()
                .counter(&format!("{}_{key}_total", self.name))
                .add(n);
        }
    }

    /// Current span nesting depth on this thread (open spans,
    /// including this one).
    pub fn depth() -> usize {
        DEPTH.with(|d| d.get())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            crate::global()
                .histogram(&format!("{}_ms", self.name))
                .observe(ms);
        }
    }
}

/// Opens a [`Span`] for the enclosing scope: `let _s = span!("mbta_core_engine_solve");`
///
/// The span's histogram is `<name>_ms`; bind it to a named variable (not
/// `_`) so it lives to the end of the scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_named_histogram_and_nests() {
        let _g = crate::test_flag_guard();
        let hist = crate::global().histogram("test_span_outer_ms");
        let before = hist.count();
        {
            let outer = Span::enter("test_span_outer");
            assert_eq!(Span::depth(), 1);
            outer.attr("items", 3);
            outer.attr("items", 2);
            {
                let _inner = span!("test_span_inner");
                assert_eq!(Span::depth(), 2);
            }
            assert_eq!(Span::depth(), 1);
        }
        assert_eq!(Span::depth(), 0);
        assert_eq!(hist.count(), before + 1);
        assert_eq!(
            crate::global().counter("test_span_outer_items_total").get(),
            5
        );
        assert_eq!(crate::global().histogram("test_span_inner_ms").count(), 1);
    }
}
