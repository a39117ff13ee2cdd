//! Lightweight timing spans.
//!
//! A [`Span`] is a monotonic-clock stopwatch tied to a call site: on drop
//! it observes the elapsed milliseconds into the global histogram
//! `<name>_ms`, which [`span!`](crate::span!) looks up once per call site and keeps in
//! a `static` [`Site`], so a span's drop reads the clock and records and
//! does nothing else. Spans are stack guards, so they nest lexically;
//! timing is per-span, so a parent's histogram includes its children's
//! time, which is what phase breakdowns want.
//!
//! When recording is switched off at runtime via [`crate::set_enabled`],
//! `enter` skips the clock read — the cost is one relaxed atomic load.

use crate::{Histogram, Site};
use std::time::Instant;

/// An open timing span. See the module docs.
#[derive(Debug)]
pub struct Span {
    hist: &'static Site<Histogram>,
    start: Option<Instant>,
}

impl Span {
    /// Opens a span that records into `hist` when it drops; [`span!`](crate::span!)
    /// builds the site. Records nothing if telemetry is disabled at
    /// runtime.
    pub fn enter(hist: &'static Site<Histogram>) -> Self {
        let start = crate::enabled().then(Instant::now);
        Span { hist, start }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.get().observe(start.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// Opens a [`Span`] for the enclosing scope: `let _s = span!("mbta_core_engine_solve");`
///
/// `name` is a string literal; the span's histogram is `<name>_ms`, cached
/// per call site. Bind the span to a named variable (not `_`) so it lives
/// to the end of the scope.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static SITE: $crate::Site<$crate::Histogram> =
            $crate::Site::new(concat!($name, "_ms"), $crate::Registry::histogram);
        $crate::Span::enter(&SITE)
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn nested_spans_record_once_each_into_their_histograms() {
        let _g = crate::test_flag_guard();
        let outer = crate::global().histogram("test_span_outer_ms");
        let before = outer.count();
        {
            let _outer = span!("test_span_outer");
            {
                let _inner = span!("test_span_inner");
            }
        }
        let inner = crate::global().histogram("test_span_inner_ms");
        assert_eq!(outer.count(), before + 1);
        assert_eq!(inner.count(), 1);
        assert!(
            outer.sum() >= inner.sum(),
            "the outer span encloses the inner"
        );
    }
}
