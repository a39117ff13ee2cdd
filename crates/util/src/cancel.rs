//! Cooperative cancellation and deadline budgets for long-running solves.
//!
//! Exact solvers can take unbounded time on hostile instances; a serving
//! system needs to interrupt them and fall back to a cheaper algorithm.
//! The primitives here are deliberately cheap enough to consult from solver
//! inner loops:
//!
//! * [`CancelToken`] — a shared atomic flag another thread (or a test)
//!   flips to request early exit.
//! * [`Deadline`] — a wall-clock budget derived from [`Instant`].
//! * [`SolveCtl`] — the pair of them plus a check-interval counter, so the
//!   hot path pays one decrement per iteration and only touches the atomic
//!   / clock every `check_interval` iterations.
//!
//! Solvers accept a `&SolveCtl` and call [`SolveCtl::should_stop`] at the
//! top of each phase/augmentation/bid iteration; on `true` they return the
//! best *feasible* partial result they hold. The engine layer turns that
//! partial result into a graceful-degradation answer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared flag requesting that a solve stop at the next check point.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; all clones see it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Wall-clock budget for a solve.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// Deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            at: Instant::now() + budget,
        }
    }

    /// Deadline `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Self {
        Self::after(Duration::from_millis(ms))
    }

    /// Whether the budget is exhausted.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// How often (in iterations) a solver consults the token/clock.
///
/// Chosen so the amortized cost of `should_stop` is a counter decrement:
/// atomics and `Instant::now()` are only touched once per interval.
const DEFAULT_CHECK_INTERVAL: u32 = 1024;

/// Solver control block: optional cancellation token + optional deadline,
/// with an amortizing check counter.
///
/// Interior mutability (`Cell`) keeps the solver signatures simple: they
/// take `&SolveCtl` and can still count down.
#[derive(Debug, Clone, Default)]
pub struct SolveCtl {
    token: Option<CancelToken>,
    deadline: Option<Deadline>,
    check_interval: u32,
    countdown: std::cell::Cell<u32>,
}

impl SolveCtl {
    /// A control block that never stops a solve (the default for existing
    /// call sites).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Adds a cancellation token.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Adds a deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the amortization interval (mainly for tests; `1` checks
    /// on every call).
    pub fn with_check_interval(mut self, every: u32) -> Self {
        self.check_interval = every.max(1);
        self
    }

    /// Whether this control block can ever stop a solve.
    pub fn is_unlimited(&self) -> bool {
        self.token.is_none() && self.deadline.is_none()
    }

    /// Amortized stop check for solver inner loops.
    ///
    /// Returns `true` once cancellation was requested or the deadline
    /// passed. Cheap: most calls are a counter decrement.
    /// The countdown carries across solves: a ctl that already spent its
    /// real poll sees a cancellation only a full interval later.
    #[inline]
    pub fn should_stop(&self) -> bool {
        if self.is_unlimited() {
            return false;
        }
        let left = self.countdown.get();
        if left > 0 {
            self.countdown.set(left - 1);
            return false;
        }
        self.countdown.set(if self.check_interval == 0 {
            DEFAULT_CHECK_INTERVAL - 1
        } else {
            self.check_interval - 1
        });
        self.stop_requested()
    }

    /// Unamortized stop check (consults the atomic and the clock directly).
    /// Use at phase boundaries where the extra cost is irrelevant.
    pub fn stop_requested(&self) -> bool {
        if let Some(t) = &self.token {
            if t.is_cancelled() {
                return true;
            }
        }
        if let Some(d) = &self.deadline {
            if d.expired() {
                return true;
            }
        }
        false
    }
}

// Thread-safety contract, checked at compile time: budget primitives cross
// thread boundaries in the service's solve pool. `CancelToken` and
// `Deadline` are shared between the dispatcher and worker threads
// (`Send + Sync`); `SolveCtl` amortizes its checks through a non-atomic
// `Cell`, so a control block is owned by exactly one solving thread
// (`Send`, deliberately not `Sync`).
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<CancelToken>();
    assert_sync::<CancelToken>();
    assert_send::<Deadline>();
    assert_sync::<Deadline>();
    assert_send::<SolveCtl>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_stops() {
        let ctl = SolveCtl::unlimited();
        for _ in 0..10_000 {
            assert!(!ctl.should_stop());
        }
    }

    #[test]
    fn token_cancels_all_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
        let ctl = SolveCtl::unlimited()
            .with_token(clone)
            .with_check_interval(1);
        assert!(ctl.should_stop());
    }

    #[test]
    fn deadline_expires() {
        let d = Deadline::after(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        let ctl = SolveCtl::unlimited()
            .with_deadline(d)
            .with_check_interval(1);
        assert!(ctl.should_stop());
    }

    #[test]
    fn future_deadline_does_not_stop() {
        let ctl = SolveCtl::unlimited()
            .with_deadline(Deadline::after(Duration::from_secs(3600)))
            .with_check_interval(1);
        assert!(!ctl.should_stop());
        assert!(ctl.deadline.unwrap().remaining() > Duration::from_secs(3000));
    }

    #[test]
    fn amortization_delays_observation() {
        let t = CancelToken::new();
        let ctl = SolveCtl::unlimited()
            .with_token(t.clone())
            .with_check_interval(8);
        assert!(!ctl.should_stop()); // consumes the first real check
        t.cancel();
        let calls_until_seen = (0..100).position(|_| ctl.should_stop()).unwrap();
        assert!(calls_until_seen < 8, "seen after {calls_until_seen} calls");
    }
}
