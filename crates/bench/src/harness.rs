//! Experiment trait, scale control, timing and parallel-sweep helpers.

use mbta_util::table::Table;
use std::sync::Mutex;
use std::time::Instant;

/// How big the experiment grids are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Shrunken grids — seconds per experiment; used by the harness's own
    /// integration tests and for smoke runs.
    Quick,
    /// The full grids the committed results use.
    Full,
}

impl Scale {
    /// Picks the per-scale variant of a grid.
    pub fn pick<T: Clone>(&self, quick: &[T], full: &[T]) -> Vec<T> {
        match self {
            Scale::Quick => quick.to_vec(),
            Scale::Full => full.to_vec(),
        }
    }
}

/// One reproducible experiment (a table or figure of the evaluation).
pub trait Experiment: Sync {
    /// Short id (`t1`, `f2`, …) used on the command line and as CSV name.
    fn id(&self) -> &'static str;
    /// Human title echoed above the rendered table.
    fn title(&self) -> &'static str;
    /// Runs the experiment, returning one or more tables.
    fn run(&self, scale: Scale) -> Vec<Table>;
}

/// Times one invocation of `f` in seconds, returning `(result, secs)`.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Minimum wall time over `reps` invocations (min is the standard noise
/// filter for single-shot macro timings).
pub fn time_best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    assert!(reps >= 1);
    let (mut best_r, mut best_t) = time_once(&mut f);
    for _ in 1..reps {
        let (r, t) = time_once(&mut f);
        if t < best_t {
            best_t = t;
            best_r = r;
        }
    }
    (best_r, best_t)
}

/// The locks in [`parallel_map`] are released before `f` runs.
const POISON: &str = "a lock is never held across a call that can panic";

/// Maps `f` over `items` on scoped threads, preserving order.
///
/// Grid points are independent (each builds its own instance), so the sweep
/// parallelizes trivially; timing-sensitive experiments should NOT use this
/// (co-running points perturb each other) — they run sequentially instead.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let work: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));
    crossbeam::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| loop {
                let item = work.lock().expect(POISON).pop();
                match item {
                    Some((i, t)) => {
                        let r = f(t);
                        results.lock().expect(POISON)[i] = Some(r);
                    }
                    None => break,
                }
            });
        }
    })
    .expect("worker thread panicked");
    results
        .into_inner()
        .expect(POISON)
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        let s = Scale::Quick.pick(&[1, 2], &[10, 20, 30]);
        assert_eq!(s, vec![1, 2]);
        let f = Scale::Full.pick(&[1, 2], &[10, 20, 30]);
        assert_eq!(f, vec![10, 20, 30]);
    }

    #[test]
    fn timing_returns_result() {
        let (r, t) = time_once(|| 6 * 7);
        assert_eq!(r, 42);
        assert!(t >= 0.0);
        let (r, _) = time_best_of(3, || "x");
        assert_eq!(r, "x");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect::<Vec<i32>>(), |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<i32>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }
}
