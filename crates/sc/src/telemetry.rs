//! Shared telemetry primitives: relaxed atomic counters and scoped
//! stopwatches, always live.
//!
//! Every layer of the stack (engine resolve/compute, program execution,
//! the performance simulator, bench harnesses) attributes its work
//! through these two types, so the instrumentation has one cost model:
//!
//! * [`Counter`] — a relaxed [`AtomicU64`]. Totals are exact integer
//!   sums, so they are **bit-identical at every thread count** regardless
//!   of scheduling (addition is commutative); hot loops accumulate into a
//!   local `u64` and flush once per row, so the atomic is touched a
//!   handful of times per layer, not per MAC.
//! * [`Stopwatch`] — wall-clock phase timing. Times are *not* part of any
//!   determinism contract (they measure the host), only the counters are.
//!
//! DESIGN.md §12 gives the counting rules that keep the always-on cost
//! inside benchmark noise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonically increasing event counter (a relaxed atomic). See the
/// module docs for the determinism argument.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A wall-clock stopwatch for scoped phase timing.
///
/// [`Stopwatch::start`] then [`Stopwatch::elapsed_ns`]; typically the
/// elapsed time is folded into a [`Counter`] holding accumulated
/// nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`] (saturating).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets() {
        let c = Counter::new();
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn counter_sums_are_exact_across_threads() {
        use std::sync::Arc;
        let c = Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
