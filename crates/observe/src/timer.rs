//! Monotonic span timers over `std::time::Instant`.
//!
//! Wall-clock numbers are *volatile* telemetry: they belong in the
//! `run` section of a JSON report (and are compared with percentage
//! bands, never exactly). The types here make the measuring side
//! one-liners.

use std::time::{Duration, Instant};

/// A started monotonic span.
///
/// # Examples
///
/// ```
/// use sim_observe::SpanTimer;
///
/// let span = SpanTimer::start();
/// let out = (0..1000u64).sum::<u64>();
/// assert!(out > 0);
/// assert!(span.elapsed().as_nanos() > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer {
    start: Instant,
}

impl SpanTimer {
    /// Starts a span now.
    #[must_use]
    pub fn start() -> Self {
        SpanTimer {
            start: Instant::now(),
        }
    }

    /// Time elapsed since the span started.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in (fractional) milliseconds.
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

/// A duration as saturating nanoseconds (histograms take `u64`).
#[must_use]
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_measures_elapsed_time() {
        let span = SpanTimer::start();
        std::hint::black_box((0..10_000u64).sum::<u64>());
        let d = span.elapsed();
        assert!(d.as_nanos() > 0);
        assert!(span.elapsed() >= d, "a span's clock only moves forward");
        assert!(span.elapsed_ms() >= d.as_secs_f64() * 1e3);
    }

    #[test]
    fn duration_ns_saturates() {
        assert_eq!(duration_ns(Duration::from_nanos(5)), 5);
        assert_eq!(duration_ns(Duration::MAX), u64::MAX);
    }
}
