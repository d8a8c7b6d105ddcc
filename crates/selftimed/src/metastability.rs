//! Metastability: why the hybrid scheme gates clocks instead of
//! sampling asynchronous signals.
//!
//! Section VI notes that subordinating the local clocks to the
//! self-timed network "avoids the possibility of synchronization
//! failure due to a flip-flop entering a metastable state, since an
//! element stops its clock synchronously and has its clock started
//! asynchronously". A conventional synchronizer, by contrast, samples
//! an asynchronous signal with a free-running clock and accepts a
//! small per-event failure probability.
//!
//! [`MetastabilityModel`] provides the standard exponential-resolution
//! model and Monte-Carlo counters for both disciplines.

use sim_runtime::{ParallelSweep, Rng};

/// Exponential-resolution metastability model: an event landing
/// within `window` of a sampling edge goes metastable, and a
/// metastable state still unresolved after slack `t` occurs with
/// probability `e^(−t/tau)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetastabilityModel {
    window: f64,
    tau: f64,
}

impl MetastabilityModel {
    /// Creates a model with aperture `window` and resolution time
    /// constant `tau`.
    ///
    /// # Panics
    ///
    /// Panics unless both are positive.
    #[must_use]
    pub fn new(window: f64, tau: f64) -> Self {
        assert!(window > 0.0, "window must be positive");
        assert!(tau > 0.0, "tau must be positive");
        MetastabilityModel { window, tau }
    }

    /// Aperture window around a sampling edge.
    #[must_use]
    pub fn window(&self) -> f64 {
        self.window
    }

    /// Resolution time constant.
    #[must_use]
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Probability that one asynchronous event, uniformly phased
    /// against a free-running clock of the given `period`, produces a
    /// failure after `slack` settle time:
    /// `(window / period) · e^(−slack/tau)`.
    ///
    /// # Panics
    ///
    /// Panics unless `period > window` and `slack ≥ 0`.
    #[must_use]
    pub fn failure_probability(&self, period: f64, slack: f64) -> f64 {
        assert!(period > self.window, "period must exceed the window");
        assert!(slack >= 0.0, "slack must be non-negative");
        (self.window / period) * (-slack / self.tau).exp()
    }

    /// Monte-Carlo count of metastable captures when `events`
    /// uniformly-phased asynchronous arrivals are sampled by a
    /// free-running clock: an arrival within `window` of an edge goes
    /// metastable. Events are split into fixed chunks of 8192 that fan
    /// out across a [`ParallelSweep`], each chunk drawing from its own
    /// per-trial stream, so the count depends only on `seed` — never
    /// on the worker count.
    ///
    /// # Panics
    ///
    /// Panics unless `period > window`.
    #[must_use]
    pub fn count_naive_failures_par(
        &self,
        events: usize,
        period: f64,
        seed: u64,
        sweep: &ParallelSweep,
    ) -> usize {
        assert!(period > self.window, "period must exceed the window");
        const CHUNK: usize = 8192;
        let chunks = events.div_ceil(CHUNK);
        sweep
            .run(0..chunks, seed, |i, rng| {
                let n = CHUNK.min(events - i * CHUNK);
                (0..n)
                    .filter(|_| {
                        let phase: f64 = rng.gen_range(0.0..period);
                        let dist_to_edge = phase.min(period - phase);
                        dist_to_edge < self.window / 2.0
                    })
                    .count()
            })
            .into_iter()
            .sum()
    }

    /// The stoppable-clock discipline of the hybrid scheme: the clock
    /// is stopped *synchronously* and restarted only after the
    /// handshake network asserts the asynchronous condition, so no
    /// sampling edge can coincide with an input change — structurally
    /// zero metastable captures, for any number of events.
    ///
    /// (This function exists to make the comparison explicit in
    /// experiment code; it is the constant 0.)
    #[must_use]
    pub fn count_stoppable_clock_failures(&self, events: usize) -> usize {
        let _ = events;
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_probability_shrinks_with_slack() {
        let m = MetastabilityModel::new(0.1, 0.5);
        let p0 = m.failure_probability(10.0, 0.0);
        let p1 = m.failure_probability(10.0, 1.0);
        let p2 = m.failure_probability(10.0, 2.0);
        assert!(p0 > p1 && p1 > p2);
        assert!((p0 - 0.01).abs() < 1e-12);
    }

    #[test]
    fn naive_sampling_fails_at_expected_rate() {
        let m = MetastabilityModel::new(0.2, 0.5);
        let events = 200_000;
        let failures = m.count_naive_failures_par(events, 10.0, 3, &ParallelSweep::new(1));
        let expected = events as f64 * 0.2 / 10.0;
        let ratio = failures as f64 / expected;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn stoppable_clock_never_fails() {
        let m = MetastabilityModel::new(0.2, 0.5);
        assert_eq!(m.count_stoppable_clock_failures(1_000_000), 0);
        // While naive sampling of the same traffic does fail.
        assert!(m.count_naive_failures_par(1_000_000, 10.0, 4, &ParallelSweep::new(1)) > 0);
    }

    #[test]
    fn parallel_naive_count_is_thread_count_invariant() {
        let m = MetastabilityModel::new(0.2, 0.5);
        let events = 100_000; // spans several 8192-event chunks
        let base = m.count_naive_failures_par(events, 10.0, 3, &ParallelSweep::new(1));
        for threads in [2, 4] {
            assert_eq!(
                base,
                m.count_naive_failures_par(events, 10.0, 3, &ParallelSweep::new(threads)),
                "threads {threads} diverged"
            );
        }
        let expected = events as f64 * 0.2 / 10.0;
        let ratio = base as f64 / expected;
        assert!((0.85..1.15).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "exceed the window")]
    fn rejects_period_inside_window() {
        let m = MetastabilityModel::new(1.0, 0.5);
        let _ = m.failure_probability(0.5, 0.0);
    }
}
