//! Live telemetry primitives: sliding-window histograms and SLO
//! accounting.
//!
//! Everything in [`hist`](crate::hist)/[`metrics`](crate::metrics) is
//! *cumulative* — counters since startup, one histogram over the whole
//! run. That is the right shape for post-hoc reports but useless for a
//! live view: a server that has been up for a week answers "what is
//! p99 *now*?" from the last few seconds, not from startup. This
//! module adds the windowed side:
//!
//! * [`WindowedHistogram`] — a rotating ring of [`LogHistogram`]
//!   buckets over a tick window, giving *sliding* p50/p95/p99/p999:
//!   old buckets age out instead of diluting the tail forever;
//! * [`SloPolicy`] / [`SloTracker`] — a latency budget plus an
//!   error-rate budget, with burn-rate accounting (how fast the error
//!   budget is being consumed relative to the policy's allowance).
//!
//! Ticks are opaque `u64`s supplied by the caller (typically
//! milliseconds since start), so nothing here ever reads a wall clock
//! itself — which is what keeps telemetry *documents* deterministic
//! when no samples arrive between two renders. The
//! `telemetry_overhead` bench prices one record of each.

use crate::hist::LogHistogram;
use crate::json::Json;

/// A sliding-window histogram: `buckets` rotating [`LogHistogram`]s,
/// each covering `bucket_width` ticks. Recording into a tick beyond
/// the current bucket's span retires the oldest bucket(s); quantile
/// queries merge the live buckets, so `p999()` reflects roughly the
/// last `buckets × bucket_width` ticks instead of all of history.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    buckets: Vec<LogHistogram>,
    /// Ticks covered by one bucket.
    bucket_width: u64,
    /// Index of the bucket samples currently land in.
    current: usize,
    /// First tick of the current bucket's span.
    epoch: u64,
    /// Lifetime sample count (aged-out samples included).
    recorded: u64,
}

impl WindowedHistogram {
    /// A window of `buckets` buckets (floor 2), each `bucket_width`
    /// ticks wide (floor 1).
    #[must_use]
    pub fn new(buckets: usize, bucket_width: u64) -> Self {
        WindowedHistogram {
            buckets: vec![LogHistogram::new(); buckets.max(2)],
            bucket_width: bucket_width.max(1),
            current: 0,
            epoch: 0,
            recorded: 0,
        }
    }

    /// Ticks covered by the full window.
    #[must_use]
    pub fn window_ticks(&self) -> u64 {
        self.bucket_width * self.buckets.len() as u64
    }

    /// Lifetime number of recorded samples.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Rotates buckets so `tick` lands in the current one. Ticks are
    /// expected to be non-decreasing; a stale tick records into the
    /// current bucket rather than rewriting history.
    fn rotate_to(&mut self, tick: u64) {
        while tick >= self.epoch + self.bucket_width {
            // Advancing by a whole window clears everything at once
            // instead of stepping bucket by bucket through dead time.
            if tick - self.epoch >= 2 * self.window_ticks() {
                for b in &mut self.buckets {
                    *b = LogHistogram::new();
                }
                self.epoch = tick - tick % self.bucket_width;
                return;
            }
            self.current = (self.current + 1) % self.buckets.len();
            self.buckets[self.current] = LogHistogram::new();
            self.epoch += self.bucket_width;
        }
    }

    /// Records `value` at `tick`, retiring aged-out buckets first.
    pub fn record(&mut self, tick: u64, value: u64) {
        self.rotate_to(tick);
        self.buckets[self.current].record(value);
        self.recorded += 1;
    }

    /// The merged histogram over the live window.
    #[must_use]
    pub fn merged(&self) -> LogHistogram {
        let mut out = LogHistogram::new();
        for b in &self.buckets {
            out.merge(b);
        }
        out
    }

    /// Sliding `q`-quantile over the window (`None` when empty).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<u64> {
        self.merged().percentile(q)
    }

    /// Deterministic JSON: window configuration plus the merged
    /// histogram summary (`count/min/mean/p50/p95/p99/p999/max`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("buckets", Json::UInt(self.buckets.len() as u64)),
            ("bucket_width", Json::UInt(self.bucket_width)),
            ("recorded", Json::UInt(self.recorded)),
            ("window", self.merged().to_json()),
        ])
    }
}

/// An SLO: a latency budget ("`target` of requests answer within
/// `latency_budget_ns`") plus an error budget ("at most `error_budget`
/// of requests may fail").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Per-request latency budget in nanoseconds.
    pub latency_budget_ns: u64,
    /// Required fraction of requests within the latency budget,
    /// in `(0, 1]`.
    pub target: f64,
    /// Allowed fraction of failed requests, in `[0, 1]`.
    pub error_budget: f64,
}

impl Default for SloPolicy {
    /// 99 % of requests within 50 ms, at most 1 % errors — sized for
    /// the fast-mode experiment mix the serve subsystem benches with.
    fn default() -> Self {
        SloPolicy {
            latency_budget_ns: 50_000_000,
            target: 0.99,
            error_budget: 0.01,
        }
    }
}

impl SloPolicy {
    /// Deterministic JSON of the policy itself (configuration, not
    /// state — belongs in a report's exact-compared section).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("latency_budget_ns", Json::UInt(self.latency_budget_ns)),
            ("target", Json::Float(self.target)),
            ("error_budget", Json::Float(self.error_budget)),
        ])
    }
}

/// Running SLO state under an [`SloPolicy`]: per-request accounting of
/// latency-budget attainment and error-budget burn.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTracker {
    policy: SloPolicy,
    total: u64,
    within_budget: u64,
    errors: u64,
}

impl SloTracker {
    /// An empty tracker under `policy`.
    #[must_use]
    pub fn new(policy: SloPolicy) -> Self {
        SloTracker {
            policy,
            total: 0,
            within_budget: 0,
            errors: 0,
        }
    }

    /// The policy this tracker accounts against.
    #[must_use]
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Records one request: its latency and whether it succeeded.
    /// Failed requests never count toward the latency attainment
    /// (a fast error is still an error).
    pub fn record(&mut self, latency_ns: u64, ok: bool) {
        self.total += 1;
        if !ok {
            self.errors += 1;
        } else if latency_ns <= self.policy.latency_budget_ns {
            self.within_budget += 1;
        }
    }

    /// Folds another tracker's counts into this one (policies must
    /// agree for the result to mean anything; the caller owns that).
    pub fn merge(&mut self, other: &SloTracker) {
        self.total += other.total;
        self.within_budget += other.within_budget;
        self.errors += other.errors;
    }

    /// Requests recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Failed requests recorded.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Fraction of requests within the latency budget (1.0 when no
    /// requests were recorded — an idle service is not violating).
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.within_budget as f64 / self.total as f64
        }
    }

    /// Fraction of requests that failed (0.0 when none recorded).
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.errors as f64 / self.total as f64
        }
    }

    /// Latency-budget burn rate: observed miss fraction over the
    /// allowed miss fraction `1 - target`. 1.0 means the budget burns
    /// exactly as fast as the policy allows; above 1.0 the SLO is
    /// being violated. 0.0 with no allowance configured.
    #[must_use]
    pub fn latency_burn_rate(&self) -> f64 {
        let allowed = (1.0 - self.policy.target).max(0.0);
        if allowed <= 0.0 {
            return if self.attainment() < 1.0 { f64::INFINITY } else { 0.0 };
        }
        (1.0 - self.attainment()) / allowed
    }

    /// Error-budget burn rate: observed error rate over the allowed
    /// error rate. Same reading as [`SloTracker::latency_burn_rate`].
    #[must_use]
    pub fn error_burn_rate(&self) -> f64 {
        if self.policy.error_budget <= 0.0 {
            return if self.errors > 0 { f64::INFINITY } else { 0.0 };
        }
        self.error_rate() / self.policy.error_budget
    }

    /// Whether both budgets currently hold.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.attainment() >= self.policy.target
            && self.error_rate() <= self.policy.error_budget
    }

    /// Deterministic-shape JSON of the tracker's state (values are
    /// measured, so it belongs in a report's volatile section).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total", Json::UInt(self.total)),
            ("within_budget", Json::UInt(self.within_budget)),
            ("errors", Json::UInt(self.errors)),
            ("attainment", Json::Float(self.attainment())),
            ("error_rate", Json::Float(self.error_rate())),
            ("latency_burn_rate", Json::Float(self.latency_burn_rate())),
            ("error_burn_rate", Json::Float(self.error_burn_rate())),
            ("healthy", Json::Bool(self.healthy())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_histogram_ages_out_old_buckets() {
        let mut wh = WindowedHistogram::new(4, 100);
        // Fill the first bucket with large values.
        for _ in 0..100 {
            wh.record(0, 1_000_000);
        }
        assert_eq!(wh.percentile(50.0), Some(wh.merged().p50().unwrap()));
        assert!(wh.percentile(99.0).unwrap() >= 900_000);
        // Advance past the whole window recording small values: the
        // big samples must be gone from the sliding quantiles.
        for tick in 0..100 {
            wh.record(1_000 + tick * 10, 10);
        }
        assert!(
            wh.percentile(99.9).unwrap() <= 15,
            "aged-out samples must not pollute the sliding tail"
        );
        assert_eq!(wh.recorded(), 200, "lifetime count survives aging");
    }

    #[test]
    fn windowed_histogram_rotates_incrementally_within_the_window() {
        let mut wh = WindowedHistogram::new(4, 10);
        wh.record(0, 100); // bucket of ticks 0..10
        wh.record(15, 200); // bucket of ticks 10..20
        wh.record(25, 300); // bucket of ticks 20..30
        // All three buckets are still live: window spans 40 ticks.
        let merged = wh.merged();
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.min(), Some(100));
        assert_eq!(merged.max(), Some(300));
        // One more rotation retires the first bucket.
        wh.record(45, 400);
        let merged = wh.merged();
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.min(), Some(200), "tick-0 bucket aged out");
    }

    #[test]
    fn stale_ticks_do_not_rewrite_history() {
        let mut wh = WindowedHistogram::new(2, 10);
        wh.record(25, 7);
        wh.record(3, 9); // stale: lands in the current bucket
        assert_eq!(wh.merged().count(), 2);
    }

    #[test]
    fn slo_tracker_accounts_attainment_and_burn() {
        let policy = SloPolicy {
            latency_budget_ns: 1_000,
            target: 0.9,
            error_budget: 0.1,
        };
        let mut slo = SloTracker::new(policy);
        assert!(slo.healthy(), "an idle service meets its SLO");
        assert_eq!(slo.attainment(), 1.0);
        assert_eq!(slo.latency_burn_rate(), 0.0);
        for _ in 0..8 {
            slo.record(500, true); // fast, ok
        }
        slo.record(5_000, true); // slow, ok
        slo.record(100, false); // fast, error
        assert_eq!(slo.total(), 10);
        assert_eq!(slo.errors(), 1);
        // 8 of 10 within budget (the error does not count as within).
        assert!((slo.attainment() - 0.8).abs() < 1e-12);
        assert!((slo.error_rate() - 0.1).abs() < 1e-12);
        // Miss fraction 0.2 over allowance 0.1 = burning at 2x.
        assert!((slo.latency_burn_rate() - 2.0).abs() < 1e-12);
        assert!((slo.error_burn_rate() - 1.0).abs() < 1e-12);
        assert!(!slo.healthy(), "attainment 0.8 < target 0.9");
    }

    #[test]
    fn slo_merge_equals_recording_in_one() {
        let policy = SloPolicy::default();
        let mut a = SloTracker::new(policy);
        let mut b = SloTracker::new(policy);
        let mut whole = SloTracker::new(policy);
        for i in 0..100u64 {
            let ns = i * 1_000_000;
            let ok = i % 7 != 0;
            if i % 2 == 0 { &mut a } else { &mut b }.record(ns, ok);
            whole.record(ns, ok);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn zero_allowance_burn_rates_saturate() {
        let policy = SloPolicy {
            latency_budget_ns: 10,
            target: 1.0,
            error_budget: 0.0,
        };
        let mut slo = SloTracker::new(policy);
        assert_eq!(slo.latency_burn_rate(), 0.0);
        assert_eq!(slo.error_burn_rate(), 0.0);
        slo.record(100, true); // over budget
        slo.record(5, false); // error
        assert!(slo.latency_burn_rate().is_infinite());
        assert!(slo.error_burn_rate().is_infinite());
    }

    #[test]
    fn slo_json_has_a_fixed_shape() {
        let doc = SloTracker::new(SloPolicy::default()).to_json();
        for field in [
            "total",
            "within_budget",
            "errors",
            "attainment",
            "error_rate",
            "latency_burn_rate",
            "error_burn_rate",
            "healthy",
        ] {
            assert!(doc.get(field).is_some(), "missing {field}");
        }
        assert_eq!(
            SloPolicy::default().to_json().to_compact(),
            r#"{"latency_budget_ns":50000000,"target":0.99,"error_budget":0.01}"#
        );
    }
}
