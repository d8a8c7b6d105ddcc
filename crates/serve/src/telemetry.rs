//! [`EngineTelemetry`]: the engine's live telemetry plane.
//!
//! The `stats` op reports *cumulative* counters (cache hits since
//! startup, jobs submitted since startup). This module holds the
//! *windowed* state behind the `metrics` op: per-op sliding-window
//! latency quantiles, SLO budget accounting, and short gauge series
//! (queue depth, in-flight count, cache hit rate) sampled at request
//! completion.
//!
//! Two properties the serve-determinism suite pins:
//!
//! * **No scrape-time sampling.** Every sample is pushed when a
//!   request completes, never when the document renders — so two
//!   consecutive scrapes with no intervening traffic produce
//!   byte-identical bodies.
//! * **Fixed shape.** Op order, series names, and the SLO policy are
//!   declared up front, so the deterministic core of the metrics
//!   document is byte-identical across thread counts and machines;
//!   only values inside the volatile `run` section move.
//!
//! The engine always holds one `Mutex<EngineTelemetry>`, accounting
//! against [`SloPolicy::default`]; the `telemetry_overhead` bench
//! prices a sample, a cache-hit request and a scrape.

use sim_observe::timeseries::{Exposition, SloPolicy, SloTracker, TimeSeries, WindowedHistogram};
use sim_observe::{Json, LogHistogram};

/// Schema marker of the `metrics` op's JSON body.
pub const METRICS_SCHEMA: &str = "vlsi-sync/serve-metrics";
/// Version of [`METRICS_SCHEMA`].
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// Ops the engine instruments, in document order. `ping`/`stats`/
/// `metrics` are deliberately absent: introspection must not perturb
/// the numbers it reports (scrape-and-compare tests depend on it).
pub const INSTRUMENTED_OPS: [&str; 2] = ["run", "frontier"];

/// Sliding-window geometry: 60 buckets × 1000 ms = one minute.
const WINDOW_BUCKETS: usize = 60;
const BUCKET_WIDTH_MS: u64 = 1_000;
/// Gauge series capacity (one sample per completed request).
const SERIES_CAP: usize = 256;

/// Telemetry of one instrumented op.
#[derive(Debug)]
struct OpTelemetry {
    requests: u64,
    errors: u64,
    /// Cumulative latency since startup.
    latency: LogHistogram,
    /// Sliding-window latency (ticks are milliseconds since engine
    /// start).
    window: WindowedHistogram,
    slo: SloTracker,
}

impl OpTelemetry {
    fn new(policy: SloPolicy) -> Self {
        OpTelemetry {
            requests: 0,
            errors: 0,
            latency: LogHistogram::new(),
            window: WindowedHistogram::new(WINDOW_BUCKETS, BUCKET_WIDTH_MS),
            slo: SloTracker::new(policy),
        }
    }

    fn record(&mut self, tick_ms: u64, latency_ns: u64, ok: bool) {
        self.requests += 1;
        if !ok {
            self.errors += 1;
        }
        self.latency.record(latency_ns);
        self.window.record(tick_ms, latency_ns);
        self.slo.record(latency_ns, ok);
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("requests", Json::UInt(self.requests)),
            ("errors", Json::UInt(self.errors)),
            ("latency_ns", self.latency.to_json()),
            ("window", self.window.to_json()),
            ("slo", self.slo.to_json()),
        ])
    }
}

/// One completed request's gauge readings, taken by the engine outside
/// the telemetry lock.
#[derive(Debug, Clone, Copy)]
pub struct GaugeSnapshot {
    /// Outstanding pool jobs (submitted − completed).
    pub queue_depth: u64,
    /// Entries in the single-flight table.
    pub in_flight: u64,
    /// Cumulative cache hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
}

/// The engine's windowed telemetry state (behind the engine's
/// `Mutex`).
#[derive(Debug)]
pub struct EngineTelemetry {
    policy: SloPolicy,
    ops: Vec<OpTelemetry>,
    queue_depth: TimeSeries,
    in_flight: TimeSeries,
    cache_hit_rate: TimeSeries,
}

impl EngineTelemetry {
    /// Fresh telemetry accounting against `policy`.
    #[must_use]
    pub fn new(policy: SloPolicy) -> Self {
        EngineTelemetry {
            policy,
            ops: INSTRUMENTED_OPS.iter().map(|_| OpTelemetry::new(policy)).collect(),
            queue_depth: TimeSeries::new(SERIES_CAP),
            in_flight: TimeSeries::new(SERIES_CAP),
            cache_hit_rate: TimeSeries::new(SERIES_CAP),
        }
    }

    /// Records one completed request of `op` (an [`INSTRUMENTED_OPS`]
    /// name) plus the gauge readings taken at completion time.
    pub fn record(
        &mut self,
        op: &str,
        tick_ms: u64,
        latency_ns: u64,
        ok: bool,
        gauges: GaugeSnapshot,
    ) {
        if let Some(i) = INSTRUMENTED_OPS.iter().position(|&n| n == op) {
            self.ops[i].record(tick_ms, latency_ns, ok);
        }
        self.queue_depth.push(tick_ms, gauges.queue_depth as f64);
        self.in_flight.push(tick_ms, gauges.in_flight as f64);
        self.cache_hit_rate.push(tick_ms, gauges.cache_hit_rate);
    }

    /// An SLO tracker over *all* instrumented ops (for summary lines).
    #[must_use]
    pub fn slo_overall(&self) -> SloTracker {
        let mut merged = SloTracker::new(self.policy);
        for op in &self.ops {
            merged.merge(&op.slo);
        }
        merged
    }

    /// The `slo` section of the `stats` op: overall plus per-op
    /// tracker state. Fixed shape, volatile values.
    #[must_use]
    pub fn slo_json(&self) -> Json {
        let mut pairs = vec![
            ("policy".to_owned(), self.policy.to_json()),
            ("overall".to_owned(), self.slo_overall().to_json()),
        ];
        for (name, op) in INSTRUMENTED_OPS.iter().zip(&self.ops) {
            pairs.push(((*name).to_owned(), op.slo.to_json()));
        }
        Json::Object(pairs)
    }

    /// The `metrics` op's JSON body. Top-level fields outside `run`
    /// are the deterministic core (byte-identical across thread counts
    /// and idle scrapes); everything measured lives under `run`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let ops = INSTRUMENTED_OPS
            .iter()
            .zip(&self.ops)
            .map(|(name, op)| ((*name).to_owned(), op.to_json()))
            .collect();
        Json::obj(vec![
            ("schema", Json::Str(METRICS_SCHEMA.to_owned())),
            ("schema_version", Json::UInt(METRICS_SCHEMA_VERSION)),
            (
                "ops",
                Json::Array(
                    INSTRUMENTED_OPS
                        .iter()
                        .map(|n| Json::Str((*n).to_owned()))
                        .collect(),
                ),
            ),
            ("slo_policy", self.policy.to_json()),
            (
                "window",
                Json::obj(vec![
                    ("buckets", Json::UInt(WINDOW_BUCKETS as u64)),
                    ("bucket_width_ms", Json::UInt(BUCKET_WIDTH_MS)),
                ]),
            ),
            (
                "run",
                Json::obj(vec![
                    ("ops", Json::Object(ops)),
                    (
                        "series",
                        Json::obj(vec![
                            ("queue_depth", self.queue_depth.to_json()),
                            ("in_flight", self.in_flight.to_json()),
                            ("cache_hit_rate", self.cache_hit_rate.to_json()),
                        ]),
                    ),
                ]),
            ),
        ])
    }

    /// The `metrics` op's Prometheus-text body. Same sources as
    /// [`EngineTelemetry::to_json`], same no-scrape-sampling rule.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut exp = Exposition::new();
        for (name, op) in INSTRUMENTED_OPS.iter().zip(&self.ops) {
            let labels = [("op", *name)];
            exp.counter(
                "serve_requests_total",
                "Requests served per op.",
                &labels,
                op.requests,
            );
            exp.counter(
                "serve_errors_total",
                "Requests that returned an error, per op.",
                &labels,
                op.errors,
            );
            exp.quantiles(
                "serve_latency_ns",
                "Cumulative request latency quantiles, nanoseconds.",
                &labels,
                &op.latency,
            );
            exp.quantiles(
                "serve_window_latency_ns",
                "Sliding-window request latency quantiles, nanoseconds.",
                &labels,
                &op.window.merged(),
            );
            exp.gauge(
                "serve_slo_attainment",
                "Fraction of requests within the latency budget.",
                &labels,
                op.slo.attainment(),
            );
            exp.gauge(
                "serve_slo_latency_burn_rate",
                "Latency budget burn rate (1.0 = burning at the allowed rate).",
                &labels,
                op.slo.latency_burn_rate(),
            );
            exp.gauge(
                "serve_slo_error_burn_rate",
                "Error budget burn rate (1.0 = burning at the allowed rate).",
                &labels,
                op.slo.error_burn_rate(),
            );
            exp.gauge(
                "serve_slo_healthy",
                "1 when both SLO budgets hold, else 0.",
                &labels,
                if op.slo.healthy() { 1.0 } else { 0.0 },
            );
        }
        for (name, help, series) in [
            (
                "serve_queue_depth",
                "Outstanding pool jobs at last request completion.",
                &self.queue_depth,
            ),
            (
                "serve_in_flight",
                "Single-flight entries at last request completion.",
                &self.in_flight,
            ),
            (
                "serve_cache_hit_rate",
                "Cumulative cache hit rate at last request completion.",
                &self.cache_hit_rate,
            ),
        ] {
            let latest = series.latest().map_or(0.0, |s| s.value);
            exp.gauge(name, help, &[], latest);
        }
        exp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauges() -> GaugeSnapshot {
        GaugeSnapshot {
            queue_depth: 2,
            in_flight: 1,
            cache_hit_rate: 0.5,
        }
    }

    #[test]
    fn idle_scrapes_are_byte_identical() {
        let mut tel = EngineTelemetry::new(SloPolicy::default());
        tel.record("run", 5, 1_000_000, true, gauges());
        let json_a = tel.to_json().to_compact();
        let prom_a = tel.to_prometheus();
        // Rendering must not perturb state: scrape twice, same bytes.
        assert_eq!(tel.to_json().to_compact(), json_a);
        assert_eq!(tel.to_prometheus(), prom_a);
        // Wait: telemetry ticks come from requests, not wall clocks,
        // so even "later" idle scrapes stay identical.
        assert_eq!(tel.to_json().to_compact(), json_a);
        // record() was a no-op on series? No — traffic must move them.
        tel.record("run", 9, 2_000_000, true, gauges());
        assert_ne!(tel.to_json().to_compact(), json_a);
    }

    #[test]
    fn deterministic_core_is_independent_of_traffic() {
        let mut a = EngineTelemetry::new(SloPolicy::default());
        let b = EngineTelemetry::new(SloPolicy::default());
        for i in 0..50 {
            a.record(
                if i % 3 == 0 { "frontier" } else { "run" },
                i,
                i * 1_000,
                i % 7 != 0,
                gauges(),
            );
            a.record("ping", i, 1, true, gauges()); // not instrumented: op ignored
        }
        let core = |doc: Json| {
            let Json::Object(pairs) = doc else { panic!("object") };
            Json::Object(pairs.into_iter().filter(|(k, _)| k != "run").collect())
        };
        assert_eq!(
            core(a.to_json()).to_compact(),
            core(b.to_json()).to_compact(),
            "everything outside `run` is configuration, not measurement"
        );
    }

    #[test]
    fn uninstrumented_ops_still_sample_gauges() {
        let mut tel = EngineTelemetry::new(SloPolicy::default());
        tel.record("ping", 1, 500, true, gauges());
        let doc = tel.to_json();
        let ops = doc.get("run").unwrap().get("ops").unwrap();
        assert_eq!(
            ops.get("run").unwrap().get("requests"),
            Some(&Json::UInt(0)),
            "ping must not count as a run request"
        );
        let qd = doc
            .get("run")
            .unwrap()
            .get("series")
            .unwrap()
            .get("queue_depth")
            .unwrap();
        assert_eq!(qd.get("pushed"), Some(&Json::UInt(1)));
    }

    #[test]
    fn prometheus_body_carries_slo_and_quantiles() {
        let mut tel = EngineTelemetry::new(SloPolicy::default());
        for i in 0..100 {
            tel.record("run", i / 10, (i + 1) * 10_000, i != 50, gauges());
        }
        tel.record("frontier", 10, 123, true, gauges());
        let text = tel.to_prometheus();
        for needle in [
            "# TYPE serve_requests_total counter",
            "serve_requests_total{op=\"run\"} 100",
            "serve_requests_total{op=\"frontier\"} 1",
            "serve_errors_total{op=\"run\"} 1",
            "serve_latency_ns{op=\"run\",quantile=\"0.999\"}",
            "serve_window_latency_ns{op=\"run\",quantile=\"0.5\"}",
            "serve_slo_attainment{op=\"run\"}",
            "serve_slo_healthy{op=\"run\"} 1",
            "serve_queue_depth 2",
            "serve_cache_hit_rate 0.5",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn slo_json_reports_overall_and_per_op() {
        let mut tel = EngineTelemetry::new(SloPolicy::default());
        tel.record("run", 1, 1_000, true, gauges());
        tel.record("frontier", 2, 2_000, false, gauges());
        let doc = tel.slo_json();
        assert!(doc.get("policy").is_some());
        assert_eq!(
            doc.get("overall").unwrap().get("total"),
            Some(&Json::UInt(2))
        );
        assert_eq!(doc.get("run").unwrap().get("total"), Some(&Json::UInt(1)));
        assert_eq!(
            doc.get("frontier").unwrap().get("errors"),
            Some(&Json::UInt(1))
        );
        let _ = gauges(); // silence the helper when cfgs shift
    }

    #[test]
    fn gauge_snapshot_lands_in_every_series() {
        let mut tel = EngineTelemetry::new(SloPolicy::default());
        tel.record("run", 3, 1_000, true, gauges());
        let doc = tel.to_json();
        let series = doc.get("run").unwrap().get("series").unwrap();
        for name in ["queue_depth", "in_flight", "cache_hit_rate"] {
            assert_eq!(
                series.get(name).unwrap().get("pushed"),
                Some(&Json::UInt(1)),
                "series {name}"
            );
        }
    }
}
