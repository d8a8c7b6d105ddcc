//! [`EngineTelemetry`]: the engine's live telemetry plane.
//!
//! The `stats` op reports *cumulative* counters (cache hits since
//! startup, jobs submitted since startup). This module holds the state
//! behind the `metrics` op, the one telemetry document the server
//! serves: per-op request and error counts, sliding-window latency
//! quantiles and SLO budget accounting, plus the last reading of three
//! gauges (queue depth, in-flight count, cache hit rate) taken at
//! request completion. Each number is kept once: an op's request and
//! error counts are its [`SloTracker`]'s.
//!
//! Two properties the serve-determinism suite pins:
//!
//! * **No scrape-time sampling.** Every sample is taken when a
//!   request completes, never when the document renders — so two
//!   consecutive scrapes with no intervening traffic produce
//!   byte-identical bodies.
//! * **Fixed shape.** Op order, gauge names, and the SLO policy are
//!   declared up front, so the deterministic core of the metrics
//!   document is byte-identical across thread counts and machines;
//!   only values inside the volatile `run` section move.
//!
//! The engine always holds one `Mutex<EngineTelemetry>`, accounting
//! against [`SloPolicy::default`]; the `telemetry_overhead` bench
//! prices a sample, a cache-hit request and a scrape.

use sim_observe::timeseries::{SloPolicy, SloTracker, WindowedHistogram};
use sim_observe::{Json, LogHistogram};

/// Schema marker of the `metrics` op's JSON body.
pub const METRICS_SCHEMA: &str = "vlsi-sync/serve-metrics";
/// Version of [`METRICS_SCHEMA`].
pub const METRICS_SCHEMA_VERSION: u64 = 2;

/// Ops the engine instruments, in document order. `ping`/`stats`/
/// `metrics` are deliberately absent: introspection must not perturb
/// the numbers it reports (scrape-and-compare tests depend on it).
pub const INSTRUMENTED_OPS: [&str; 2] = ["run", "frontier"];

/// Sliding-window geometry: 60 buckets × 1000 ms = one minute.
const WINDOW_BUCKETS: usize = 60;
const BUCKET_WIDTH_MS: u64 = 1_000;

/// Telemetry of one instrumented op.
#[derive(Debug)]
struct OpTelemetry {
    /// Cumulative latency since startup.
    latency: LogHistogram,
    /// Sliding-window latency (ticks are milliseconds since engine
    /// start).
    window: WindowedHistogram,
    /// Budget accounting; also the op's request and error counts.
    slo: SloTracker,
}

impl OpTelemetry {
    fn new(policy: SloPolicy) -> Self {
        OpTelemetry {
            latency: LogHistogram::new(),
            window: WindowedHistogram::new(WINDOW_BUCKETS, BUCKET_WIDTH_MS),
            slo: SloTracker::new(policy),
        }
    }

    fn record(&mut self, tick_ms: u64, latency_ns: u64, ok: bool) {
        self.latency.record(latency_ns);
        self.window.record(tick_ms, latency_ns);
        self.slo.record(latency_ns, ok);
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("requests", Json::UInt(self.slo.total())),
            ("errors", Json::UInt(self.slo.errors())),
            ("latency_ns", self.latency.to_json()),
            ("window", self.window.to_json()),
            ("slo", self.slo.to_json()),
        ])
    }
}

/// One completed request's gauge readings, taken by the engine outside
/// the telemetry lock.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaugeSnapshot {
    /// Outstanding pool jobs (submitted − completed).
    pub queue_depth: u64,
    /// Entries in the single-flight table.
    pub in_flight: u64,
    /// Cumulative cache hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
}

/// The engine's telemetry state (behind the engine's `Mutex`).
#[derive(Debug)]
pub struct EngineTelemetry {
    ops: [OpTelemetry; INSTRUMENTED_OPS.len()],
    /// Gauges as the last completed request read them (all zero
    /// before the first).
    gauges: GaugeSnapshot,
}

impl EngineTelemetry {
    /// Fresh telemetry accounting against `policy`.
    #[must_use]
    pub fn new(policy: SloPolicy) -> Self {
        EngineTelemetry {
            ops: INSTRUMENTED_OPS.map(|_| OpTelemetry::new(policy)),
            gauges: GaugeSnapshot::default(),
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
        self.gauges = gauges;
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
            ("slo_policy", self.ops[0].slo.policy().to_json()),
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
                        "gauges",
                        Json::obj(vec![
                            ("queue_depth", Json::UInt(self.gauges.queue_depth)),
                            ("in_flight", Json::UInt(self.gauges.in_flight)),
                            ("cache_hit_rate", Json::Float(self.gauges.cache_hit_rate)),
                        ]),
                    ),
                ]),
            ),
        ])
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
        // Rendering must not perturb state: scrape twice, same bytes.
        assert_eq!(tel.to_json().to_compact(), json_a);
        // Telemetry ticks come from requests, not wall clocks, so even
        // "later" idle scrapes stay identical.
        assert_eq!(tel.to_json().to_compact(), json_a);
        // Traffic, on the other hand, must move the document.
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
            .get("gauges")
            .unwrap()
            .get("queue_depth")
            .unwrap();
        assert_eq!(qd, &Json::UInt(2), "ping's gauge reading is kept");
    }

    #[test]
    fn requests_and_errors_are_the_slo_counts() {
        let mut tel = EngineTelemetry::new(SloPolicy::default());
        for i in 0..10 {
            tel.record("run", i, 1_000, i % 4 != 0, gauges());
        }
        tel.record("frontier", 10, 1_000, false, gauges());
        let doc = tel.to_json();
        for (op, requests, errors) in [("run", 10, 3), ("frontier", 1, 1)] {
            let o = doc.get("run").unwrap().get("ops").unwrap().get(op).unwrap();
            let slo = o.get("slo").unwrap();
            assert_eq!(o.get("requests"), Some(&Json::UInt(requests)), "{op}");
            assert_eq!(o.get("errors"), Some(&Json::UInt(errors)), "{op}");
            assert_eq!(o.get("requests"), slo.get("total"), "{op}");
            assert_eq!(o.get("errors"), slo.get("errors"), "{op}");
        }
    }

    #[test]
    fn gauge_snapshot_lands_in_every_gauge() {
        let mut tel = EngineTelemetry::new(SloPolicy::default());
        let fresh = tel.to_json();
        tel.record("run", 3, 1_000, true, gauges());
        let doc = tel.to_json();
        let read = |doc: &Json| doc.get("run").unwrap().get("gauges").unwrap().to_compact();
        assert_eq!(
            read(&fresh),
            r#"{"queue_depth":0,"in_flight":0,"cache_hit_rate":0.0}"#,
            "no request, no reading"
        );
        assert_eq!(
            read(&doc),
            r#"{"queue_depth":2,"in_flight":1,"cache_hit_rate":0.5}"#
        );
        // The last reading wins.
        let later = GaugeSnapshot { queue_depth: 7, in_flight: 0, cache_hit_rate: 0.75 };
        tel.record("frontier", 4, 1_000, true, later);
        assert_eq!(
            read(&tel.to_json()),
            r#"{"queue_depth":7,"in_flight":0,"cache_hit_rate":0.75}"#
        );
    }
}
