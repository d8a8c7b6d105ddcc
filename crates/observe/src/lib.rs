//! Zero-dependency telemetry for the Fisher–Kung reproduction.
//!
//! The paper's own contribution hinges on measurement — Section VII
//! instruments a 2048-inverter string to turn a theory of clock skew
//! into numbers — and this crate is the workspace's measuring
//! substrate: every experiment serializes a structured,
//! schema-stable report through it, and the `bench_regress` gate diffs
//! those reports against committed baselines.
//!
//! Its modules, all `std`-only (the tier-1 gate builds offline):
//!
//! * [`json`] — a deterministic JSON value/serializer/parser
//!   ([`Json`]). Objects are insertion-ordered pair lists, numbers use
//!   shortest round-trip formatting, non-finite floats become `null`;
//!   the same tree always serializes to the same bytes.
//! * [`hist`] — [`LogHistogram`] (log-scale buckets, exact
//!   count/min/max/mean, ≈6 % `p50`/`p95`/`p99`), which holds sweep
//!   trial timings, recovery latencies and serve latency windows.
//! * [`metrics`] — the [`Metrics`] registry of counters and gauges
//!   with sorted-key snapshots.
//! * [`timer`] — [`SpanTimer`] monotonic spans for the volatile
//!   (wall-clock) side of a report.
//! * [`timeseries`] — the *live* side: sliding-window
//!   [`WindowedHistogram`] quantiles and [`SloPolicy`]/[`SloTracker`]
//!   budget accounting, which the serve `metrics` op reports.
//! * [`vcd`] — [`VcdWriter`], value-change dumps for waveform viewers,
//!   fed by simulated wires and analytic models alike.
//! * [`trace`] + [`check`] — `sim-trace`: typed per-event tracing into
//!   bounded ring buffers ([`TraceBuf`] → [`Trace`]), exported as
//!   Chrome/Perfetto trace-event JSON or a deterministic text form,
//!   plus an offline checker ([`check_trace`]) validating clock
//!   non-overlap (A4), handshake ordering (Section VI), and monotone
//!   event time.
//!
//! Hot-path discipline: nothing here belongs *inside* an event loop.
//! Hot code keeps plain local `u64` counters (see
//! `netlist::EngineStats`) and flushes them into a [`Metrics`]
//! once, after the loop.
//!
//! # Examples
//!
//! ```
//! use sim_observe::{Json, Metrics};
//!
//! let mut m = Metrics::new();
//! m.add("events", 3);
//! m.gauge("utilization", 0.75);
//! let snapshot = m.to_json();
//! assert_eq!(snapshot.get("counters").unwrap().get("events"), Some(&Json::UInt(3)));
//! // Deterministic bytes: sorted keys, stable number formatting.
//! let text = snapshot.to_pretty();
//! assert_eq!(sim_observe::json::parse(&text).unwrap().to_pretty(), text);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod timer;
pub mod timeseries;
pub mod trace;
pub mod vcd;

pub use check::{check_trace, CheckReport, Violation};
pub use hist::LogHistogram;
pub use json::{fmt_f64, fnv1a64, parse, parse_with_limits, Json, JsonError, ParseLimits};
pub use metrics::Metrics;
pub use timer::{duration_ns, SpanTimer};
pub use timeseries::{SloPolicy, SloTracker, WindowedHistogram};
pub use trace::{
    ps_from_units, PathStep, Trace, TraceBuf, TraceEvent, WallSpan, DEFAULT_TRACE_CAPACITY,
};
pub use vcd::VcdWriter;

/// One-stop imports for instrumented code.
pub mod prelude {
    pub use crate::check::{check_trace, CheckReport, Violation};
    pub use crate::hist::LogHistogram;
    pub use crate::json::{fnv1a64, parse, parse_with_limits, Json, JsonError, ParseLimits};
    pub use crate::metrics::Metrics;
    pub use crate::timer::{duration_ns, SpanTimer};
    pub use crate::timeseries::{SloPolicy, SloTracker, WindowedHistogram};
    pub use crate::trace::{ps_from_units, PathStep, Trace, TraceBuf, TraceEvent, WallSpan};
    pub use crate::vcd::VcdWriter;
}
