//! In-memory span recording for traced (`--trace 1`) runs.
//!
//! Spans are kept in a `sim_observe::Trace` as wall-clock spans and
//! written once, as Perfetto JSON, when the run ends. With tracing off
//! every call is a single branch, so the untraced run that yields the
//! end-to-end numbers pays nothing for the instrumentation.

use sim_observe::Trace;
use std::time::{Duration, Instant};

/// Span recorder for one benchmark run.
pub struct Spans {
    epoch: Instant,
    trace: Option<Trace>,
}

impl Spans {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            trace: on.then(Trace::new),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Records the span `[start, end)` named `name` on `track`.
    pub fn record(&mut self, track: &str, name: &str, start: Instant, end: Instant) {
        if let Some(trace) = &mut self.trace {
            let start_ns = nanos(start.saturating_duration_since(self.epoch));
            let dur_ns = nanos(end.saturating_duration_since(start));
            trace.add_wall_span(track, name, start_ns, dur_ns);
        }
    }

    /// Writes the kept spans as Perfetto JSON to `path`; does nothing
    /// when tracing is off.
    pub fn write(&self, path: &str) -> Result<(), String> {
        match &self.trace {
            Some(trace) => sim_runtime::write_with_parents(path, &trace.to_perfetto().to_compact())
                .map_err(|e| format!("cannot write trace `{path}`: {e}")),
            None => Ok(()),
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A duration in fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
