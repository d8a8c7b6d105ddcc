//! Offline trace validation: turns a [`Trace`]
//! into a correctness tool.
//!
//! The checker replays each track and verifies the model invariants
//! the paper's schemes rest on:
//!
//! * **`monotone-time`** — the netlist engine's scheduler delivers
//!   events in non-decreasing sim time, so every recorded engine, clock,
//!   handshake, and span timestamp within a lane must be monotone
//!   (skew samples are static analyses and exempt).
//! * **`causality`** — a scheduled change can only fire at or after
//!   the moment it was scheduled.
//! * **`clock-overlap`** — assumption A4: the two phases of a
//!   two-phase clock discipline are never simultaneously high.
//! * **`handshake-order`** — Section VI request/acknowledge
//!   discipline: per link, requests and acknowledges strictly
//!   alternate starting with a request (two requests with no
//!   intervening acknowledge is a dropped Ack), and each acknowledge
//!   answers the polarity of the request it follows (4-phase
//!   `Req+ → Ack+ → Req− → Ack−`).
//! * **`span-balance`** — `SpanBegin`/`SpanEnd` nest like
//!   parentheses, with matching names.
//!
//! The checker is **fault-aware**: a
//! [`TraceEvent::FaultInjected`] record naming a handshake link
//! resets that link's protocol state, so a request retried after a
//! deliberately dropped transition is not reported as a dropped Ack —
//! only *unannotated* protocol breaks are violations.

use crate::trace::{Trace, TraceEvent};
use std::collections::HashMap;

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule: `monotone-time`, `causality`,
    /// `clock-overlap`, `handshake-order`, or `span-balance`.
    pub rule: &'static str,
    /// The track the offending event lives on.
    pub track: String,
    /// Sim time of the offending event, picoseconds.
    pub t_ps: u64,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] track {} t={}ps: {}",
            self.rule, self.track, self.t_ps, self.detail
        )
    }
}

/// The outcome of one checker pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckReport {
    /// Sim-time events examined.
    pub events_checked: u64,
    /// Violations, in track/event order.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether the trace satisfied every invariant.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line outcome, e.g. `trace check: 420 events, OK` or
    /// `trace check: 420 events, 2 violations`.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_ok() {
            format!("trace check: {} events, OK", self.events_checked)
        } else {
            format!(
                "trace check: {} events, {} violation{}",
                self.events_checked,
                self.violations.len(),
                if self.violations.len() == 1 { "" } else { "s" }
            )
        }
    }
}

/// Monotonicity lanes within a track: engine/clock events share the
/// simulator timeline, handshakes are per link, spans per track.
fn lane_of(ev: &TraceEvent) -> Option<String> {
    match ev {
        TraceEvent::ClockEdge { .. }
        | TraceEvent::EventScheduled { .. }
        | TraceEvent::EventFired { .. }
        | TraceEvent::EventCancelled { .. } => Some("engine".to_owned()),
        TraceEvent::HandshakeReq { link, .. } | TraceEvent::HandshakeAck { link, .. } => {
            Some(format!("link:{link}"))
        }
        TraceEvent::SpanBegin { .. } | TraceEvent::SpanEnd { .. } => {
            Some("span".to_owned())
        }
        // Skew samples are static analyses; fault injections are plan
        // annotations stamped when the fault was *drawn*, which may
        // precede the events around them. Both are exempt.
        TraceEvent::SkewSample { .. } | TraceEvent::FaultInjected { .. } => None,
    }
}

/// Validates every track of `trace` against the model invariants.
#[must_use]
pub fn check_trace(trace: &Trace) -> CheckReport {
    let mut report = CheckReport::default();
    for track in trace.tracks() {
        check_track(&track.name, &track.events, &mut report);
    }
    report
}

#[allow(clippy::too_many_lines)]
fn check_track(track: &str, events: &[TraceEvent], report: &mut CheckReport) {
    let mut lane_clock: HashMap<String, u64> = HashMap::new();
    // Signal → (phase, level); plus the count of high signals per phase.
    let mut clock_level: HashMap<String, bool> = HashMap::new();
    let mut phase_high = [0usize; 2];
    // Link → expected next transition: (want_ack, polarity).
    let mut hs_state: HashMap<String, (bool, bool)> = HashMap::new();
    let mut span_stack: Vec<String> = Vec::new();
    let violation = |report: &mut CheckReport, rule, t_ps, detail: String| {
        report.violations.push(Violation {
            rule,
            track: track.to_owned(),
            t_ps,
            detail,
        });
    };
    for ev in events {
        report.events_checked += 1;
        let t = ev.t_ps();
        if let Some(lane) = lane_of(ev) {
            let last = lane_clock.entry(lane.clone()).or_insert(0);
            if t < *last {
                violation(
                    report,
                    "monotone-time",
                    t,
                    format!("{} goes backwards ({} < {last}) on lane {lane}", ev.kind(), t),
                );
            } else {
                *last = t;
            }
        }
        match ev {
            TraceEvent::EventScheduled { t_ps, fire_ps, net, .. } => {
                if fire_ps < t_ps {
                    violation(
                        report,
                        "causality",
                        *t_ps,
                        format!("net {net} scheduled to fire in the past ({fire_ps} < {t_ps})"),
                    );
                }
            }
            TraceEvent::ClockEdge {
                t_ps,
                signal,
                rising,
                phase,
            } => {
                let phase = usize::from(*phase != 0);
                let level = clock_level.entry(signal.clone()).or_insert(false);
                if *level != *rising {
                    // A real edge: update the per-phase high count.
                    *level = *rising;
                    if *rising {
                        phase_high[phase] += 1;
                    } else {
                        phase_high[phase] = phase_high[phase].saturating_sub(1);
                    }
                }
                if phase_high[0] > 0 && phase_high[1] > 0 {
                    violation(
                        report,
                        "clock-overlap",
                        *t_ps,
                        format!(
                            "two-phase overlap: both phases high after `{signal}` edge (A4)"
                        ),
                    );
                }
            }
            TraceEvent::HandshakeReq { t_ps, link, rising } => {
                if let Some((true, _)) = hs_state.get(link) {
                    violation(
                        report,
                        "handshake-order",
                        *t_ps,
                        format!("request on `{link}` before the previous Ack (dropped Ack)"),
                    );
                }
                // Resync on the new request so one fault does not
                // cascade into every later transfer.
                hs_state.insert(link.clone(), (true, *rising));
            }
            TraceEvent::HandshakeAck { t_ps, link, rising } => match hs_state.get(link) {
                Some((true, req_polarity)) => {
                    if rising != req_polarity {
                        violation(
                            report,
                            "handshake-order",
                            *t_ps,
                            format!(
                                "ack polarity on `{link}` ({}) does not answer the request ({})",
                                rising, req_polarity
                            ),
                        );
                    }
                    hs_state.insert(link.clone(), (false, *rising));
                }
                _ => violation(
                    report,
                    "handshake-order",
                    *t_ps,
                    format!("ack on `{link}` with no outstanding request"),
                ),
            },
            TraceEvent::SpanBegin { name, .. } => span_stack.push(name.clone()),
            TraceEvent::SpanEnd { t_ps, name } => match span_stack.pop() {
                Some(open) if open == *name => {}
                Some(open) => violation(
                    report,
                    "span-balance",
                    *t_ps,
                    format!("span `{name}` closed while `{open}` is innermost"),
                ),
                None => violation(
                    report,
                    "span-balance",
                    *t_ps,
                    format!("span `{name}` closed but none is open"),
                ),
            },
            TraceEvent::FaultInjected { site, .. } => {
                // A fault on a handshake link resets its protocol
                // state: whatever transition was in flight is gone, and
                // the retry that follows starts a fresh exchange.
                hs_state.remove(site);
            }
            TraceEvent::EventFired { .. }
            | TraceEvent::EventCancelled { .. }
            | TraceEvent::SkewSample { .. } => {}
        }
    }
    for open in span_stack {
        violation(
            report,
            "span-balance",
            u64::MAX,
            format!("span `{open}` never closed"),
        );
    }
    // A request left outstanding at end-of-trace is legitimate (the
    // run may simply stop mid-transfer), so it is not flagged.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceBuf, TraceEvent};

    fn trace_of(events: Vec<TraceEvent>) -> Trace {
        let mut buf = TraceBuf::new(events.len().max(1));
        for ev in events {
            buf.record(ev);
        }
        let mut t = Trace::new();
        t.add_track("t", buf);
        t
    }

    fn req(t_ps: u64, rising: bool) -> TraceEvent {
        TraceEvent::HandshakeReq {
            t_ps,
            link: "l".into(),
            rising,
        }
    }

    fn ack(t_ps: u64, rising: bool) -> TraceEvent {
        TraceEvent::HandshakeAck {
            t_ps,
            link: "l".into(),
            rising,
        }
    }

    #[test]
    fn clean_four_phase_handshake_passes() {
        let t = trace_of(vec![
            req(0, true),
            ack(10, true),
            req(20, false),
            ack(30, false),
        ]);
        let r = check_trace(&t);
        assert!(r.is_ok(), "{:?}", r.violations);
        assert_eq!(r.events_checked, 4);
        assert!(r.summary().ends_with("OK"));
    }

    #[test]
    fn dropped_ack_is_a_named_violation() {
        let t = trace_of(vec![req(0, true), req(20, false), ack(30, false)]);
        let r = check_trace(&t);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "handshake-order");
        assert!(r.violations[0].detail.contains("dropped Ack"));
    }

    #[test]
    fn annotated_fault_drop_resets_the_link_state() {
        // Same shape as `dropped_ack_is_a_named_violation`, but the
        // drop is announced by the injector — the retry is legal.
        let fault = TraceEvent::FaultInjected {
            t_ps: 15,
            site: "l".into(),
            kind: "drop_ack".into(),
        };
        let t = trace_of(vec![req(0, true), fault, req(20, true), ack(30, true)]);
        let r = check_trace(&t);
        assert!(r.is_ok(), "{:?}", r.violations);
        // A fault on some *other* site does not excuse this link.
        let other = TraceEvent::FaultInjected {
            t_ps: 15,
            site: "net3".into(),
            kind: "seu_flip".into(),
        };
        let t = trace_of(vec![req(0, true), other, req(20, true)]);
        assert_eq!(check_trace(&t).violations.len(), 1);
    }

    #[test]
    fn non_monotone_time_is_a_named_violation() {
        let t = trace_of(vec![
            TraceEvent::EventFired {
                t_ps: 100,
                net: 0,
                value: true,
            },
            TraceEvent::EventFired {
                t_ps: 50,
                net: 1,
                value: false,
            },
        ]);
        let r = check_trace(&t);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "monotone-time");
    }

    #[test]
    fn two_phase_overlap_is_detected() {
        let edge = |t_ps, signal: &str, rising, phase| TraceEvent::ClockEdge {
            t_ps,
            signal: signal.into(),
            rising,
            phase,
        };
        // Non-overlapping: phi0 high [0,40), phi1 high [50,90).
        let clean = trace_of(vec![
            edge(0, "phi0", true, 0),
            edge(40, "phi0", false, 0),
            edge(50, "phi1", true, 1),
            edge(90, "phi1", false, 1),
        ]);
        assert!(check_trace(&clean).is_ok());
        // Overlapping: phi1 rises before phi0 falls.
        let dirty = trace_of(vec![
            edge(0, "phi0", true, 0),
            edge(30, "phi1", true, 1),
            edge(40, "phi0", false, 0),
            edge(90, "phi1", false, 1),
        ]);
        let r = check_trace(&dirty);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "clock-overlap");
    }

    #[test]
    fn causality_and_span_balance() {
        let t = trace_of(vec![
            TraceEvent::EventScheduled {
                t_ps: 100,
                fire_ps: 50,
                net: 2,
                value: true,
            },
            TraceEvent::SpanBegin {
                t_ps: 100,
                name: "outer".into(),
            },
            TraceEvent::SpanEnd {
                t_ps: 150,
                name: "inner".into(),
            },
        ]);
        let r = check_trace(&t);
        let rules: Vec<&str> = r.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"causality"));
        assert!(rules.contains(&"span-balance"));
        assert!(r.summary().contains("violation"));
    }

    #[test]
    fn violations_display_names_the_rule() {
        let t = trace_of(vec![ack(0, true)]);
        let r = check_trace(&t);
        let text = r.violations[0].to_string();
        assert!(text.starts_with("[handshake-order]"));
        assert!(text.contains("track t"));
    }
}
