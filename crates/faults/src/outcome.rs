//! Structured run outcomes: what a fault-injected trial ends in, and
//! the tally a sweep aggregates them into.

use std::fmt;

/// How one simulated run terminated. The watchdog contract: every
/// fault-injected run ends in exactly one of these — never a hang,
/// never a panic that escapes the trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// Completed its workload with timing intact.
    Ok,
    /// Completed or aborted with at least one setup/hold violation —
    /// the clocked-discipline failure mode (skew exceeded the margin).
    TimingViolation,
    /// Quiesced with pending obligations: no events left but the
    /// workload did not finish — the self-timed failure mode (a lost
    /// transition nobody resent).
    Deadlock,
    /// The sim-time or event budget ran out before quiescence —
    /// livelock, runaway oscillation, or simply "too slow to count as
    /// working".
    Budget,
}

impl RunOutcome {
    /// Stable short label (report/JSON vocabulary).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RunOutcome::Ok => "ok",
            RunOutcome::TimingViolation => "timing",
            RunOutcome::Deadlock => "deadlock",
            RunOutcome::Budget => "budget",
        }
    }

    /// Whether the run counts as a success.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, RunOutcome::Ok)
    }

    /// Parses a [`label`](RunOutcome::label) back into the outcome —
    /// the inverse used when trial results round-trip through JSON
    /// checkpoints. Returns `None` for unknown vocabulary (including
    /// the sweep layer's own `"panic"` marker, which is not a
    /// [`RunOutcome`]).
    #[must_use]
    pub fn from_label(label: &str) -> Option<RunOutcome> {
        match label {
            "ok" => Some(RunOutcome::Ok),
            "timing" => Some(RunOutcome::TimingViolation),
            "deadlock" => Some(RunOutcome::Deadlock),
            "budget" => Some(RunOutcome::Budget),
            _ => None,
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Longest panic reason a tally retains, in bytes.
const PANIC_REASON_MAX: usize = 80;

/// Truncates a caught panic message to the tally's stable short form:
/// first line only, at most 80 bytes (cut on a char boundary, `...`
/// appended when shortened). Empty input stays empty.
#[must_use]
pub fn truncate_panic_reason(msg: &str) -> String {
    let line = msg.lines().next().unwrap_or("");
    if line.len() <= PANIC_REASON_MAX {
        return line.to_owned();
    }
    let mut cut = PANIC_REASON_MAX;
    while !line.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}...", &line[..cut])
}

/// Outcome counts across a sweep, including trials whose panic was
/// caught by the sweep's isolation layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// Trials that finished [`RunOutcome::Ok`].
    pub ok: u64,
    /// Trials that ended in [`RunOutcome::TimingViolation`].
    pub timing: u64,
    /// Trials that ended in [`RunOutcome::Deadlock`].
    pub deadlock: u64,
    /// Trials that ended in [`RunOutcome::Budget`].
    pub budget: u64,
    /// Trials that panicked and were isolated by `catch_unwind`.
    pub panicked: u64,
    /// Truncated message of the first recorded panic, when one carried
    /// a reason — so reports can say *why* trials died.
    pub panic_reason: Option<String>,
}

impl OutcomeTally {
    /// An empty tally.
    #[must_use]
    pub fn new() -> Self {
        OutcomeTally::default()
    }

    /// Counts one classified outcome.
    pub fn record(&mut self, outcome: RunOutcome) {
        match outcome {
            RunOutcome::Ok => self.ok += 1,
            RunOutcome::TimingViolation => self.timing += 1,
            RunOutcome::Deadlock => self.deadlock += 1,
            RunOutcome::Budget => self.budget += 1,
        }
    }

    /// Counts one panicked trial and keeps its (truncated) message —
    /// first panic wins, so the retained reason is deterministic under
    /// in-order folds.
    pub fn record_panic_reason(&mut self, msg: &str) {
        self.panicked += 1;
        if self.panic_reason.is_none() && !msg.is_empty() {
            self.panic_reason = Some(truncate_panic_reason(msg));
        }
    }

    /// Total trials counted.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ok + self.failures()
    }

    /// Trials that did not succeed (including panics).
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.timing + self.deadlock + self.budget + self.panicked
    }

    /// `ok / total`, or 1 for an empty tally (nothing failed).
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.ok as f64 / self.total() as f64
        }
    }

    /// The tally as a deterministic JSON object (fixed key order), the
    /// form sweep reports embed per grid point. The `panic_reason` key
    /// appears only when a reason was recorded, so panic-free reports
    /// keep their historical byte shape.
    #[must_use]
    pub fn to_json(&self) -> sim_observe::Json {
        use sim_observe::Json;
        let mut fields = vec![
            ("ok", Json::UInt(self.ok)),
            ("timing", Json::UInt(self.timing)),
            ("deadlock", Json::UInt(self.deadlock)),
            ("budget", Json::UInt(self.budget)),
            ("panicked", Json::UInt(self.panicked)),
        ];
        if let Some(reason) = &self.panic_reason {
            fields.push(("panic_reason", Json::Str(reason.clone())));
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_every_class() {
        let mut a = OutcomeTally::new();
        for o in [
            RunOutcome::Ok,
            RunOutcome::Ok,
            RunOutcome::Deadlock,
            RunOutcome::TimingViolation,
            RunOutcome::Budget,
        ] {
            a.record(o);
        }
        a.record_panic_reason("");
        assert_eq!(a.total(), 6);
        assert_eq!(a.failures(), 4);
        assert_eq!(a.ok, 2);
        assert!((a.success_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(
            a.to_json().to_compact(),
            r#"{"ok":2,"timing":1,"deadlock":1,"budget":1,"panicked":1}"#
        );
    }

    #[test]
    fn empty_tally_is_vacuously_successful() {
        assert_eq!(OutcomeTally::new().success_rate(), 1.0);
    }

    #[test]
    fn labels_round_trip_and_reject_unknowns() {
        for o in [
            RunOutcome::Ok,
            RunOutcome::TimingViolation,
            RunOutcome::Deadlock,
            RunOutcome::Budget,
        ] {
            assert_eq!(RunOutcome::from_label(o.label()), Some(o));
        }
        assert_eq!(RunOutcome::from_label("panic"), None);
        assert_eq!(RunOutcome::from_label(""), None);
    }

    #[test]
    fn tally_serializes_deterministically() {
        let mut t = OutcomeTally::new();
        t.record(RunOutcome::Ok);
        t.record(RunOutcome::Budget);
        t.record_panic_reason("");
        assert_eq!(
            t.to_json().to_compact(),
            r#"{"ok":1,"timing":0,"deadlock":0,"budget":1,"panicked":1}"#
        );
    }

    #[test]
    fn panic_reasons_are_kept_truncated_and_first_wins() {
        let mut t = OutcomeTally::new();
        t.record_panic_reason("index out of bounds: the len is 4\nbacktrace follows");
        t.record_panic_reason("a later, different panic");
        assert_eq!(t.panicked, 2);
        assert_eq!(
            t.panic_reason.as_deref(),
            Some("index out of bounds: the len is 4"),
            "first line of the first panic wins"
        );
        assert_eq!(
            t.to_json().to_compact(),
            r#"{"ok":0,"timing":0,"deadlock":0,"budget":0,"panicked":2,"panic_reason":"index out of bounds: the len is 4"}"#
        );
        // Long messages are clipped to a stable 80-byte prefix.
        let long = "x".repeat(200);
        assert_eq!(truncate_panic_reason(&long), format!("{}...", "x".repeat(80)));
        assert_eq!(truncate_panic_reason(""), "");
        // A reason-less panic keeps the slot open for the first reason.
        let mut a = OutcomeTally::new();
        a.record_panic_reason("");
        assert_eq!(a.panic_reason, None, "reason-less panics stay reason-less");
        a.record_panic_reason("index out of bounds: the len is 4");
        a.record_panic_reason("a later, different panic");
        assert_eq!(a.panicked, 3);
        assert_eq!(a.panic_reason.as_deref(), Some("index out of bounds: the len is 4"));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RunOutcome::Ok.label(), "ok");
        assert_eq!(RunOutcome::TimingViolation.label(), "timing");
        assert_eq!(RunOutcome::Deadlock.label(), "deadlock");
        assert_eq!(RunOutcome::Budget.label(), "budget");
        assert!(RunOutcome::Ok.is_ok() && !RunOutcome::Budget.is_ok());
    }
}
