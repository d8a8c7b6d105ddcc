//! [`Report`]: the deterministic experiment report, now with a
//! structured (JSON) view.
//!
//! A report used to be a plain string buffer. The telemetry rework
//! keeps that — the string is still what determinism tests
//! byte-compare — and adds three structured channels captured *at the
//! same call sites* as the text, so the human view and the `--json`
//! view can never diverge:
//!
//! * **tables** — [`Report::table`] renders a [`Table`] into the text
//!   buffer and records its caption/columns/rows structurally;
//! * **metrics** — a [`Metrics`] registry for deterministic counters
//!   and gauges (engine event counts, sim time, …);
//! * **sweeps** — [`SweepStats`] wall-clock telemetry from
//!   [`ParallelSweep::run_timed`](crate::ParallelSweep::run_timed),
//!   kept apart from the deterministic sections because wall time is
//!   *volatile* (it differs run to run and machine to machine).
//!
//! [`json_core`] serializes everything deterministic — two runs with
//! the same seed/trials/fast settings produce byte-identical core
//! JSON for **any** `--threads` value. [`json_full`] appends the
//! volatile `run` section (threads, wall clock, sweep telemetry);
//! that is what `--json <path>` writes and what `bench_regress`
//! compares with percentage bands instead of exact equality.
//!
//! Streaming: a report built by [`ExpConfig::report`] under the CLI
//! (`stream` set) tees every appended chunk to stdout as it is
//! produced, so long experiments show progress; the buffer still
//! captures the identical bytes exactly once.

use crate::experiment::{ExpConfig, Experiment};
use crate::sweep::{SweepStats, TrialSpan};
use crate::table::Table;
use sim_observe::{Json, Metrics, Trace};
use std::fmt;

/// Schema identifier of the JSON experiment report.
pub const REPORT_SCHEMA: &str = "vlsi-sync/experiment-report";
/// Version of the JSON experiment report schema. Bump on any
/// backwards-incompatible change to the layout produced by
/// [`json_core`]/[`json_full`].
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// One structurally captured table: caption, column headers, rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSection {
    /// Short stable identifier of the table within its report.
    pub caption: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells, as rendered.
    pub rows: Vec<Vec<String>>,
}

/// A deterministic experiment report: a text buffer plus structured
/// tables, metrics, and sweep telemetry captured alongside it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    buf: String,
    stream: bool,
    tables: Vec<TableSection>,
    metrics: Metrics,
    sweeps: Vec<(String, SweepStats)>,
    trace: Trace,
}

impl Report {
    /// An empty, non-streaming report (what tests and library callers
    /// use; the CLI goes through [`ExpConfig::report`]).
    #[must_use]
    pub fn new() -> Self {
        Report::default()
    }

    /// An empty report that tees every appended chunk to stdout.
    #[must_use]
    pub fn streaming() -> Self {
        Report {
            stream: true,
            ..Report::default()
        }
    }

    fn emit(&mut self, chunk: &str) {
        self.buf.push_str(chunk);
        if self.stream {
            print!("{chunk}");
        }
    }

    /// Appends one line (a trailing newline is added).
    pub fn line(&mut self, s: impl AsRef<str>) {
        self.emit(s.as_ref());
        self.emit("\n");
    }

    /// Appends an empty line.
    pub fn blank(&mut self) {
        self.emit("\n");
    }

    /// Appends pre-rendered text verbatim (e.g. a rendered table,
    /// which already ends in a newline).
    pub fn text(&mut self, s: impl AsRef<str>) {
        self.emit(s.as_ref());
    }

    /// Renders `table` into the text buffer **and** records it
    /// structurally under `caption` for the JSON report — one call,
    /// both views.
    pub fn table(&mut self, caption: &str, table: &Table) {
        self.emit(&table.render());
        self.tables.push(TableSection {
            caption: caption.to_owned(),
            columns: table.headers().to_vec(),
            rows: table.rows().to_vec(),
        });
    }

    /// The deterministic metric registry of this report.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the metric registry.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Records wall-clock telemetry of one named sweep (volatile: it
    /// lands in the `run` section of the JSON report, never in the
    /// deterministic core).
    pub fn record_sweep(&mut self, name: &str, stats: SweepStats) {
        self.sweeps.push((name.to_owned(), stats));
    }

    /// The `sim-trace` document collected by this run (empty unless
    /// the experiment ran with `--trace`). Never serialized into
    /// [`json_core`]/[`json_full`] — it is exported separately, and
    /// its wall-time track is volatile.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace document — where instrumented
    /// experiments add their tracks.
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Records one sweep's per-trial wall-clock spans
    /// ([`ParallelSweep::run_timed`](crate::ParallelSweep::run_timed))
    /// as wall-time spans on the trace, one track per worker
    /// (`{name}/w{worker}`).
    pub fn record_sweep_trace(&mut self, name: &str, spans: &[TrialSpan]) {
        for span in spans {
            self.trace.add_wall_span(
                &format!("{name}/w{}", span.worker),
                &format!("trial{}", span.trial),
                span.start_ns,
                span.dur_ns,
            );
        }
    }

    /// The structurally captured tables, in append order.
    #[must_use]
    pub fn tables(&self) -> &[TableSection] {
        &self.tables
    }

    /// The recorded sweep telemetry, in append order.
    #[must_use]
    pub fn sweeps(&self) -> &[(String, SweepStats)] {
        &self.sweeps
    }

    /// Whether this report tees appended chunks to stdout.
    #[must_use]
    pub fn is_streaming(&self) -> bool {
        self.stream
    }

    /// The report text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.buf)
    }
}

/// Volatile facts about one concrete run: what the deterministic core
/// deliberately excludes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunInfo {
    /// Worker threads the run used.
    pub threads: usize,
    /// Wall-clock time of the whole experiment, milliseconds.
    pub wall_ms: f64,
}

/// Types a rendered cell: unsigned/signed integers and plain finite
/// decimals become JSON numbers, everything else stays a string.
fn cell_json(s: &str) -> Json {
    if let Ok(v) = s.parse::<u64>() {
        return Json::UInt(v);
    }
    if let Ok(v) = s.parse::<i64>() {
        return Json::Int(v);
    }
    // Guard against f64::from_str's permissiveness ("inf", "NaN"):
    // only digit/sign/dot/exponent characters qualify as numeric.
    let numeric_shape = s.contains(|c: char| c.is_ascii_digit())
        && s.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '+' | '-' | '.' | 'e' | 'E'));
    if numeric_shape {
        if let Ok(v) = s.parse::<f64>() {
            if v.is_finite() {
                return Json::Float(v);
            }
        }
    }
    Json::Str(s.to_owned())
}

/// The deterministic core of the JSON report: schema header,
/// experiment identity, config (seed/trials/fast), every table as
/// typed rows, the metric snapshot, and the full report text.
///
/// Byte-identical across `--threads` values for a deterministic
/// experiment — `tests/determinism.rs` pins exactly that.
#[must_use]
pub fn json_core(exp: &dyn Experiment, cfg: &ExpConfig, report: &Report) -> Json {
    let tables: Vec<Json> = report
        .tables()
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("caption", Json::from(t.caption.as_str())),
                (
                    "columns",
                    Json::Array(t.columns.iter().map(|c| Json::from(c.as_str())).collect()),
                ),
                (
                    "rows",
                    Json::Array(
                        t.rows
                            .iter()
                            .map(|row| {
                                Json::Array(row.iter().map(|c| cell_json(c)).collect())
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::from(REPORT_SCHEMA)),
        ("schema_version", Json::UInt(REPORT_SCHEMA_VERSION)),
        ("experiment", Json::from(exp.name())),
        ("title", Json::from(exp.title())),
        ("paper", Json::from(exp.paper_ref())),
        (
            "config",
            Json::obj(vec![
                ("seed", Json::UInt(cfg.seed)),
                (
                    "trials",
                    cfg.trials.map_or(Json::Null, |t| Json::UInt(t as u64)),
                ),
                ("fast", Json::Bool(cfg.fast)),
            ]),
        ),
        ("tables", Json::Array(tables)),
        ("metrics", report.metrics().to_json()),
        ("text", Json::from(report.as_str())),
    ])
}

/// The full JSON report: [`json_core`] plus the volatile `run`
/// section (threads, wall clock, per-sweep telemetry). This is what
/// `--json <path>` writes; regression tooling compares `run.*` with
/// percentage bands, everything else exactly.
#[must_use]
pub fn json_full(
    exp: &dyn Experiment,
    cfg: &ExpConfig,
    report: &Report,
    run: &RunInfo,
) -> Json {
    let mut doc = match json_core(exp, cfg, report) {
        Json::Object(pairs) => pairs,
        _ => unreachable!("json_core returns an object"),
    };
    let sweeps: Vec<(String, Json)> = report
        .sweeps()
        .iter()
        .map(|(name, stats)| (name.clone(), stats.to_json()))
        .collect();
    doc.push((
        "run".to_owned(),
        Json::obj(vec![
            ("threads", Json::UInt(run.threads as u64)),
            ("wall_ms", Json::Float(run.wall_ms)),
            ("sweeps", Json::Object(sweeps)),
        ]),
    ));
    Json::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExpConfig;
    use crate::rng::SimRng;

    struct Fixed;
    impl Experiment for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn title(&self) -> &'static str {
            "a fixed report"
        }
        fn paper_ref(&self) -> &'static str {
            "nowhere"
        }
        fn run(&self, _cfg: &ExpConfig, _rng: &mut SimRng) -> Report {
            let mut r = Report::new();
            let mut t = Table::new(&["n", "skew", "note"]);
            t.row(&["8", "1.100", "ok"]);
            t.row(&["16", "-2", "1.2x"]);
            r.table("skews", &t);
            r.line("done");
            r.metrics_mut().add("engine.events", 42);
            r
        }
    }

    fn sample() -> (ExpConfig, Report) {
        let cfg = ExpConfig::default();
        let report = Fixed.run(&cfg, &mut cfg.rng());
        (cfg, report)
    }

    #[test]
    fn table_is_captured_textually_and_structurally() {
        let (_, report) = sample();
        assert!(report.as_str().contains("skew"));
        assert_eq!(report.tables().len(), 1);
        let t = &report.tables()[0];
        assert_eq!(t.caption, "skews");
        assert_eq!(t.columns, ["n", "skew", "note"]);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn core_json_has_schema_and_typed_cells() {
        let (cfg, report) = sample();
        let j = json_core(&Fixed, &cfg, &report);
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(REPORT_SCHEMA));
        let rows = j
            .get("tables")
            .and_then(|t| match t {
                Json::Array(items) => items.first(),
                _ => None,
            })
            .and_then(|t| t.get("rows"))
            .cloned()
            .unwrap();
        let Json::Array(rows) = rows else {
            panic!("rows is an array")
        };
        let Json::Array(first) = &rows[0] else {
            panic!("row is an array")
        };
        assert_eq!(first[0], Json::UInt(8));
        assert_eq!(first[1], Json::Float(1.1));
        assert_eq!(first[2], Json::Str("ok".to_owned()));
        let Json::Array(second) = &rows[1] else {
            panic!("row is an array")
        };
        assert_eq!(second[1], Json::Int(-2));
        assert_eq!(second[2], Json::Str("1.2x".to_owned()));
    }

    #[test]
    fn core_json_is_reproducible_bytes() {
        let (cfg, a) = sample();
        let (_, b) = sample();
        assert_eq!(
            json_core(&Fixed, &cfg, &a).to_pretty(),
            json_core(&Fixed, &cfg, &b).to_pretty()
        );
    }

    #[test]
    fn full_json_appends_only_the_run_section() {
        let (cfg, report) = sample();
        let core = json_core(&Fixed, &cfg, &report);
        let full = json_full(
            &Fixed,
            &cfg,
            &report,
            &RunInfo {
                threads: 8,
                wall_ms: 1.25,
            },
        );
        let Json::Object(full_pairs) = &full else {
            panic!("full is an object")
        };
        let Json::Object(core_pairs) = &core else {
            panic!("core is an object")
        };
        assert_eq!(full_pairs.len(), core_pairs.len() + 1);
        assert_eq!(
            full.get("run").and_then(|r| r.get("threads")),
            Some(&Json::UInt(8))
        );
        // Stripping `run` recovers the core exactly.
        let stripped = Json::Object(
            full_pairs
                .iter()
                .filter(|(k, _)| k != "run")
                .cloned()
                .collect(),
        );
        assert_eq!(stripped.to_pretty(), core.to_pretty());
    }

    #[test]
    fn metrics_land_in_core_json() {
        let (cfg, report) = sample();
        let j = json_core(&Fixed, &cfg, &report);
        assert_eq!(
            j.get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("engine.events")),
            Some(&Json::UInt(42))
        );
    }

    #[test]
    fn trace_is_carried_but_never_serialized() {
        let (cfg, mut report) = sample();
        let without = json_core(&Fixed, &cfg, &report).to_pretty();
        let mut buf = sim_observe::TraceBuf::new(8);
        buf.record(sim_observe::TraceEvent::SpanBegin {
            t_ps: 0,
            name: "trial".into(),
        });
        report.trace_mut().add_track("engine", buf);
        report.record_sweep_trace(
            "sweep",
            &[crate::sweep::TrialSpan {
                trial: 0,
                worker: 1,
                start_ns: 10,
                dur_ns: 25,
            }],
        );
        assert_eq!(report.trace().event_count(), 1);
        assert_eq!(report.trace().wall_spans().len(), 1);
        assert_eq!(report.trace().wall_spans()[0].track, "sweep/w1");
        // The JSON views are unchanged: the trace is exported
        // separately, never embedded.
        assert_eq!(json_core(&Fixed, &cfg, &report).to_pretty(), without);
    }

    #[test]
    fn cell_typing_guards_against_inf_and_nan_strings() {
        assert_eq!(cell_json("inf"), Json::Str("inf".to_owned()));
        assert_eq!(cell_json("NaN"), Json::Str("NaN".to_owned()));
        assert_eq!(cell_json("-"), Json::Str("-".to_owned()));
        assert_eq!(cell_json("1e3"), Json::Float(1000.0));
        assert_eq!(cell_json("68.0x"), Json::Str("68.0x".to_owned()));
    }
}
