//! Wire protocol: line-delimited JSON with length-prefixed bodies.
//!
//! Every client message is one JSON object on one line, parsed under
//! [`sim_observe::ParseLimits::network`] so a hostile or corrupted
//! peer can neither balloon memory nor blow the stack. The `op` field
//! routes it:
//!
//! | op         | request payload                         | response |
//! |------------|-----------------------------------------|----------|
//! | `run`      | the [`Request`] fields (`op` optional — the default) | header + report body |
//! | `frontier` | the [`FrontierRequest`] fields          | header + frontier body |
//! | `ping`     | —                                       | header only |
//! | `stats`    | —                                       | header + stats body |
//! | `metrics`  | —                                       | header + metrics body |
//! | `shutdown` | —                                       | header only, then drain |
//!
//! The four ops without a payload take no field but `op`; any other
//! field is refused by name.
//!
//! Every server reply starts with one compact JSON **header line**.
//! If and only if the header carries a `bytes` field, exactly that
//! many raw body bytes follow it — the body is *not* line-framed
//! (pretty-printed reports contain newlines), the byte count is the
//! frame. Success headers say `"status":"ok"`; failures carry a
//! stable machine token (`busy`, `timeout`, `bad_request`, `failed`,
//! `shutting_down`, `malformed`) plus a human `error` string. `busy`
//! refusals additionally carry a structured `retry_after_ms` hint so
//! well-behaved clients back off for a server-chosen interval instead
//! of guessing:
//!
//! ```text
//! {"status":"ok","key":"91b0c2…","cached":true,"coalesced":false,"bytes":1742}
//! {"status":"busy","error":"server busy: worker pool and queue are full","retry_after_ms":25}
//! ```

use crate::engine::Outcome;
use crate::request::{FrontierRequest, Request};
use sim_observe::{parse_with_limits, Json, ParseLimits};

/// A parsed client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Execute (or serve from cache) an experiment request.
    Run(Request),
    /// Serve the design-space Pareto frontier (sweep + prune).
    Frontier(FrontierRequest),
    /// Liveness probe.
    Ping,
    /// Cache/pool/coalescing counter snapshot.
    Stats,
    /// Live telemetry document (JSON): per-op counts, windowed
    /// latency quantiles, SLO state, the last gauge readings.
    Metrics,
    /// Begin a graceful drain; the server stops accepting connections.
    Shutdown,
}

/// Parses one request line under the network limits.
///
/// # Errors
///
/// A human-readable message on JSON errors, unknown ops, or invalid
/// `run` payloads; the server maps it to a `malformed`/`bad_request`
/// header.
pub fn parse_line(line: &str) -> Result<Op, String> {
    let doc = parse_with_limits(line, ParseLimits::network())
        .map_err(|e| format!("invalid request JSON: {e}"))?;
    let op = match doc.get("op") {
        None => "run",
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return Err("`op` must be a string".to_owned()),
    };
    match op {
        "run" => Ok(Op::Run(Request::from_json(&doc)?)),
        "frontier" => Ok(Op::Frontier(FrontierRequest::from_json(&doc)?)),
        "ping" => bodyless(&doc, op, Op::Ping),
        "stats" => bodyless(&doc, op, Op::Stats),
        "metrics" => bodyless(&doc, op, Op::Metrics),
        "shutdown" => bodyless(&doc, op, Op::Shutdown),
        other => Err(format!(
            "unknown op `{other}` (known: run, frontier, ping, stats, metrics, shutdown)"
        )),
    }
}

/// An op without a body takes no field but `op`; any other field is
/// refused by name.
fn bodyless(doc: &Json, op: &str, parsed: Op) -> Result<Op, String> {
    let fields = doc.as_object().unwrap_or_default();
    match fields.iter().find(|(k, _)| k != "op") {
        Some((field, _)) => Err(format!(
            "unknown {op} field `{field}` (the op takes no field but `op`)"
        )),
        None => Ok(parsed),
    }
}

/// Header line for a successful `run`: status, content key, how the
/// body was obtained, and the exact body byte count that follows.
#[must_use]
pub fn run_header(outcome: &Outcome) -> String {
    let mut line = Json::obj(vec![
        ("status", Json::from("ok")),
        ("key", Json::from(outcome.key.as_str())),
        ("cached", Json::Bool(outcome.cached)),
        ("coalesced", Json::Bool(outcome.coalesced)),
        ("bytes", Json::from(outcome.body.len())),
    ])
    .to_compact();
    line.push('\n');
    line
}

/// Header line for a bodyless success (`ping`, `shutdown`).
#[must_use]
pub fn ok_header(op: &str) -> String {
    let mut line = Json::obj(vec![
        ("status", Json::from("ok")),
        ("op", Json::from(op)),
    ])
    .to_compact();
    line.push('\n');
    line
}

/// Header line for a success that carries a payload body (`stats`).
#[must_use]
pub fn payload_header(op: &str, bytes: usize) -> String {
    let mut line = Json::obj(vec![
        ("status", Json::from("ok")),
        ("op", Json::from(op)),
        ("bytes", Json::from(bytes)),
    ])
    .to_compact();
    line.push('\n');
    line
}

/// Header line for any failure: a stable status token plus the
/// human-readable reason.
#[must_use]
pub fn error_header(status: &str, error: &str) -> String {
    let mut line = Json::obj(vec![
        ("status", Json::from(status)),
        ("error", Json::from(error)),
    ])
    .to_compact();
    line.push('\n');
    line
}

/// The retry-after hint a load-shedding refusal carries, in
/// milliseconds. One constant keeps the wire bytes deterministic; it
/// approximates the time a queue slot takes to free under the default
/// pool sizing.
pub const BUSY_RETRY_AFTER_MS: u64 = 25;

/// Header line for a `busy` load-shedding refusal: the stable status
/// token, the human reason, and the structured retry-after hint.
#[must_use]
pub fn busy_header(error: &str, retry_after_ms: u64) -> String {
    let mut line = Json::obj(vec![
        ("status", Json::from("busy")),
        ("error", Json::from(error)),
        ("retry_after_ms", Json::UInt(retry_after_ms)),
    ])
    .to_compact();
    line.push('\n');
    line
}

/// A client-side view of a response header line.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// `"ok"` or a failure token.
    pub status: String,
    /// Content key (successful `run` only).
    pub key: Option<String>,
    /// Cache hit flag (successful `run` only).
    pub cached: bool,
    /// Single-flight flag (successful `run` only).
    pub coalesced: bool,
    /// Body byte count; 0 means no body follows.
    pub bytes: usize,
    /// Failure reason, when `status != "ok"`.
    pub error: Option<String>,
    /// Server-chosen backoff hint on `busy` refusals, in milliseconds.
    pub retry_after_ms: Option<u64>,
}

impl Header {
    /// Whether the request succeeded.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }
}

/// Parses a response header line (client side), under the same
/// network limits as the server applies to requests.
///
/// # Errors
///
/// A message when the line is not a JSON object with a string
/// `status`, or a `bytes` field is not an integer.
pub fn parse_header(line: &str) -> Result<Header, String> {
    let doc = parse_with_limits(line, ParseLimits::network())
        .map_err(|e| format!("invalid response header: {e}"))?;
    let status = doc
        .get("status")
        .and_then(|s| s.as_str())
        .ok_or_else(|| "response header has no string `status`".to_owned())?
        .to_owned();
    let bytes = match doc.get("bytes") {
        None => 0,
        Some(Json::UInt(v)) => usize::try_from(*v)
            .map_err(|_| "`bytes` exceeds the platform limit".to_owned())?,
        Some(_) => return Err("`bytes` must be a non-negative integer".to_owned()),
    };
    let flag = |name: &str| matches!(doc.get(name), Some(Json::Bool(true)));
    let retry_after_ms = match doc.get("retry_after_ms") {
        Some(Json::UInt(v)) => Some(*v),
        _ => None,
    };
    Ok(Header {
        status,
        key: doc.get("key").and_then(|k| k.as_str()).map(str::to_owned),
        cached: flag("cached"),
        coalesced: flag("coalesced"),
        bytes,
        error: doc.get("error").and_then(|e| e.as_str()).map(str::to_owned),
        retry_after_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ops_route_and_default_to_run() {
        assert_eq!(parse_line(r#"{"op":"ping"}"#).unwrap(), Op::Ping);
        assert_eq!(parse_line(r#"{"op":"stats"}"#).unwrap(), Op::Stats);
        assert_eq!(parse_line(r#"{"op":"shutdown"}"#).unwrap(), Op::Shutdown);
        assert_eq!(parse_line(r#"{"op":"metrics"}"#).unwrap(), Op::Metrics);
        // The metrics op takes no field beyond `op`: the retired
        // `format` (any value) and any other field are refused by name.
        for (bad, field) in [
            (r#"{"op":"metrics","format":"prom"}"#, "format"),
            (r#"{"op":"metrics","format":"json"}"#, "format"),
            (r#"{"format":7,"op":"metrics"}"#, "format"),
            (r#"{"op":"metrics","window":60}"#, "window"),
        ] {
            let err = parse_line(bad).expect_err(bad);
            assert!(err.contains(&format!("unknown metrics field `{field}`")), "{bad}: {err}");
        }
        // So do the other ops without a body.
        for (bad, op, field) in [
            (r#"{"op":"ping","format":"prom"}"#, "ping", "format"),
            (r#"{"op":"ping","bogus":1}"#, "ping", "bogus"),
            (r#"{"op":"stats","bogus":1}"#, "stats", "bogus"),
            (r#"{"now":true,"op":"shutdown"}"#, "shutdown", "now"),
        ] {
            let err = parse_line(bad).expect_err(bad);
            assert!(err.contains(&format!("unknown {op} field `{field}`")), "{bad}: {err}");
        }
        let Op::Run(req) = parse_line(r#"{"experiment":"e2","seed":3}"#).unwrap()
        else {
            panic!("bare object defaults to run");
        };
        assert_eq!(req.experiment, "e2");
        assert_eq!(req.seed, 3);
        let Op::Run(_) = parse_line(r#"{"op":"run","experiment":"e1"}"#).unwrap()
        else {
            panic!("explicit run");
        };
        let Op::Frontier(freq) =
            parse_line(r#"{"op":"frontier","seed":5,"fast":true}"#).unwrap()
        else {
            panic!("frontier op");
        };
        assert_eq!(freq.seed, 5);
        assert!(freq.fast);
        assert!(
            parse_line(r#"{"op":"frontier","experiment":"e2"}"#).is_err(),
            "frontier rejects run-shaped payloads"
        );
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for line in [
            "",
            "not json",
            "[]",
            r#"{"op":7}"#,
            r#"{"op":"fly"}"#,
            r#"{"op":"run"}"#,
            &format!("{{\"experiment\":\"{}\"}}", "x".repeat(100_000)),
            &format!("{}1{}", "[".repeat(64), "]".repeat(64)),
        ] {
            assert!(parse_line(line).is_err(), "{:.60}", line);
        }
    }

    #[test]
    fn run_header_round_trips_through_parse_header() {
        let outcome = Outcome {
            body: Arc::from("{\n  \"x\": 1\n}"),
            key: "00ff00ff00ff00ff".to_owned(),
            cached: true,
            coalesced: false,
        };
        let line = run_header(&outcome);
        assert!(line.ends_with('\n'));
        let h = parse_header(line.trim_end()).unwrap();
        assert!(h.is_ok());
        assert_eq!(h.key.as_deref(), Some("00ff00ff00ff00ff"));
        assert!(h.cached);
        assert!(!h.coalesced);
        assert_eq!(h.bytes, outcome.body.len());
        assert_eq!(h.error, None);
    }

    #[test]
    fn busy_header_carries_the_retry_hint() {
        let h = parse_header(busy_header("full up", 40).trim_end()).unwrap();
        assert!(!h.is_ok());
        assert_eq!(h.status, "busy");
        assert_eq!(h.error.as_deref(), Some("full up"));
        assert_eq!(h.retry_after_ms, Some(40));
        assert_eq!(h.bytes, 0);
    }

    #[test]
    fn error_and_bodyless_headers_round_trip() {
        let h = parse_header(error_header("busy", "full up").trim_end()).unwrap();
        assert!(!h.is_ok());
        assert_eq!(h.status, "busy");
        assert_eq!(h.error.as_deref(), Some("full up"));
        assert_eq!(h.bytes, 0);
        assert_eq!(h.retry_after_ms, None, "plain error headers carry no hint");

        let h = parse_header(ok_header("ping").trim_end()).unwrap();
        assert!(h.is_ok());
        assert_eq!(h.bytes, 0);

        let h = parse_header(payload_header("stats", 42).trim_end()).unwrap();
        assert!(h.is_ok());
        assert_eq!(h.bytes, 42);
    }

    #[test]
    fn header_lines_are_single_line_compact_json() {
        let outcome = Outcome {
            body: Arc::from("x"),
            key: "k".to_owned(),
            cached: false,
            coalesced: true,
        };
        for line in [
            run_header(&outcome),
            ok_header("ping"),
            payload_header("stats", 9),
            error_header("timeout", "too slow"),
        ] {
            assert_eq!(line.matches('\n').count(), 1);
            assert!(line.ends_with('\n'));
        }
    }
}
