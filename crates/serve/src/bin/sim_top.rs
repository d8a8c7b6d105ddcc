//! `sim_top` — live view of a running `sim_serve` instance.
//!
//! ```text
//! sim_top [--addr HOST:PORT] [--interval-ms N] [--count N] [--once]
//!         [--format table|json]
//! ```
//!
//! Polls the server's `metrics` op and renders a refreshing table of
//! per-op request counts, windowed latency quantiles, SLO state, and
//! the last gauge readings. `--format json` prints the raw metrics
//! body instead (one document per poll), which is what the smoke
//! scripts scrape.
//!
//! Exits 0 on success, 1 when the server is unreachable or answers
//! with an error, 2 on usage errors.

use sim_observe::{parse_with_limits, Json, ParseLimits};
use sim_runtime::cli::{self, Args, CliError};
use sim_serve::{Backoff, Client};
use std::net::{SocketAddr, ToSocketAddrs};

const USAGE: &str = "usage: sim_top [--addr HOST:PORT] [--interval-ms N] [--count N] \
[--once] [--format table|json]";

struct Opts {
    addr: String,
    interval_ms: u64,
    /// Number of polls; 0 means poll until interrupted.
    count: u64,
    /// Print the raw JSON body instead of the table.
    json: bool,
}

fn parse_opts(mut args: Args) -> Result<Opts, CliError> {
    let mut opts = Opts {
        addr: "127.0.0.1:7071".to_owned(),
        interval_ms: 1_000,
        count: 0,
        json: false,
    };
    while let Some(arg) = args.next_arg()? {
        match arg.as_str() {
            "--addr" => opts.addr = args.value("--addr")?,
            "--interval-ms" => opts.interval_ms = args.parse("--interval-ms", "a number")?,
            "--count" => opts.count = args.parse("--count", "a number")?,
            "--once" => opts.count = 1,
            "--format" => {
                opts.json = match args.value("--format")?.as_str() {
                    "table" => false,
                    "json" => true,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown format `{other}` (known: table, json)"
                        )))
                    }
                };
            }
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(opts)
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{addr}`: {e}"))?
        .next()
        .ok_or_else(|| format!("`{addr}` resolves to no address"))
}

/// Reads a number at a dotted path like `slo.attainment`, or NaN.
fn num(doc: &Json, path: &[&str]) -> f64 {
    let mut cur = doc;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return f64::NAN,
        }
    }
    cur.as_f64().unwrap_or(f64::NAN)
}

fn fmt_ms(ns: f64) -> String {
    if ns.is_nan() {
        "-".to_owned()
    } else {
        format!("{:.2}ms", ns / 1e6)
    }
}

fn fmt_pct(frac: f64) -> String {
    if frac.is_nan() {
        "-".to_owned()
    } else {
        format!("{:.1}%", frac * 100.0)
    }
}

/// Renders the metrics document as the table view.
fn render_table(doc: &Json, addr: &SocketAddr, poll: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!("sim_top — {addr} (poll {poll})\n\n"));
    out.push_str(&format!(
        "{:<10} {:>8} {:>6} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10} {:>8}\n",
        "op", "reqs", "errs", "p50", "p95", "p99", "p999", "attain", "burn l/e", "healthy"
    ));
    let ops: Vec<String> = doc
        .get("ops")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(|v| v.as_str().map(str::to_owned)).collect())
        .unwrap_or_default();
    for op in &ops {
        let Some(o) = doc.get("run").and_then(|r| r.get("ops")).and_then(|m| m.get(op))
        else {
            continue;
        };
        // Quantiles come from the sliding window so the table tracks
        // *current* behaviour, not lifetime averages.
        out.push_str(&format!(
            "{:<10} {:>8} {:>6} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10} {:>8}\n",
            op,
            num(o, &["requests"]),
            num(o, &["errors"]),
            fmt_ms(num(o, &["window", "window", "p50"])),
            fmt_ms(num(o, &["window", "window", "p95"])),
            fmt_ms(num(o, &["window", "window", "p99"])),
            fmt_ms(num(o, &["window", "window", "p999"])),
            fmt_pct(num(o, &["slo", "attainment"])),
            format!(
                "{:.2}/{:.2}",
                num(o, &["slo", "latency_burn_rate"]),
                num(o, &["slo", "error_burn_rate"])
            ),
            if o.get("slo").and_then(|s| s.get("healthy"))
                == Some(&Json::Bool(true))
            {
                "yes"
            } else {
                "no"
            },
        ));
    }
    let gauge = |name: &str| num(doc, &["run", "gauges", name]);
    out.push_str(&format!(
        "\ngauges: queue_depth={} in_flight={} cache_hit_rate={}\n",
        gauge("queue_depth"),
        gauge("in_flight"),
        fmt_pct(gauge("cache_hit_rate")),
    ));
    out
}

fn main() {
    let opts = cli::resolve(USAGE, parse_opts(Args::from_env()))
        .unwrap_or_else(|code| std::process::exit(code));
    let addr = match resolve(&opts.addr) {
        Ok(addr) => addr,
        Err(msg) => {
            eprintln!("sim_top: {msg}");
            std::process::exit(2);
        }
    };
    let backoff = Backoff::default();
    let mut client = match Client::connect_with_retry(addr, &backoff) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("sim_top: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let mut poll: u64 = 0;
    loop {
        poll += 1;
        let (header, body) = match client.roundtrip_with_retry(r#"{"op":"metrics"}"#, &backoff) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("sim_top: {e}");
                std::process::exit(1);
            }
        };
        if !header.is_ok() {
            eprintln!(
                "sim_top: server answered `{}`: {}",
                header.status,
                header.error.as_deref().unwrap_or("(no detail)")
            );
            std::process::exit(1);
        }
        if opts.json {
            println!("{body}");
        } else {
            let doc = match parse_with_limits(&body, ParseLimits::network()) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("sim_top: unparsable metrics body: {e}");
                    std::process::exit(1);
                }
            };
            // Clear + home between polls so the table refreshes in
            // place; a single poll just prints.
            if opts.count != 1 && poll > 1 {
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render_table(&doc, &addr, poll));
        }
        if opts.count != 0 && poll >= opts.count {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, CliError> {
        parse_opts(Args::new(args.iter().copied()))
    }

    #[test]
    fn defaults_and_flags_parse() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.addr, "127.0.0.1:7071");
        assert_eq!(opts.interval_ms, 1_000);
        assert_eq!(opts.count, 0);
        assert!(!opts.json, "the table is the default");

        let opts =
            parse(&["--addr", "h:1", "--interval-ms", "50", "--count", "3"]).unwrap();
        assert_eq!(opts.addr, "h:1");
        assert_eq!(opts.interval_ms, 50);
        assert_eq!(opts.count, 3);

        assert_eq!(parse(&["--once"]).unwrap().count, 1);
        assert!(parse(&["--format", "json"]).unwrap().json);
        assert!(!parse(&["--format", "table"]).unwrap().json);
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        for bad in [
            &["--format", "xml"][..],
            &["--format", "prom"],
            &["--format", "prometheus"],
            &["--interval-ms", "soon"],
            &["--count"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn table_renders_ops_and_gauges() {
        // A miniature metrics document shaped like EngineTelemetry::to_json.
        let body = r#"{
            "ops": ["run"],
            "run": {
                "ops": {"run": {
                    "requests": 3, "errors": 1,
                    "window": {"window": {"p50": 1000000.0, "p95": 2000000.0,
                                          "p99": 2000000.0, "p999": 2000000.0}},
                    "slo": {"attainment": 0.5, "latency_burn_rate": 2.0,
                            "error_burn_rate": 1.0, "healthy": false}
                }},
                "gauges": {"queue_depth": 4, "in_flight": 2, "cache_hit_rate": 0.25}
            }
        }"#;
        let doc = parse_with_limits(body, ParseLimits::network()).unwrap();
        let addr: SocketAddr = "127.0.0.1:7071".parse().unwrap();
        let table = render_table(&doc, &addr, 1);
        assert!(table.contains("run"), "{table}");
        assert!(table.contains("50.0%"), "attainment rendered: {table}");
        assert!(table.contains("2.00/1.00"), "burn rates rendered: {table}");
        assert!(table.contains("queue_depth=4"), "gauge reading: {table}");
        assert!(table.contains("in_flight=2"), "{table}");
        assert!(table.contains("cache_hit_rate=25.0%"), "{table}");
        assert!(table.contains("1.00ms"), "window p50 in ms: {table}");
    }
}
