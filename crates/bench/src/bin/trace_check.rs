//! `trace_check` — standalone validator for exported sim-trace files.
//!
//! ```text
//! trace_check path/to/trace.json [more.json ...]
//! ```
//!
//! Reads each Perfetto trace-event JSON file produced by `--trace`,
//! reconstructs the typed trace, and runs the invariant checker
//! ([`sim_observe::check_trace`]): two-phase clock non-overlap (A4),
//! four-phase handshake ordering (Section VI), per-lane monotone time,
//! schedule causality, and span balance. Exits 0 when every file is
//! clean, 1 on any violation (each printed with its rule name), 2 on
//! usage or parse errors.

use sim_runtime::cli::{self, Args, CliError};

const USAGE: &str = "usage: trace_check <trace.json> [more.json ...]";

fn parse_paths(mut args: Args) -> Result<Vec<String>, CliError> {
    let mut paths = Vec::new();
    while let Some(arg) = args.next_arg()? {
        if arg.starts_with('-') {
            return Err(cli::unknown(&arg));
        }
        paths.push(arg);
    }
    if paths.is_empty() {
        return Err(CliError::Usage("no trace file given".to_owned()));
    }
    Ok(paths)
}

fn main() {
    let args = cli::resolve(USAGE, parse_paths(Args::from_env()))
        .unwrap_or_else(|code| std::process::exit(code));
    let mut failed = false;
    for path in &args {
        let raw = match std::fs::read_to_string(path) {
            Ok(raw) => raw,
            Err(err) => {
                eprintln!("{path}: cannot read: {err}");
                std::process::exit(2);
            }
        };
        let doc = match sim_observe::json::parse(&raw) {
            Ok(doc) => doc,
            Err(err) => {
                eprintln!("{path}: invalid JSON: {err}");
                std::process::exit(2);
            }
        };
        let trace = match sim_observe::Trace::from_perfetto(&doc) {
            Ok(trace) => trace,
            Err(err) => {
                eprintln!("{path}: not a sim-trace Perfetto document: {err}");
                std::process::exit(2);
            }
        };
        let check = sim_observe::check_trace(&trace);
        println!(
            "{path}: {} events on {} tracks; {}",
            trace.event_count(),
            trace.tracks().len(),
            check.summary()
        );
        for v in &check.violations {
            println!("  {v}");
        }
        failed |= !check.violations.is_empty();
    }
    std::process::exit(i32::from(failed));
}
