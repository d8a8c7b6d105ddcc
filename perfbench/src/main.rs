//! `perfbench` — the end-to-end benchmark of the reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads, each a different user of the system (see
//! `BENCHMARK.json` for why each was chosen):
//!
//! * `paper_repro` — regenerate every registered experiment (e1–e14)
//!   at `--fast` size, back to back; one operation is a full pass.
//! * `grid_sweep` — the design-space sweep behind `explore`, run as
//!   checkpointed shards, merged, and pruned to its Pareto frontier;
//!   one operation is a whole sweep.
//! * `serve_mixed` — an in-process `sim-serve` server on localhost fed
//!   a closed-loop request mix over one connection (cache hits, cold
//!   experiment runs, cached frontier reads), with the whole process
//!   pinned to one CPU; one operation is a request.
//!
//! Every workload derives its inputs from `--seed`, sets itself up
//! fifteen times (reporting the median as `setup_s`), measures for
//! `--seconds`, and checks its outputs: byte-identity against a
//! reference computed by the library, plus the experiments' own
//! in-report asserts.
//!
//! `latency_ms` is the median operation time, `tail_ms` the highest
//! percentile of operation time with at least ten samples beyond it in
//! a 30 s window (p90 of 150–300 sweeps for `grid_sweep`, p99 of tens
//! of thousands of requests for `serve_mixed`; `paper_repro`'s dozen
//! passes leave no such percentile, so it repeats the median), and
//! `setup_s` the median set-up time. `attempted` gives the sample
//! count. All three are in reference-host time: each measured span is
//! scaled by a fixed kernel timed around it (see [`calib`]), which
//! cancels most of a shared host's drift.
//!
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, and the recorded spans are written as Perfetto JSON
//! under `.perfbench/`.
//!
//! Exit codes: 0 with a result line, 2 on a usage error, 1 when a
//! workload cannot run at all (no result line is printed).

mod calib;
mod repro;
mod serve;
mod spans;
mod stats;
mod sweep;

use sim_observe::Json;
use spans::Spans;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload paper_repro|grid_sweep|serve_mixed \
--seed N --seconds S --trace 0|1";

/// Directory (relative to the working directory) for run artifacts:
/// sweep checkpoints while a run is live, trace files after it.
pub const OUT_DIR: &str = ".perfbench";

/// How many times each workload sets itself up; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 15;

/// The per-layer metrics a traced run reports, with their units.
/// Workloads report the layers they exercise; the rest read 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("e1_ms", "ms"),
    ("e2_ms", "ms"),
    ("e3_ms", "ms"),
    ("e4_ms", "ms"),
    ("e5_ms", "ms"),
    ("e6_ms", "ms"),
    ("e7_ms", "ms"),
    ("e8_ms", "ms"),
    ("e9_ms", "ms"),
    ("e10_ms", "ms"),
    ("e11_ms", "ms"),
    ("e12_ms", "ms"),
    ("e13_ms", "ms"),
    ("e14_ms", "ms"),
    ("render_ms", "ms"),
    ("cells_ms", "ms"),
    ("trials_ms", "ms"),
    ("shard_ms", "ms"),
    ("ckpt_ms", "ms"),
    ("merge_ms", "ms"),
    ("report_ms", "ms"),
    ("frontier_ms", "ms"),
    ("checkpoints", "count"),
    ("hit_ms", "ms"),
    ("miss_ms", "ms"),
    ("frontier_hit_ms", "ms"),
    ("cache_hits", "count"),
    ("hit_ratio", "ratio"),
];

/// What one workload run measured.
pub struct Measured {
    /// Operations started in the measuring window.
    pub attempted: u64,
    /// Operations (and checks) that failed.
    pub failed: u64,
    /// Wall time of each operation in the measuring window, ms.
    pub latency_ms: Vec<f64>,
    /// Wall time of each set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// The percentile of `latency_ms` reported as `tail_ms`.
    pub tail_q: f64,
    /// Per-layer metric values, by [`PER_LAYER`] name.
    pub layers: Vec<(&'static str, f64)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a non-negative integer\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !["paper_repro", "grid_sweep", "serve_mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{USAGE}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err(format!("--seconds must be at least 1\n{USAGE}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Float(value)),
        ("unit", Json::from(unit)),
    ])
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let mut spans = Spans::new(args.trace);
    let window = Duration::from_secs(args.seconds);
    let result = match args.workload.as_str() {
        "paper_repro" => repro::run(args.seed, window, &mut spans),
        "grid_sweep" => sweep::run(args.seed, window, &mut spans),
        _ => serve::run(args.seed, window, &mut spans),
    };
    let m = match result {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload);
            std::process::exit(1);
        }
    };
    if let Err(msg) = spans.write(&format!(
        "{OUT_DIR}/trace-{}-{}.json",
        args.workload, args.seed
    )) {
        eprintln!("perfbench: {msg}");
        std::process::exit(1);
    }

    let metrics = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = m
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, metric(value, unit))
            })
            .collect()
    } else {
        vec![
            ("latency_ms", metric(stats::median(&m.latency_ms), "ms")),
            ("tail_ms", metric(stats::quantile(&m.latency_ms, m.tail_q), "ms")),
            ("setup_s", metric(stats::median(&m.setup_s), "s")),
        ]
    };
    for (name, _) in &m.layers {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "workload reported undeclared layer `{name}`"
        );
    }
    eprintln!(
        "perfbench: {} seed {}: {} ops, latency p50 {:.4} ms p90 {:.4} ms p99 {:.4} ms p99.9 {:.4} ms, setup {:.6} s",
        args.workload,
        args.seed,
        m.latency_ms.len(),
        stats::median(&m.latency_ms),
        stats::quantile(&m.latency_ms, 0.9),
        stats::quantile(&m.latency_ms, 0.99),
        stats::quantile(&m.latency_ms, 0.999),
        stats::median(&m.setup_s)
    );
    let doc = Json::obj(vec![
        ("correct", Json::Bool(m.failed == 0 && m.attempted > 0)),
        ("attempted", Json::UInt(m.attempted.max(1))),
        ("failed", Json::UInt(m.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", doc.to_compact());
}
