//! `sim_loadgen` — drive a `sim_serve` instance with a seeded request
//! mix and report throughput and latency.
//!
//! ```text
//! sim_loadgen [--addr HOST:PORT] [--conns N] [--requests N]
//!             [--hot-ratio F] [--hot-keys N] [--experiments e2,e3]
//!             [--seed S] [--trials N] [--no-fast] [--json PATH]
//! ```
//!
//! The request plan is a pure function of the flags (see
//! [`sim_serve::loadgen`]): hot requests repeat seeds from a small
//! pool and should hit the server's cache; cold requests are unique
//! and always compute. The run summary goes to stdout; `--json PATH`
//! additionally writes the `BENCH_serve.json` snapshot whose
//! `config`/`mix` sections are deterministic (exact-compared by
//! `bench_regress --compare`) and whose `run` section is volatile.
//!
//! Exits 0 when every request was answered (structured `busy` counts
//! as answered — observing load-shedding is the point), 1 on
//! connection failure or response errors, 2 on usage errors.

use sim_runtime::cli::{self, Args, CliError};
use sim_serve::loadgen::{self, LoadgenConfig};
use std::net::{SocketAddr, ToSocketAddrs};

const USAGE: &str = "usage: sim_loadgen [--addr HOST:PORT] [--conns N] [--requests N] \
[--hot-ratio F] [--hot-keys N] [--experiments NAMES] [--seed S] [--trials N] \
[--no-fast] [--json PATH]";

struct Opts {
    addr: String,
    cfg: LoadgenConfig,
    json: Option<String>,
}

fn parse_opts(mut args: Args) -> Result<Opts, CliError> {
    let mut opts = Opts {
        addr: "127.0.0.1:7071".to_owned(),
        cfg: LoadgenConfig::default(),
        json: None,
    };
    const COUNT: &str = "a non-negative integer";
    while let Some(arg) = args.next_arg()? {
        match arg.as_str() {
            "--addr" => opts.addr = args.value("--addr")?,
            "--conns" => opts.cfg.conns = args.parse("--conns", COUNT)?,
            "--requests" => opts.cfg.requests = args.parse("--requests", COUNT)?,
            "--hot-ratio" => {
                opts.cfg.hot_ratio = args.finite("--hot-ratio", "a ratio in [0, 1]")?;
                if opts.cfg.hot_ratio > 1.0 {
                    return Err(CliError::Usage("--hot-ratio must be in [0, 1]".into()));
                }
            }
            "--hot-keys" => {
                opts.cfg.hot_keys = args.parse("--hot-keys", COUNT)?;
                if opts.cfg.hot_keys == 0 {
                    return Err(CliError::Usage("--hot-keys must be at least 1".into()));
                }
            }
            "--experiments" => {
                let list = args.value("--experiments")?;
                opts.cfg.experiments = list.split(',').map(|s| s.trim().to_owned()).collect();
                if opts.cfg.experiments.iter().any(String::is_empty) {
                    return Err(CliError::Usage("--experiments has an empty name".into()));
                }
            }
            "--seed" => opts.cfg.seed = args.parse("--seed", COUNT)?,
            "--trials" => {
                let t: usize = args.parse("--trials", COUNT)?;
                if t == 0 {
                    return Err(CliError::Usage("--trials must be at least 1".into()));
                }
                opts.cfg.trials = Some(t);
            }
            "--no-fast" => opts.cfg.fast = false,
            "--json" => opts.json = Some(args.value("--json")?),
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

fn main() {
    let opts = cli::resolve(USAGE, parse_opts(Args::from_env()))
        .unwrap_or_else(|code| std::process::exit(code));
    let addr = match resolve(&opts.addr) {
        Ok(addr) => addr,
        Err(msg) => {
            eprintln!("sim_loadgen: {msg}");
            std::process::exit(2);
        }
    };
    let plan = loadgen::plan(&opts.cfg);
    let mix = loadgen::summarize(&plan);
    let result = match loadgen::run(addr, &opts.cfg, &plan) {
        Ok(result) => result,
        Err(msg) => {
            eprintln!("sim_loadgen: {msg}");
            std::process::exit(1);
        }
    };
    let fmt_ns = |q: Option<u64>| {
        q.map_or("-".to_owned(), |ns| format!("{:.2}ms", ns as f64 / 1e6))
    };
    println!(
        "sim_loadgen: {} requests over {} conns in {:.0}ms ({:.0} req/s)",
        opts.cfg.requests,
        opts.cfg.conns,
        result.wall_ms,
        result.ok as f64 / (result.wall_ms / 1e3).max(1e-9),
    );
    println!(
        "  mix: {} hot / {} cold ({} distinct keys)",
        mix.hot, mix.cold, mix.distinct_keys
    );
    println!(
        "  outcomes: ok={} cache_hits={} coalesced={} busy={} errors={}",
        result.ok, result.cache_hits, result.coalesced, result.busy, result.errors
    );
    println!(
        "  latency: p50={} p95={} p99={} p999={} max={}",
        fmt_ns(result.latency.p50()),
        fmt_ns(result.latency.p95()),
        fmt_ns(result.latency.p99()),
        fmt_ns(result.latency.p999()),
        fmt_ns(result.latency.max()),
    );
    println!(
        "  slo: attainment={:.1}% p999={} latency_burn={:.2} error_burn={:.2} healthy={}",
        result.slo.attainment() * 100.0,
        fmt_ns(result.latency.p999()),
        result.slo.latency_burn_rate(),
        result.slo.error_burn_rate(),
        result.slo.healthy(),
    );
    for op in &result.per_op {
        println!(
            "    {}: n={} attainment={:.1}% p999={}",
            op.name,
            op.slo.total(),
            op.slo.attainment() * 100.0,
            fmt_ns(op.latency.p999()),
        );
    }
    if let Some(path) = &opts.json {
        let doc = loadgen::bench_json(&opts.cfg, &mix, &result);
        if let Err(e) = sim_runtime::write_atomic(path, &doc.to_pretty()) {
            eprintln!("sim_loadgen: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("  snapshot: {path}");
    }
    if result.errors > 0 {
        eprintln!("sim_loadgen: {} request(s) failed", result.errors);
        std::process::exit(1);
    }
}
