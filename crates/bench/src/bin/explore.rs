//! `explore` — the design-space explorer: walk the (scheme × topology
//! × size × fault-rate) grid, prune dominated configurations, and
//! print the Pareto frontier the paper's Sections VI–VII argue about.
//!
//! ```text
//! explore [--fast] [--seed S] [--trials N] [--threads T]
//!         [--shards N] [--checkpoint-every N]
//!         [--json FILE] [--frontier-json FILE] [--emit-manifest FILE]
//! ```
//!
//! `--threads` defaults to `SIM_THREADS`, else every core; `--threads
//! 0` means the same. The thread count never changes the output.
//!
//! By default the sweep runs in-process and the frontier table goes to
//! stdout. `--json` / `--frontier-json` additionally write the merged
//! sweep report and the frontier report. `--emit-manifest` writes the
//! sweep manifest *instead of running anything* — the entry point of
//! the sharded workflow (`sweep_shard --shard … && sweep_shard
//! --merge`), which merges byte-identically to the in-process run.
//!
//! Exit codes: 0 success (including `--help`), 2 usage error, 1
//! runtime failure.

use bench::{f, grid, Table};
use sim_observe::Json;
use sim_runtime::cli::{self, Args, CliError};
use sim_runtime::ParallelSweep;

const USAGE: &str = "usage: explore [--fast] [--seed S] [--trials N] [--threads T] \
[--shards N] [--checkpoint-every N] [--json FILE] [--frontier-json FILE] [--emit-manifest FILE]
--threads T: worker threads; 0 or unset means SIM_THREADS, else every core";

struct Opts {
    fast: bool,
    seed: u64,
    trials: u64,
    threads: usize,
    shards: u64,
    checkpoint_every: u64,
    json: Option<String>,
    frontier_json: Option<String>,
    emit_manifest: Option<String>,
}

fn parse_opts(mut args: Args) -> Result<Opts, CliError> {
    let mut opts = Opts {
        fast: false,
        seed: 11,
        trials: 60,
        threads: ParallelSweep::from_env().threads(),
        shards: 4,
        checkpoint_every: 25,
        json: None,
        frontier_json: None,
        emit_manifest: None,
    };
    const POSITIVE: &str = "a positive integer";
    while let Some(arg) = args.next_arg()? {
        match arg.as_str() {
            "--fast" => opts.fast = true,
            "--seed" => opts.seed = args.parse("--seed", "a non-negative integer")?,
            "--trials" => opts.trials = args.parse("--trials", POSITIVE)?,
            "--threads" => opts.threads = args.threads("--threads")?,
            "--shards" => opts.shards = args.parse("--shards", POSITIVE)?,
            "--checkpoint-every" => {
                opts.checkpoint_every = args.parse("--checkpoint-every", POSITIVE)?;
            }
            "--json" => opts.json = Some(args.value("--json")?),
            "--frontier-json" => opts.frontier_json = Some(args.value("--frontier-json")?),
            "--emit-manifest" => opts.emit_manifest = Some(args.value("--emit-manifest")?),
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(opts)
}

fn run(opts: &Opts) -> Result<(), String> {
    let m = grid::default_manifest(
        opts.seed,
        opts.trials,
        opts.shards,
        opts.checkpoint_every,
        opts.fast,
    )?;

    if let Some(path) = &opts.emit_manifest {
        m.save(path)
            .map_err(|e| format!("cannot write manifest `{path}`: {e}"))?;
        println!(
            "explore: manifest `{}` ({} points x {} trials, {} shard(s)) -> {path}",
            m.name,
            m.points.len(),
            m.trials_per_point,
            m.shards
        );
        return Ok(());
    }

    let results = grid::run_sweep_single(&m, opts.threads)?;
    let report = grid::sweep_report(&m, &results);
    let frontier = grid::sweep_frontier(&report)?;

    if let Some(path) = &opts.json {
        sim_runtime::write_atomic(path, &report.to_pretty())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("sweep report: {path}");
    }
    if let Some(path) = &opts.frontier_json {
        sim_runtime::write_atomic(path, &frontier.to_pretty())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("frontier report: {path}");
    }

    println!(
        "explore: {} trials over {} grid points (seed {}, {} threads)",
        m.total_trials(),
        m.points.len(),
        m.seed,
        opts.threads
    );
    println!();
    let mut table = Table::new(&[
        "point",
        "survival",
        "retention",
        "cost",
        "verdict",
    ]);
    let points = frontier
        .get("points")
        .and_then(Json::as_array)
        .ok_or("frontier report lacks points")?;
    let mut kept = 0usize;
    for p in points {
        let label = p.get("label").and_then(Json::as_str).unwrap_or("?");
        let summary = p.get("summary").ok_or("point lacks summary")?;
        let field = |k: &str| summary.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let verdict = match p.get("dominated_by").and_then(Json::as_str) {
            Some(by) => format!("dominated by {by}"),
            None => {
                kept += 1;
                "frontier".to_owned()
            }
        };
        table.row(&[
            label,
            &f(field("survival")),
            &f(field("retention")),
            &f(field("cost")),
            &verdict,
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "frontier: {kept} of {} configurations survive dominance pruning",
        points.len()
    );
    Ok(())
}

fn main() {
    let opts = cli::resolve(USAGE, parse_opts(Args::from_env()))
        .unwrap_or_else(|code| std::process::exit(code));
    if let Err(msg) = run(&opts) {
        eprintln!("explore: error: {msg}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threads(args: &[&str]) -> usize {
        parse_opts(Args::new(args.iter().copied()))
            .expect("valid args")
            .threads
    }

    #[test]
    fn zero_or_absent_threads_take_the_environment_default() {
        let default = ParallelSweep::from_env().threads();
        assert_eq!(threads(&[]), default);
        assert_eq!(threads(&["--threads", "0"]), default);
        assert_eq!(threads(&["--threads", "3"]), 3);
        assert!(matches!(
            parse_opts(Args::new(["--threads", "-1"])),
            Err(CliError::Usage(_))
        ));
    }
}
