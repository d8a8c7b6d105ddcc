//! `bench_regress` — run every experiment, snapshot its JSON report,
//! and diff against the committed baselines.
//!
//! ```text
//! bench_regress [--fast] [--seed S] [--threads T] [--trials N]
//!               [--only e3,e7] [--out DIR] [--baselines DIR]
//!               [--update] [--wall-tol PCT]
//! bench_regress --compare FILE [--baselines DIR] [--update] [--wall-tol PCT]
//! ```
//!
//! For each selected experiment the binary runs it silently, writes
//! `BENCH_<name>.json` under `--out` (default `target/bench`), and
//! diffs the report against `--baselines/BENCH_<name>.json` (default
//! `baselines/`) with [`bench::regress::diff_reports`]: deterministic
//! sections must match exactly; the volatile `run` section must match
//! structurally, and `--wall-tol PCT` additionally demands its numbers
//! stay within a percentage band of the baseline (off by default — a
//! loaded CI box makes individual trial timings arbitrarily slow). Any
//! drift — or a missing baseline — prints the offending JSON paths and
//! makes the process exit 1. `--update` instead rewrites the baselines
//! from the current run (the way the committed files were produced;
//! see `scripts/bench.sh`).
//!
//! `--compare FILE` skips running experiments and instead diffs an
//! externally produced snapshot — `sim_loadgen --json`'s
//! `BENCH_serve.json`, say — against `--baselines/<basename of FILE>`
//! under exactly the same rules (deterministic sections exact, the
//! top-level `run` section structural). That is how the serving-layer
//! benchmark rides the same regression gate as the experiments.

use bench::regress::diff_reports;
use sim_observe::{parse, Json, SpanTimer};
use sim_runtime::cli::{self, Args, CliError};
use sim_runtime::{json_full, run_experiment, ExpConfig, RunInfo};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: bench_regress [--fast] [--seed S] [--threads T] [--trials N] \
[--only NAMES] [--out DIR] [--baselines DIR] [--update] [--wall-tol PCT] | \
bench_regress --compare FILE [--baselines DIR] [--update] [--wall-tol PCT]";

struct Opts {
    cfg: ExpConfig,
    only: Option<Vec<String>>,
    out: PathBuf,
    baselines: PathBuf,
    update: bool,
    wall_tol_pct: Option<f64>,
    compare: Option<PathBuf>,
}

fn parse_opts(mut args: Args) -> Result<Opts, CliError> {
    let mut opts = Opts {
        cfg: ExpConfig::default(),
        only: None,
        out: PathBuf::from("target/bench"),
        baselines: PathBuf::from("baselines"),
        update: false,
        wall_tol_pct: None,
        compare: None,
    };
    const COUNT: &str = "a non-negative integer";
    while let Some(arg) = args.next_arg()? {
        match arg.as_str() {
            "--fast" => opts.cfg.fast = true,
            "--seed" => opts.cfg.seed = args.parse("--seed", COUNT)?,
            "--threads" => opts.cfg.threads = args.threads("--threads")?,
            "--trials" => opts.cfg.trials = Some(args.parse("--trials", COUNT)?),
            "--only" => {
                let list = args.value("--only")?;
                opts.only = Some(list.split(',').map(|s| s.trim().to_owned()).collect());
            }
            "--out" => opts.out = args.value("--out")?.into(),
            "--baselines" => opts.baselines = args.value("--baselines")?.into(),
            "--update" => opts.update = true,
            "--wall-tol" => {
                opts.wall_tol_pct = Some(args.finite("--wall-tol", "a non-negative percentage")?);
            }
            "--compare" => opts.compare = Some(args.value("--compare")?.into()),
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(opts)
}

fn snapshot_name(exp_name: &str) -> String {
    format!("BENCH_{exp_name}.json")
}

/// The one baseline comparison both modes share: under `--update`,
/// install `text` as the baseline at `base_path`; otherwise diff `doc`
/// against that baseline and print what drifted, naming `label`.
/// Returns the `--compare` exit code: 0 on a match or an update, 1 on
/// a missing baseline, drift or a failed write, 2 on an unparsable
/// baseline.
fn against_baseline(label: &str, doc: &Json, text: &str, base_path: &Path, opts: &Opts) -> i32 {
    if opts.update {
        if let Err(e) = sim_runtime::write_atomic(base_path, text) {
            eprintln!("cannot write {}: {e}", base_path.display());
            return 1;
        }
        println!("{label}: baseline updated ({})", base_path.display());
        return 0;
    }
    let Ok(baseline_text) = std::fs::read_to_string(base_path) else {
        eprintln!(
            "{label}: no baseline at {} (run with --update to create it)",
            base_path.display()
        );
        return 1;
    };
    let baseline = match parse(&baseline_text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{}: baseline is not valid JSON: {e}", base_path.display());
            return 2;
        }
    };
    let drifts = diff_reports(&baseline, doc, opts.wall_tol_pct);
    if drifts.is_empty() {
        println!("{label}: matches {}", base_path.display());
        return 0;
    }
    eprintln!("{label}: {} drift(s) vs {}:", drifts.len(), base_path.display());
    for d in &drifts {
        eprintln!("  {d}");
    }
    1
}

/// Runs one experiment, writes its snapshot under `--out`, and checks
/// it against its baseline. `Ok(false)` (or `Err`) is a failure.
fn check_one(
    registry: &sim_runtime::Registry,
    name: &str,
    opts: &Opts,
) -> Result<bool, String> {
    let exp = registry
        .get(name)
        .ok_or_else(|| format!("unknown experiment `{name}`"))?;
    sim_runtime::check_trials(exp, &opts.cfg)?;
    let timer = SpanTimer::start();
    let report = run_experiment(exp, &opts.cfg);
    let run = RunInfo {
        threads: opts.cfg.sweep().threads(),
        wall_ms: timer.elapsed_ms(),
    };
    let doc = json_full(exp, &opts.cfg, &report, &run);
    let rendered = doc.to_pretty();

    let out_path = opts.out.join(snapshot_name(name));
    std::fs::write(&out_path, &rendered)
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;

    let label = format!("{name} ({:.0} ms)", run.wall_ms);
    let base_path = opts.baselines.join(snapshot_name(name));
    Ok(against_baseline(&label, &doc, &rendered, &base_path, opts) == 0)
}

/// The `--compare FILE` mode: diff one externally produced snapshot
/// against `baselines/<basename>`, or install it as the baseline under
/// `--update`. Returns the process exit code (2 when FILE itself is
/// unreadable or not JSON).
fn compare_file(path: &Path, opts: &Opts) -> i32 {
    let Some(file_name) = path.file_name() else {
        eprintln!("--compare needs a file path, got {}", path.display());
        return 2;
    };
    let current_text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let current = match parse(&current_text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{}: not valid JSON: {e}", path.display());
            return 2;
        }
    };
    let label = path.display().to_string();
    against_baseline(&label, &current, &current_text, &opts.baselines.join(file_name), opts)
}

fn main() {
    let opts = cli::resolve(USAGE, parse_opts(Args::from_env()))
        .unwrap_or_else(|code| std::process::exit(code));
    if let Some(path) = &opts.compare {
        std::process::exit(compare_file(path, &opts));
    }
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("cannot create {}: {e}", opts.out.display());
        std::process::exit(1);
    }
    if opts.update {
        if let Err(e) = std::fs::create_dir_all(&opts.baselines) {
            eprintln!("cannot create {}: {e}", opts.baselines.display());
            std::process::exit(1);
        }
    }

    let registry = bench::registry();
    let names: Vec<String> = match &opts.only {
        Some(list) => list.clone(),
        None => registry.names().iter().map(|&n| n.to_owned()).collect(),
    };

    let mut failures = 0usize;
    for name in &names {
        match check_one(&registry, name, &opts) {
            Ok(true) => {}
            Ok(false) => failures += 1,
            Err(msg) => {
                eprintln!("{msg}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "bench_regress: {failures}/{} experiment(s) drifted from {}",
            names.len(),
            opts.baselines.display()
        );
        std::process::exit(1);
    }
    let band = match opts.wall_tol_pct {
        Some(tol) => format!("wall tolerance ±{tol}%"),
        None => "wall clock unchecked".to_owned(),
    };
    println!(
        "bench_regress: {} experiment(s) match {} ({band})",
        names.len(),
        opts.baselines.display(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, CliError> {
        parse_opts(Args::new(args.iter().copied()))
    }

    #[test]
    fn tolerances_that_cannot_band_are_usage_errors() {
        for bad in [
            &["--wall-tol", "NaN"][..],
            &["--wall-tol", "-1"],
            &["--wall-tol", "inf"],
            &["--wall-tol"],
            &["--trials", "x"],
            &["--frobnicate"],
        ] {
            assert!(matches!(parse(bad), Err(CliError::Usage(_))), "{bad:?}");
        }
        let ok = parse(&["--wall-tol", "25", "--only", "e1, e3"]).unwrap();
        assert_eq!(ok.wall_tol_pct, Some(25.0));
        assert_eq!(ok.only, Some(vec!["e1".to_owned(), "e3".to_owned()]));
        assert_eq!(parse(&["--wall-tol", "0"]).unwrap().wall_tol_pct, Some(0.0));
    }
}
