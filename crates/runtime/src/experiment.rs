//! The experiment harness behind the `experiments` binary.
//!
//! An experiment is a type implementing [`Experiment`] that builds a
//! [`Report`]; the [`Registry`] holds them all, and
//! `experiments <name> [flags]` runs one through [`run_cli_args`].
//! The shared CLI surface is:
//!
//! ```text
//! --trials N    override the experiment's Monte-Carlo trial count
//! --seed S      root RNG seed (default 1)
//! --threads T   worker threads for ParallelSweep loops (default:
//!               SIM_THREADS, else all cores)
//! --fast        reduced sizes/trials for smoke tests and CI
//! --json PATH   also write the structured JSON report to PATH
//! --vcd PATH    dump a VCD waveform (experiments that support it)
//! --trace PATH  export the sim-trace: Perfetto JSON at PATH, the
//!               deterministic text form at PATH.txt, then run the
//!               invariant checker (exit 1 on a violation)
//! --list        list the registered experiments and exit
//! ```
//!
//! Reports are built deterministically — the text and the
//! deterministic JSON core depend only on `(seed, trials, fast)`,
//! never on `--threads` — which is what lets `tests/determinism.rs`
//! assert byte-identical output across thread counts. Under the CLI
//! the report *streams*: each line is printed the moment the
//! experiment appends it, and the very same bytes are captured once
//! for the `--json` view, so the two can never diverge.

use crate::cli::{self, Args, CliError};
use crate::report::{json_full, Report, RunInfo};
use crate::rng::SimRng;
use crate::sweep::ParallelSweep;
use sim_observe::SpanTimer;
use std::fmt;
use std::path::Path;

/// Shared run configuration parsed from the experiment CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpConfig {
    /// Monte-Carlo trial count override; `None` → the experiment's
    /// default.
    pub trials: Option<usize>,
    /// Root seed for every random stream in the experiment.
    pub seed: u64,
    /// Worker-thread count for [`ParallelSweep`] loops. The default and
    /// `--threads 0` both read `SIM_THREADS`, else all cores; a `0`
    /// set programmatically means all available cores.
    pub threads: usize,
    /// Run at reduced sizes/trials (smoke-test mode).
    pub fast: bool,
    /// Where to write the structured JSON report (`--json PATH`).
    pub json: Option<String>,
    /// Where to write a VCD waveform dump (`--vcd PATH`); honoured by
    /// experiments that drive the event simulator, ignored elsewhere.
    pub vcd: Option<String>,
    /// Where to write the `sim-trace` export (`--trace PATH`):
    /// Perfetto trace-event JSON at `PATH`, the deterministic text
    /// form at `PATH.txt`, with the invariant checker run on the
    /// collected trace.
    pub trace: Option<String>,
    /// List registered experiments instead of running (`--list`).
    pub list: bool,
    /// Tee report output to stdout as it is built. Set by the CLI
    /// driver, never from flags: library callers and tests want the
    /// silent default.
    pub stream: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            trials: None,
            seed: 1,
            threads: ParallelSweep::from_env().threads(),
            fast: false,
            json: None,
            vcd: None,
            trace: None,
            list: false,
            stream: false,
        }
    }
}

impl ExpConfig {
    /// The default configuration with `--fast` set — what the e2e
    /// suite runs every experiment under.
    #[must_use]
    pub fn fast() -> Self {
        ExpConfig {
            fast: true,
            ..ExpConfig::default()
        }
    }

    /// Parses the shared flags from an argument iterator (binary name
    /// already stripped).
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] on `--help`/`-h`, and a usage error on an
    /// unknown flag or a malformed value; [`cli::resolve`] turns them
    /// into exit codes 0 and 2.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut cfg = ExpConfig::default();
        let mut args = Args::new(args);
        const COUNT: &str = "a non-negative integer";
        while let Some(arg) = args.next_arg()? {
            match arg.as_str() {
                "--trials" => {
                    let t = args.parse("--trials", COUNT)?;
                    if t == 0 {
                        return Err(CliError::Usage("--trials must be at least 1".to_owned()));
                    }
                    cfg.trials = Some(t);
                }
                "--seed" => cfg.seed = args.parse("--seed", COUNT)?,
                "--threads" => cfg.threads = args.threads("--threads")?,
                "--fast" => cfg.fast = true,
                "--json" => cfg.json = Some(args.value("--json")?),
                "--vcd" => cfg.vcd = Some(args.value("--vcd")?),
                "--trace" => cfg.trace = Some(args.value("--trace")?),
                "--list" => cfg.list = true,
                other => return Err(cli::unknown(other)),
            }
        }
        Ok(cfg)
    }

    /// The configured trial count, or `default` when `--trials` was
    /// not given; `--fast` quarters the default (floor 8). A zero
    /// override is clamped to one trial ([`ExpConfig::from_args`]
    /// rejects `--trials 0` before it gets here; the clamp guards
    /// programmatic construction).
    #[must_use]
    pub fn trials_or(&self, default: usize) -> usize {
        match self.trials {
            Some(t) => t.max(1),
            None if self.fast => (default / 4).max(8).min(default),
            None => default,
        }
    }

    /// Picks a problem size: `full` normally, `fast` under `--fast`.
    #[must_use]
    pub fn size(&self, full: usize, fast: usize) -> usize {
        if self.fast {
            fast
        } else {
            full
        }
    }

    /// The sweep executor this configuration prescribes.
    #[must_use]
    pub fn sweep(&self) -> ParallelSweep {
        ParallelSweep::new(self.threads)
    }

    /// The root RNG this configuration prescribes.
    #[must_use]
    pub fn rng(&self) -> SimRng {
        SimRng::seed_from_u64(self.seed)
    }

    /// A fresh report honouring this configuration's streaming mode —
    /// the first line of every migrated experiment body.
    #[must_use]
    pub fn report(&self) -> Report {
        if self.stream {
            Report::streaming()
        } else {
            Report::new()
        }
    }

    /// Whether this run collects a `sim-trace` (`--trace` was given).
    /// Experiments gate their instrumentation on this so the disabled
    /// path costs one branch — no allocation, no atomics.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }
}

const USAGE: &str = "usage: experiments <name> [--trials N] [--seed S] [--threads T] [--fast] \
[--json PATH] [--vcd PATH] [--trace PATH] [--list]";

thread_local! {
    /// Set by [`write_artifact`] on an I/O failure inside an
    /// experiment body (e.g. a `--vcd` dump), where no exit code can
    /// be returned; drained by the CLI driver after the run.
    static ARTIFACT_FAILED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Writes a user-requested artifact (a `--vcd` dump, say) from inside
/// an experiment body, reporting the result on stderr so stdout stays
/// byte-identical with and without the flag. The write goes through
/// [`write_atomic`], so missing parent directories are created first
/// and a killed run never leaves a torn artifact. On failure it prints
/// a uniform `error: …` line and marks the run so the CLI driver exits
/// nonzero — experiment bodies return a [`Report`], not an exit code.
pub fn write_artifact(label: &str, path: &str, contents: &str) {
    match write_atomic(path, contents) {
        Ok(()) => eprintln!("{label}: {path}"),
        Err(err) => {
            eprintln!("error: failed to write {label} to `{path}`: {err}");
            ARTIFACT_FAILED.with(|f| f.set(true));
        }
    }
}

/// Replaces `path` with `contents` atomically: writes the sibling
/// `{path}.tmp` (same directory, so the rename stays on one file
/// system), then renames it over `path`. A reader, or a writer killed
/// mid-write, sees the old file or the new one, never a torn mix.
/// Missing parent directories are created. Nothing is fsynced, so
/// this guards against interrupted writers, not against power loss.
///
/// # Errors
///
/// Propagates the directory-creation, write or rename failure; `path`
/// keeps its old contents.
pub fn write_atomic(path: impl AsRef<Path>, contents: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Drains the thread's artifact-failure flag: true if any
/// [`write_artifact`] call failed since the last drain.
#[must_use]
pub fn take_artifact_failure() -> bool {
    ARTIFACT_FAILED.with(|f| f.replace(false))
}

/// Appends one formatted line to a [`Report`] — the drop-in
/// replacement for `println!` in migrated experiment bodies.
///
/// ```
/// use sim_runtime::{rline, Report};
///
/// let mut r = Report::new();
/// rline!(r, "skew = {:.3}", 1.5);
/// rline!(r);
/// assert_eq!(r.as_str(), "skew = 1.500\n\n");
/// ```
#[macro_export]
macro_rules! rline {
    ($r:expr) => {
        $r.blank()
    };
    ($r:expr, $($t:tt)*) => {
        $r.line(format!($($t)*))
    };
}

/// One reproducible experiment: a name, the paper claim it checks,
/// and a deterministic `run`.
///
/// `Send + Sync` because a [`Registry`] is shared by reference across
/// sweep workers *and* moved into long-lived serving threads
/// (`sim-serve` keeps one registry behind an `Arc` for its worker
/// pool); every experiment is an immutable description, so the bounds
/// cost nothing.
pub trait Experiment: Sync + Send {
    /// Short id: the registry key, e.g. `"e1"` (`experiments e1`).
    fn name(&self) -> &'static str;
    /// One-line human title.
    fn title(&self) -> &'static str;
    /// Where in the paper the claim lives.
    fn paper_ref(&self) -> &'static str;
    /// Approximate wall-clock time of a full (non-`--fast`) run in
    /// milliseconds, for the `--list` view; `0` (the default) means
    /// unmeasured and is not shown.
    fn approx_ms(&self) -> u64 {
        0
    }
    /// The fewest trials the run's own checks hold at; a smaller
    /// explicit `cfg.trials` is refused by [`check_trials`] before the
    /// run. `1` (the default) accepts any count.
    fn min_trials(&self) -> usize {
        1
    }
    /// Runs the experiment under `cfg`, drawing any sequential
    /// randomness from `rng` (parallel loops derive per-trial streams
    /// from `cfg.seed` via [`ParallelSweep`]).
    ///
    /// Must be deterministic in `(cfg.trials, cfg.seed, cfg.fast)` —
    /// and in particular independent of `cfg.threads`. Wall-clock
    /// telemetry goes through [`Report::record_sweep`], which the
    /// deterministic report sections exclude.
    fn run(&self, cfg: &ExpConfig, rng: &mut SimRng) -> Report;
}

/// A name-keyed collection of experiments (the `e1`–`e12` table the
/// e2e suite iterates).
#[derive(Default)]
pub struct Registry {
    entries: Vec<Box<dyn Experiment>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("names", &self.names())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds an experiment.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered.
    pub fn register(&mut self, exp: Box<dyn Experiment>) -> &mut Self {
        assert!(
            self.get(exp.name()).is_none(),
            "duplicate experiment name `{}`",
            exp.name()
        );
        self.entries.push(exp);
        self
    }

    /// Looks an experiment up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&dyn Experiment> {
        self.entries
            .iter()
            .find(|e| e.name() == name)
            .map(Box::as_ref)
    }

    /// Registered names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name()).collect()
    }

    /// Iterates the experiments in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Experiment> {
        self.entries.iter().map(Box::as_ref)
    }

    /// Number of registered experiments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// One line per experiment — `name  title  [paper ref]` — in
    /// registration order; what `--list` prints.
    #[must_use]
    pub fn listing(&self) -> String {
        let mut out = String::new();
        let mut total_ms = 0;
        for exp in self.iter() {
            out.push_str(&listing_line(exp));
            out.push('\n');
            total_ms += exp.approx_ms();
        }
        if total_ms > 0 {
            out.push_str(&format!(
                "approx full run (all of the above, default trials): ~{total_ms}ms\n"
            ));
        }
        out
    }
}

/// One `--list` line: `name  title  [paper ref]  ~Nms`, the runtime
/// suffix appearing only for experiments that declare
/// [`Experiment::approx_ms`].
fn listing_line(exp: &dyn Experiment) -> String {
    let mut line = format!(
        "{:<4} {:<52} [{}]",
        exp.name(),
        exp.title(),
        exp.paper_ref()
    );
    if exp.approx_ms() > 0 {
        line = format!("{:<72} ~{}ms", line, exp.approx_ms());
    }
    line
}

/// Refuses an explicit trial count below `exp`'s
/// [`Experiment::min_trials`], naming the minimum.
///
/// # Errors
///
/// The refusal message, for a usage error or a bad request.
pub fn check_trials(exp: &dyn Experiment, cfg: &ExpConfig) -> Result<(), String> {
    match cfg.trials {
        Some(t) if t < exp.min_trials() => Err(format!(
            "{} needs at least {} trials, got {t}",
            exp.name(),
            exp.min_trials()
        )),
        _ => Ok(()),
    }
}

/// Runs `exp` under `cfg` with the prescribed root RNG, returning its
/// report. The library-facing entry point; the `experiments` binary
/// wraps it in [`run_cli_args`].
pub fn run_experiment(exp: &dyn Experiment, cfg: &ExpConfig) -> Report {
    exp.run(cfg, &mut cfg.rng())
}

fn banner(exp: &dyn Experiment, cfg: &ExpConfig) -> String {
    // The banner deliberately omits the thread count: stdout must be
    // byte-identical for any --threads value, and threads never affect
    // the numbers.
    format!(
        "==================================================================\n\
         {}: {}\n\
         paper: {}\n\
         config: seed={}{}{}\n\
         ==================================================================\n",
        exp.name().to_uppercase(),
        exp.title(),
        exp.paper_ref(),
        cfg.seed,
        cfg.trials.map_or(String::new(), |t| format!(" trials={t}")),
        if cfg.fast { " fast" } else { "" },
    )
}

/// The CLI driver behind `experiments <name> [flags]`: parses `args`,
/// runs `name` out of `registry`, streams banner + report to stdout,
/// honours `--json`/`--trace`, and returns the process exit code
/// instead of exiting, so front ends and tests can call it.
///
/// Returns 2 on a CLI error (`--help` prints usage and returns 0),
/// and 1 when a requested artifact (e.g. the `--json` file) cannot
/// be written or the `--trace` checker finds a violation. `--list`
/// enumerates the whole registry.
///
/// # Panics
///
/// Panics if `name` is not registered — the caller checks the name
/// against the registry first.
pub fn run_cli_args<I: IntoIterator<Item = String>>(
    registry: &Registry,
    name: &str,
    args: I,
) -> i32 {
    let exp = registry
        .get(name)
        .unwrap_or_else(|| panic!("unregistered experiment `{name}`"));
    let mut cfg = match cli::resolve(USAGE, ExpConfig::from_args(args)) {
        Ok(cfg) => cfg,
        Err(code) => return code,
    };
    if cfg.list {
        for exp in registry.iter() {
            println!("{}", listing_line(exp));
        }
        return 0;
    }
    if let Err(code) = cli::resolve(USAGE, check_trials(exp, &cfg).map_err(CliError::Usage)) {
        return code;
    }
    cfg.stream = true;
    print!("{}", banner(exp, &cfg));
    let timer = SpanTimer::start();
    let _ = take_artifact_failure();
    let report = run_experiment(exp, &cfg);
    let artifact_failed = take_artifact_failure();
    let wall_ms = timer.elapsed_ms();
    if let Some(path) = &cfg.json {
        let run = RunInfo {
            threads: cfg.sweep().threads(),
            wall_ms,
        };
        let doc = json_full(exp, &cfg, &report, &run);
        if let Err(err) = write_atomic(path, &doc.to_pretty()) {
            eprintln!("error: failed to write JSON report to `{path}`: {err}");
            return 1;
        }
        // Stderr, so stdout stays byte-identical with and without
        // --json.
        eprintln!("json report: {path}");
    }
    if let Some(path) = &cfg.trace {
        let code = export_trace(&report, path);
        if code != 0 {
            return code;
        }
    }
    i32::from(artifact_failed)
}

/// Writes the collected trace as Perfetto JSON to `path` and as
/// deterministic text to `path.txt`, then runs the invariant checker.
/// All notices go to stderr so stdout stays byte-identical with and
/// without `--trace`. Returns the exit code: 1 on a write failure or
/// a checker violation.
fn export_trace(report: &Report, path: &str) -> i32 {
    let trace = report.trace();
    if let Err(err) = write_atomic(path, &trace.to_perfetto().to_pretty()) {
        eprintln!("error: failed to write trace to `{path}`: {err}");
        return 1;
    }
    let text_path = format!("{path}.txt");
    if let Err(err) = write_atomic(&text_path, &trace.to_text()) {
        eprintln!("error: failed to write trace text to `{text_path}`: {err}");
        return 1;
    }
    eprintln!(
        "trace: {path} ({} events, {} wall spans; text: {text_path})",
        trace.event_count(),
        trace.wall_spans().len()
    );
    let check = sim_observe::check_trace(trace);
    eprintln!("{}", check.summary());
    if check.is_ok() {
        0
    } else {
        for v in &check.violations {
            eprintln!("  {v}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl Experiment for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn title(&self) -> &'static str {
            "dummy experiment"
        }
        fn paper_ref(&self) -> &'static str {
            "nowhere"
        }
        fn run(&self, cfg: &ExpConfig, rng: &mut SimRng) -> Report {
            let mut r = cfg.report();
            let total: u64 = cfg
                .sweep()
                .run(0..cfg.trials_or(16), cfg.seed, |_i, rng| {
                    crate::rng::Rng::next_u64(rng) % 100
                })
                .into_iter()
                .sum();
            rline!(r, "total {total} (seq draw {})", crate::rng::Rng::next_u64(rng) % 7);
            r
        }
    }

    #[test]
    fn args_parse_round_trip() {
        let cfg = ExpConfig::from_args(
            ["--trials", "50", "--seed", "9", "--threads", "3", "--fast"]
                .map(String::from),
        )
        .expect("valid args");
        assert_eq!(cfg.trials, Some(50));
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.threads, 3);
        assert!(cfg.fast);
        assert_eq!(cfg.json, None);
        assert_eq!(cfg.vcd, None);
        assert!(!cfg.list);
        assert!(!cfg.stream);
    }

    #[test]
    fn zero_or_absent_threads_take_the_environment_default() {
        let default = ParallelSweep::from_env().threads();
        let parsed = |args: &[&str]| {
            ExpConfig::from_args(args.iter().map(|s| (*s).to_owned()))
                .expect("valid args")
                .threads
        };
        assert_eq!(parsed(&[]), default);
        assert_eq!(parsed(&["--threads", "0"]), default);
        assert_eq!(parsed(&["--threads", "2"]), 2);
    }

    #[test]
    fn json_vcd_trace_list_flags_parse() {
        let cfg = ExpConfig::from_args(
            ["--json", "out.json", "--vcd", "wave.vcd", "--trace", "t.json", "--list"]
                .map(String::from),
        )
        .expect("valid args");
        assert_eq!(cfg.json.as_deref(), Some("out.json"));
        assert_eq!(cfg.vcd.as_deref(), Some("wave.vcd"));
        assert_eq!(cfg.trace.as_deref(), Some("t.json"));
        assert!(cfg.tracing());
        assert!(cfg.list);
        assert!(!ExpConfig::default().tracing());
    }

    #[test]
    fn bad_args_are_errors() {
        assert!(ExpConfig::from_args(["--bogus".to_owned()]).is_err());
        assert!(ExpConfig::from_args(["--trials".to_owned()]).is_err());
        assert!(
            ExpConfig::from_args(["--seed".to_owned(), "x".to_owned()]).is_err()
        );
        assert!(ExpConfig::from_args(["--json".to_owned()]).is_err());
        assert!(ExpConfig::from_args(["--vcd".to_owned()]).is_err());
        assert!(ExpConfig::from_args(["--trace".to_owned()]).is_err());
    }

    /// A registry holding only `exp`, for driving the CLI.
    fn one(exp: impl Experiment + 'static) -> Registry {
        let mut reg = Registry::new();
        reg.register(Box::new(exp));
        reg
    }

    #[test]
    fn help_parses_successfully_and_exits_zero() {
        for flag in ["--help", "-h"] {
            assert_eq!(ExpConfig::from_args([flag.to_owned()]), Err(CliError::Help));
            let code = run_cli_args(&one(Dummy), "dummy", [flag.to_owned()]);
            assert_eq!(code, 0, "{flag} must exit 0");
        }
    }

    #[test]
    fn zero_negative_and_garbage_numerics_are_rejected_with_usage() {
        for bad in [
            vec!["--trials", "0"],
            vec!["--trials", "-3"],
            vec!["--trials", "lots"],
            vec!["--seed", "1.5"],
            vec!["--threads", "-1"],
            vec!["--no-such-flag"],
        ] {
            let args = || bad.iter().map(|s| (*s).to_owned());
            let err = ExpConfig::from_args(args()).expect_err(&format!("{bad:?} must be rejected"));
            assert!(matches!(err, CliError::Usage(_)), "{bad:?} is not a usage error: {err:?}");
            let code = run_cli_args(&one(Dummy), "dummy", args());
            assert_eq!(code, 2, "{bad:?} must exit 2");
        }
        let err = ExpConfig::from_args(["--trials".to_owned(), "0".to_owned()])
            .expect_err("zero trials");
        assert_eq!(err, CliError::Usage("--trials must be at least 1".to_owned()));
    }

    struct ArtifactExp;
    impl Experiment for ArtifactExp {
        fn name(&self) -> &'static str {
            "artifact"
        }
        fn title(&self) -> &'static str {
            "writes a vcd artifact"
        }
        fn paper_ref(&self) -> &'static str {
            "nowhere"
        }
        fn run(&self, cfg: &ExpConfig, _rng: &mut SimRng) -> Report {
            let mut r = cfg.report();
            if let Some(path) = &cfg.vcd {
                write_artifact("vcd waveform", path, "$dumpvars\n");
            }
            rline!(r, "ok");
            r
        }
    }

    #[test]
    fn failed_artifact_write_fails_the_cli_run() {
        let exps = &one(ArtifactExp);
        // A parent that is an existing regular file defeats both
        // create_dir_all and the write itself, on any platform, as any
        // user (an absolute bogus directory would be *created* by the
        // parent-dir logic when running as root).
        let file_parent = std::env::temp_dir().join("sim_runtime_artifact_not_a_dir");
        std::fs::write(&file_parent, "occupied").expect("temp file");
        let bad = file_parent.join("x.vcd").to_string_lossy().into_owned();
        let code = run_cli_args(exps, "artifact", ["--vcd".to_owned(), bad]);
        let _ = std::fs::remove_file(&file_parent);
        assert_eq!(code, 1, "a lost --vcd artifact must fail the run");
        // The flag is drained: a following clean run exits 0.
        let good = std::env::temp_dir().join("sim_runtime_artifact_test.vcd");
        let good_s = good.to_string_lossy().into_owned();
        let code = run_cli_args(exps, "artifact", ["--vcd".to_owned(), good_s]);
        assert_eq!(code, 0);
        let _ = std::fs::remove_file(&good);
    }

    #[test]
    fn write_artifact_creates_missing_parent_directories() {
        let exps = &one(ArtifactExp);
        let root = std::env::temp_dir().join("sim_runtime_artifact_nested");
        let _ = std::fs::remove_dir_all(&root);
        let nested = root.join("a").join("b").join("x.vcd");
        let nested_s = nested.to_string_lossy().into_owned();
        let code = run_cli_args(exps, "artifact", ["--vcd".to_owned(), nested_s]);
        assert_eq!(code, 0, "missing parent dirs must be created, not fatal");
        let written = std::fs::read_to_string(&nested).expect("artifact exists");
        assert_eq!(written, "$dumpvars\n");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn trials_or_honours_fast_and_override() {
        let mut cfg = ExpConfig::default();
        assert_eq!(cfg.trials_or(1000), 1000);
        cfg.fast = true;
        assert_eq!(cfg.trials_or(1000), 250);
        assert_eq!(cfg.trials_or(4), 4, "fast never raises the count");
        cfg.trials = Some(7);
        assert_eq!(cfg.trials_or(1000), 7);
        assert_eq!(cfg.size(100, 10), 10);
    }

    #[test]
    fn report_is_byte_stable_across_threads() {
        let exp = Dummy;
        let run = |threads: usize| {
            let cfg = ExpConfig {
                threads,
                ..ExpConfig::default()
            };
            run_experiment(&exp, &cfg).to_string()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn cfg_report_defaults_to_silent() {
        let cfg = ExpConfig::default();
        assert!(!cfg.report().is_streaming());
        let cfg = ExpConfig {
            stream: true,
            ..ExpConfig::default()
        };
        assert!(cfg.report().is_streaming());
    }

    #[test]
    fn registry_lookup_and_order() {
        let mut reg = Registry::new();
        reg.register(Box::new(Dummy));
        assert_eq!(reg.names(), vec!["dummy"]);
        assert!(reg.get("dummy").is_some());
        assert!(reg.get("missing").is_none());
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn registry_listing_is_one_line_per_experiment() {
        let mut reg = Registry::new();
        reg.register(Box::new(Dummy));
        let listing = reg.listing();
        assert_eq!(listing.lines().count(), 1);
        assert!(listing.starts_with("dummy"));
        assert!(listing.contains("dummy experiment"));
        assert!(listing.contains("[nowhere]"));
    }

    #[test]
    fn registry_listing_totals_declared_runtimes() {
        let mut reg = Registry::new();
        reg.register(Box::new(Dummy));
        reg.register(Box::new(Timed));
        let listing = reg.listing();
        assert!(listing.contains("approx full run"));
        assert!(listing.ends_with("~140ms\n"), "{listing:?}");
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn registry_rejects_duplicates() {
        let mut reg = Registry::new();
        reg.register(Box::new(Dummy));
        reg.register(Box::new(Dummy));
    }

    struct Timed;
    impl Experiment for Timed {
        fn name(&self) -> &'static str {
            "timed"
        }
        fn title(&self) -> &'static str {
            "an experiment with a runtime estimate"
        }
        fn paper_ref(&self) -> &'static str {
            "nowhere"
        }
        fn approx_ms(&self) -> u64 {
            140
        }
        fn run(&self, cfg: &ExpConfig, _rng: &mut SimRng) -> Report {
            let mut r = cfg.report();
            if cfg.tracing() {
                let mut buf = sim_observe::TraceBuf::new(16);
                buf.record(sim_observe::TraceEvent::SpanBegin {
                    t_ps: 0,
                    name: "run".into(),
                });
                buf.record(sim_observe::TraceEvent::SpanEnd {
                    t_ps: 10,
                    name: "run".into(),
                });
                r.trace_mut().add_track("engine", buf);
            }
            rline!(r, "ok");
            r
        }
    }

    #[test]
    fn listing_shows_the_runtime_estimate() {
        assert!(listing_line(&Timed).ends_with("~140ms"));
        assert!(!listing_line(&Dummy).contains("ms"), "0 means unmeasured");
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("sim_runtime_atomic_{}", std::process::id()));
        let path = dir.join("nested").join("doc.json");
        let tmp = dir.join("nested").join("doc.json.tmp");
        write_atomic(&path, "old").expect("first write creates the directory");
        write_atomic(&path, "new").expect("second write replaces");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new");
        assert!(!tmp.exists(), "no temp file remains");
        // A directory squatting on the temp path: the write fails and
        // the file keeps its old contents.
        std::fs::create_dir(&tmp).unwrap();
        assert!(write_atomic(&path, "torn").is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cli_trace_export_writes_both_forms_and_checks() {
        let dir = std::env::temp_dir();
        let path = dir.join("sim_runtime_cli_trace_test.json");
        let path_s = path.to_string_lossy().into_owned();
        let code = run_cli_args(
            &one(Timed),
            "timed",
            ["--trace".to_owned(), path_s.clone()],
        );
        assert_eq!(code, 0, "checker-clean trace exits 0");
        let perfetto = std::fs::read_to_string(&path).expect("perfetto file written");
        let doc = sim_observe::json::parse(&perfetto).expect("valid JSON");
        let round = sim_observe::Trace::from_perfetto(&doc).expect("round-trips");
        assert_eq!(round.event_count(), 2);
        let text =
            std::fs::read_to_string(format!("{path_s}.txt")).expect("text file written");
        assert!(text.starts_with("# sim-trace v1"));
        assert!(text.contains("span_begin t=0 name=run"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(format!("{path_s}.txt"));
    }
}
