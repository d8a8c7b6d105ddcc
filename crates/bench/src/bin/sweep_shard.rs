//! `sweep_shard` — the process-level worker of the checkpointed
//! mega-sweep: run one shard of a manifest (resuming from its atomic
//! checkpoint), run the whole manifest in-process as the reference, or
//! merge completed shards into the deterministic sweep report and its
//! Pareto frontier.
//!
//! ```text
//! sweep_shard --manifest FILE --shard I --dir D [--threads T] [--stop-after K] [--throttle-ms MS]
//! sweep_shard --manifest FILE --single --out FILE [--threads T]
//! sweep_shard --manifest FILE --merge --dir D [--out FILE] [--frontier FILE]
//! sweep_shard --manifest FILE --status --dir D [--probe-ms MS]
//! sweep_shard --bench [--out FILE] [--seed S] [--trials N] [--threads T]
//! ```
//!
//! `--status` reads the checkpoint and heartbeat files under `--dir`
//! and prints one line per shard: done / active / interrupted /
//! pending, with live trials/sec, ETA, and worker utilization taken
//! from the heartbeats the shard runner writes after every
//! checkpoint. A lingering heartbeat alone cannot distinguish a
//! running shard from one that was killed mid-range, so `--status`
//! reads each heartbeat twice, `--probe-ms` apart: a `tick` that
//! advances means `active`, one that holds still means `interrupted`
//! (so does a mid-range checkpoint with no heartbeat at all). Either
//! way the checkpoint resumes the shard. Pick a probe longer than the
//! shard's checkpoint cadence to avoid flagging a slow-but-live shard.
//!
//! Exit codes: 0 success, 2 usage error, 3 shard stopped by its
//! `--stop-after` budget (checkpointed, resumable), 1 runtime failure.
//!
//! `--bench` is the self-contained regression workload behind
//! `baselines/BENCH_sweep.json`: it runs a small fixed grid
//! single-process, re-runs it as shards with a forced mid-range stop
//! and resume, merges, and asserts the merged report is byte-identical
//! — emitting shard throughput and the cost of each checkpoint as the
//! volatile `run` section. Its grid holds one point of every cell kind,
//! so the digests pin the trial kernels of each.

use bench::grid;
use sim_observe::{Json, SpanTimer};
use sim_runtime::cli::{self, Args, CliError};
use sim_sweep::prelude::*;

const USAGE: &str = "usage: sweep_shard --manifest FILE --shard I --dir D [--threads T] [--stop-after K] [--throttle-ms MS]
       sweep_shard --manifest FILE --single --out FILE [--threads T]
       sweep_shard --manifest FILE --merge --dir D [--out FILE] [--frontier FILE]
       sweep_shard --manifest FILE --status --dir D [--probe-ms MS]
       sweep_shard --bench [--out FILE] [--seed S] [--trials N] [--threads T]";

#[derive(Default)]
struct Opts {
    manifest: Option<String>,
    shard: Option<u64>,
    dir: Option<String>,
    single: bool,
    merge: bool,
    status: bool,
    bench: bool,
    out: Option<String>,
    frontier: Option<String>,
    threads: usize,
    stop_after: Option<u64>,
    throttle_ms: u64,
    probe_ms: u64,
    seed: u64,
    trials: u64,
}

fn parse_opts(mut args: Args) -> Result<Opts, CliError> {
    let mut opts = Opts {
        threads: 1,
        probe_ms: 150,
        seed: 11,
        trials: 8,
        ..Opts::default()
    };
    const COUNT: &str = "a non-negative integer";
    const POSITIVE: &str = "a positive integer";
    while let Some(arg) = args.next_arg()? {
        match arg.as_str() {
            "--manifest" => opts.manifest = Some(args.value("--manifest")?),
            "--shard" => opts.shard = Some(args.parse("--shard", COUNT)?),
            "--dir" => opts.dir = Some(args.value("--dir")?),
            "--single" => opts.single = true,
            "--merge" => opts.merge = true,
            "--status" => opts.status = true,
            "--bench" => opts.bench = true,
            "--out" => opts.out = Some(args.value("--out")?),
            "--frontier" => opts.frontier = Some(args.value("--frontier")?),
            "--threads" => opts.threads = args.parse("--threads", POSITIVE)?,
            "--stop-after" => opts.stop_after = Some(args.parse("--stop-after", POSITIVE)?),
            "--throttle-ms" => opts.throttle_ms = args.parse("--throttle-ms", COUNT)?,
            "--probe-ms" => opts.probe_ms = args.parse("--probe-ms", COUNT)?,
            "--seed" => opts.seed = args.parse("--seed", COUNT)?,
            "--trials" => opts.trials = args.parse("--trials", POSITIVE)?,
            other => return Err(cli::unknown(other)),
        }
    }
    if opts.threads == 0 {
        return Err(CliError::Usage("--threads needs a positive integer".into()));
    }
    let modes =
        usize::from(opts.shard.is_some()) + usize::from(opts.single) + usize::from(opts.merge)
            + usize::from(opts.status) + usize::from(opts.bench);
    if modes != 1 {
        return Err(CliError::Usage(
            "exactly one of --shard, --single, --merge, --status, --bench is required".into(),
        ));
    }
    if !opts.bench && opts.manifest.is_none() {
        return Err(CliError::Usage("--manifest is required".into()));
    }
    if (opts.shard.is_some() || opts.merge || opts.status) && opts.dir.is_none() {
        return Err(CliError::Usage("--dir is required for this mode".into()));
    }
    if opts.single && opts.out.is_none() {
        return Err(CliError::Usage("--single requires --out".into()));
    }
    Ok(opts)
}

fn write_json(path: &str, doc: &Json) -> Result<(), String> {
    sim_runtime::write_with_parents(path, &doc.to_pretty())
        .map_err(|e| format!("cannot write `{path}`: {e}"))
}

fn shard_mode(opts: &Opts) -> Result<i32, String> {
    let m = Manifest::load(opts.manifest.as_deref().expect("validated"))?;
    let cells = grid::build_cells(&m)?;
    let shard = opts.shard.expect("validated");
    let dir = opts.dir.as_deref().expect("validated");
    let sopts = ShardOpts {
        threads: opts.threads,
        stop_after: opts.stop_after,
        throttle_ms: opts.throttle_ms,
    };
    let st = run_shard(&m, shard, dir, &sopts, |pi, p, t, rng| {
        grid::run_trial(&cells[pi], p, m.point_seed(pi), t, rng)
    })?;
    let resumed = if st.resumed_at > 0 {
        format!(" (resumed at {})", st.resumed_at)
    } else {
        String::new()
    };
    println!(
        "sweep_shard: shard {} trials {}..{}: {}/{} done{} in {:.0} ms, {} checkpoint(s){}",
        st.shard,
        st.lo,
        st.hi,
        st.completed,
        st.hi - st.lo,
        resumed,
        st.wall_ms,
        st.checkpoints,
        if st.interrupted {
            " -- stopped by budget"
        } else {
            ""
        }
    );
    Ok(if st.interrupted { 3 } else { 0 })
}

fn single_mode(opts: &Opts) -> Result<i32, String> {
    let m = Manifest::load(opts.manifest.as_deref().expect("validated"))?;
    let results = grid::run_sweep_single(&m, opts.threads)?;
    let report = grid::sweep_report(&m, &results);
    let out = opts.out.as_deref().expect("validated");
    write_json(out, &report)?;
    println!(
        "sweep_shard: {} trials over {} points -> {out}",
        m.total_trials(),
        m.points.len()
    );
    Ok(0)
}

fn merge_mode(opts: &Opts) -> Result<i32, String> {
    let m = Manifest::load(opts.manifest.as_deref().expect("validated"))?;
    let dir = opts.dir.as_deref().expect("validated");
    let results = load_shards(&m, dir)?;
    let report = grid::sweep_report(&m, &results);
    if let Some(out) = &opts.out {
        write_json(out, &report)?;
        println!(
            "sweep_shard: merged {} shard(s), {} trials -> {out}",
            m.shards,
            results.len()
        );
    }
    if let Some(path) = &opts.frontier {
        let frontier = grid::sweep_frontier(&report)?;
        write_json(path, &frontier)?;
        let size = frontier
            .get("frontier_size")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        println!(
            "sweep_shard: frontier keeps {size:.0} of {} points -> {path}",
            m.points.len()
        );
    }
    Ok(0)
}

fn status_mode(opts: &Opts) -> Result<i32, String> {
    let m = Manifest::load(opts.manifest.as_deref().expect("validated"))?;
    let dir = opts.dir.as_deref().expect("validated");
    let digest = m.digest();
    println!(
        "sweep_shard: manifest {} — {} shard(s), {} trials",
        digest,
        m.shards,
        m.total_trials()
    );
    let load_hb = |shard: u64| match Heartbeat::load(&heartbeat_path(dir, shard)) {
        Ok(hb) if hb.manifest_digest == digest => Some(hb),
        _ => None,
    };
    // First probe: snapshot each lingering heartbeat's tick, then wait
    // and read again. A live shard's tick advances (the runner bumps
    // it on every heartbeat write); a killed shard's heartbeat is
    // frozen, so an unchanged tick downgrades `active` to
    // `interrupted`. The delay is only paid when a heartbeat exists,
    // and `--probe-ms 0` restores the old single-read behaviour.
    let first_ticks: Vec<Option<u64>> =
        (0..m.shards).map(|shard| load_hb(shard).map(|hb| hb.tick)).collect();
    let probed = opts.probe_ms > 0 && first_ticks.iter().any(Option::is_some);
    if probed {
        std::thread::sleep(std::time::Duration::from_millis(opts.probe_ms));
    }
    println!(
        "{:<6} {:>12} {:>10} {:>8} {:>12} {:>10} {:>6} state",
        "shard", "range", "done", "pct", "trials/sec", "eta", "util"
    );
    let mut completed_total: u64 = 0;
    for shard in 0..m.shards {
        let range = m.shard_range(shard);
        let (lo, hi) = (range.start as u64, range.end as u64);
        let cp = match Checkpoint::load(&shard_path(dir, shard)) {
            Ok(cp) if cp.manifest_digest == digest => Some(cp),
            Ok(cp) => {
                return Err(format!(
                    "shard {shard} checkpoint belongs to manifest {}, not {digest}",
                    cp.manifest_digest
                ))
            }
            Err(_) => None,
        };
        let hb = load_hb(shard);
        let completed = cp.as_ref().map_or(0, |cp| cp.completed);
        completed_total += completed;
        let total = hi - lo;
        let pct = if total == 0 {
            100.0
        } else {
            completed as f64 / total as f64 * 100.0
        };
        let state = match (&cp, &hb) {
            (Some(cp), _) if cp.is_complete() => "done",
            (_, Some(hb)) => {
                if probed && first_ticks[shard as usize] == Some(hb.tick) {
                    "interrupted"
                } else {
                    "active"
                }
            }
            // Mid-range checkpoint with no vital signs: the runner
            // writes a heartbeat after every checkpoint and only
            // removes it on completion, so whoever wrote this
            // checkpoint is gone.
            (Some(_), None) => "interrupted",
            (None, None) => "pending",
        };
        let (tps, eta, util) = hb.as_ref().map_or_else(
            || ("-".to_owned(), "-".to_owned(), "-".to_owned()),
            |hb| {
                (
                    format!("{:.0}", hb.trials_per_sec),
                    format!("{:.1}s", hb.eta_ms / 1e3),
                    format!("{:.0}%", hb.utilization * 100.0),
                )
            },
        );
        println!(
            "{:<6} {:>12} {:>10} {:>7.1}% {:>12} {:>10} {:>6} {}",
            shard,
            format!("{lo}..{hi}"),
            format!("{completed}/{total}"),
            pct,
            tps,
            eta,
            util,
            state
        );
    }
    let grand_total = m.total_trials() as u64;
    println!(
        "total: {completed_total}/{grand_total} trials ({:.1}%)",
        if grand_total == 0 {
            100.0
        } else {
            completed_total as f64 / grand_total as f64 * 100.0
        }
    );
    Ok(0)
}

/// The fixed `--bench` workload: a tiny grid with one point per cell
/// kind, sharded with a forced mid-range stop, resume, merge,
/// byte-compare.
fn bench_mode(opts: &Opts) -> Result<i32, String> {
    let points = vec![
        GridPoint::new("global", "htree", 4, 0.0),
        GridPoint::new("global", "htree", 4, 0.05),
        GridPoint::new("hybrid", "mesh", 4, 0.0),
        GridPoint::new("hybrid", "mesh", 4, 0.05),
        GridPoint::new("selftimed", "chain", 4, 0.05),
        GridPoint::new("trix", "grid", 4, 0.05),
        GridPoint::new("pals", "mesh", 4, 0.05),
    ];
    let m = Manifest::new("sweep-bench", opts.seed, opts.trials, 3, 4, points)?;
    let cells = grid::build_cells(&m)?;
    let trial = |pi: usize, p: &GridPoint, t: u64, rng: &mut sim_runtime::SimRng| {
        grid::run_trial(&cells[pi], p, m.point_seed(pi), t, rng)
    };

    let timer = SpanTimer::start();
    let single = grid::run_sweep_single(&m, opts.threads)?;
    let single_wall_ms = timer.elapsed_ms();
    let single_report = grid::sweep_report(&m, &single);

    let dir = std::env::temp_dir().join(format!("sim_sweep_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_string_lossy().into_owned();
    let mut shard_wall_ms = Vec::new();
    let mut resumed_trials = 0;
    let mut checkpoints = 0;
    let timer = SpanTimer::start();
    for shard in 0..m.shards {
        // Shard 1 is stopped mid-range and resumed: the resume
        // overhead is the price of re-reading its checkpoint.
        if shard == 1 {
            let stopped = run_shard(
                &m,
                shard,
                &dir,
                &ShardOpts {
                    threads: opts.threads,
                    stop_after: Some(3),
                    throttle_ms: 0,
                },
                trial,
            )?;
            assert!(stopped.interrupted, "budget must interrupt the shard");
            checkpoints += stopped.checkpoints;
        }
        let st = run_shard(
            &m,
            shard,
            &dir,
            &ShardOpts {
                threads: opts.threads,
                stop_after: None,
                throttle_ms: 0,
            },
            trial,
        )?;
        resumed_trials += st.resumed_at;
        checkpoints += st.checkpoints;
        shard_wall_ms.push(Json::Float(st.wall_ms));
    }
    let sharded_wall_ms = timer.elapsed_ms();
    let merged = load_shards(&m, &dir)?;
    let merged_report = grid::sweep_report(&m, &merged);
    let _ = std::fs::remove_dir_all(std::path::Path::new(&dir));

    let matches = merged_report.to_pretty() == single_report.to_pretty();
    if !matches {
        return Err("merged report differs from the single-process run".to_owned());
    }
    let total = m.total_trials() as f64;
    let trials_per_sec = total / (single_wall_ms / 1e3).max(1e-9);
    // Sharding re-runs the same trials; what it adds is checkpoint I/O
    // (plus shard start-up), charged here per checkpoint written.
    let overhead_ms_per_checkpoint =
        (sharded_wall_ms - single_wall_ms) / checkpoints.max(1) as f64;
    let frontier = grid::sweep_frontier(&merged_report)?;

    let doc = Json::obj(vec![
        ("schema", Json::Str("vlsi-sync/sweep-bench".to_owned())),
        ("schema_version", Json::UInt(1)),
        ("bench", Json::Str("sweep".to_owned())),
        (
            "config",
            Json::obj(vec![
                ("seed", Json::UInt(opts.seed)),
                ("trials_per_point", Json::UInt(opts.trials)),
                ("shards", Json::UInt(m.shards)),
                ("points", Json::UInt(m.points.len() as u64)),
                ("total_trials", Json::UInt(m.total_trials() as u64)),
            ]),
        ),
        ("manifest_digest", Json::Str(m.digest())),
        ("report_digest", Json::Str(merged_report.digest())),
        ("merge_matches_single", Json::Bool(matches)),
        (
            "frontier_size",
            frontier
                .get("frontier_size")
                .cloned()
                .unwrap_or(Json::Null),
        ),
        (
            "run",
            Json::obj(vec![
                ("single_wall_ms", Json::Float(single_wall_ms)),
                ("sharded_wall_ms", Json::Float(sharded_wall_ms)),
                ("shard_wall_ms", Json::Array(shard_wall_ms)),
                ("resumed_trials", Json::UInt(resumed_trials)),
                ("trials_per_sec", Json::Float(trials_per_sec)),
                ("checkpoints", Json::UInt(checkpoints)),
                ("overhead_ms_per_checkpoint", Json::Float(overhead_ms_per_checkpoint)),
            ]),
        ),
    ]);
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "target/bench/BENCH_sweep.json".to_owned());
    write_json(&out, &doc)?;
    println!(
        "sweep_shard: bench {total:.0} trials, {trials_per_sec:.0} trials/sec, \
         {overhead_ms_per_checkpoint:.3} ms overhead per checkpoint ({checkpoints}) -> {out}"
    );
    Ok(0)
}

fn main() {
    let opts = cli::resolve(USAGE, parse_opts(Args::from_env()))
        .unwrap_or_else(|code| std::process::exit(code));
    let run = if opts.bench {
        bench_mode(&opts)
    } else if opts.single {
        single_mode(&opts)
    } else if opts.merge {
        merge_mode(&opts)
    } else if opts.status {
        status_mode(&opts)
    } else {
        shard_mode(&opts)
    };
    match run {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("sweep_shard: error: {msg}");
            std::process::exit(1);
        }
    }
}
