//! `grid_sweep`: the design-space sweep as the sharded workflow runs it.
//!
//! One operation builds the fast grid's cells, runs every shard with
//! checkpoints on disk, merges the shard files, aggregates the sweep
//! report and prunes it to the Pareto frontier — `explore`'s work
//! through `sweep_shard`'s path. Set-up builds the manifest and runs
//! the whole grid in-process without checkpoints; the merged report
//! and frontier of every operation must match that reference byte for
//! byte.

use crate::calib::Clock;
use crate::spans::{ms, Spans};
use crate::{Measured, OUT_DIR, SETUP_REPS};
use bench::grid;
use sim_observe::Json;
use sim_sweep::prelude::{load_shards, run_shard, Manifest, ShardOpts};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Trials per grid point: 54 fast-grid points give 432 trials a sweep.
const TRIALS: u64 = 8;
/// Shards per sweep, run one after another in this process.
const SHARDS: u64 = 3;
/// Trials between checkpoints, so each shard writes nine of them.
const CHECKPOINT_EVERY: u64 = 16;
/// The reported tail percentile: a 30 s window holds 150 to 300
/// sweeps, so 15 to 30 lie beyond it.
const TAIL_Q: f64 = 0.9;

struct Reference {
    manifest: Manifest,
    report: String,
    frontier: String,
}

fn reference(seed: u64) -> Result<Reference, String> {
    let manifest = grid::default_manifest(seed, TRIALS, SHARDS, CHECKPOINT_EVERY, true)?;
    let results = grid::run_sweep_single(&manifest, 1)?;
    let report = grid::sweep_report(&manifest, &results);
    let frontier = grid::sweep_frontier(&report)?;
    if frontier
        .get("frontier_size")
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
        < 1.0
    {
        return Err("the reference frontier is empty".to_owned());
    }
    Ok(Reference {
        manifest,
        report: report.to_compact(),
        frontier: frontier.to_compact(),
    })
}

/// One timed sweep: its outputs and per-layer times, in reference-host
/// ms (see [`Clock`]), plus its checkpoint count.
struct Sweep {
    report: String,
    frontier: String,
    cells_ms: f64,
    trials_ms: f64,
    shard_ms: f64,
    merge_ms: f64,
    report_ms: f64,
    frontier_ms: f64,
    checkpoints: u64,
}

impl Sweep {
    fn total_ms(&self) -> f64 {
        self.cells_ms + self.shard_ms + self.merge_ms + self.report_ms + self.frontier_ms
    }
}

/// Runs one sweep, scaled by the host-speed kernel runs before and
/// after it.
fn sweep(m: &Manifest, dir: &str, clock: &mut Clock, spans: &mut Spans) -> Result<Sweep, String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let cells = grid::build_cells(m)?;
    let t1 = Instant::now();
    // Time inside the trial function, summed over trials; only kept
    // when tracing, so the untraced run reads no extra clocks.
    let trial_ns = AtomicU64::new(0);
    let timing = spans.enabled();
    let mut checkpoints = 0;
    for shard in 0..SHARDS {
        let s0 = Instant::now();
        let st = run_shard(m, shard, dir, &ShardOpts::default(), |pi, p, t, rng| {
            let start = timing.then(Instant::now);
            let out = grid::run_trial(&cells[pi], p, m.point_seed(pi), t, rng);
            if let Some(start) = start {
                let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                trial_ns.fetch_add(ns, Ordering::Relaxed);
            }
            out
        })?;
        spans.record("sweep", &format!("shard {shard}"), s0, Instant::now());
        if st.interrupted || st.completed != st.hi - st.lo {
            return Err(format!("shard {shard} stopped early"));
        }
        checkpoints += st.checkpoints;
    }
    let t2 = Instant::now();
    let results = load_shards(m, dir)?;
    let t3 = Instant::now();
    let report = grid::sweep_report(m, &results);
    let t4 = Instant::now();
    let frontier = grid::sweep_frontier(&report)?;
    let t5 = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    for (name, a, b) in [
        ("cells", t0, t1),
        ("merge", t2, t3),
        ("report", t3, t4),
        ("frontier", t4, t5),
    ] {
        spans.record("sweep", name, a, b);
    }
    let f = clock.factor();
    Ok(Sweep {
        report: report.to_compact(),
        frontier: frontier.to_compact(),
        cells_ms: ms(t1 - t0) * f,
        trials_ms: trial_ns.load(Ordering::Relaxed) as f64 / 1e6 * f,
        shard_ms: ms(t2 - t1) * f,
        merge_ms: ms(t3 - t2) * f,
        report_ms: ms(t4 - t3) * f,
        frontier_ms: ms(t5 - t4) * f,
        checkpoints,
    })
}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, window: Duration, spans: &mut Spans) -> Result<Measured, String> {
    let mut clock = Clock::new();
    let mut failed = 0;
    let mut setup_s = Vec::new();
    let mut want: Option<Reference> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let r = reference(seed)?;
        let t1 = Instant::now();
        spans.record("setup", "manifest+reference", t0, t1);
        setup_s.push((t1 - t0).as_secs_f64() * clock.factor());
        match &want {
            None => want = Some(r),
            Some(w) if w.report != r.report || w.frontier != r.frontier => failed += 1,
            Some(_) => {}
        }
    }
    let want = want.expect("at least one set-up repetition");
    let dir = format!("{OUT_DIR}/sweep-{seed}");

    let mut latency_ms = Vec::new();
    let mut layers: [Vec<f64>; 8] = Default::default();
    let mut attempted = 0;
    let start = Instant::now();
    while start.elapsed() < window {
        attempted += 1;
        let t0 = Instant::now();
        let s = sweep(&want.manifest, &dir, &mut clock, spans);
        spans.record("op", "sweep", t0, Instant::now());
        let s = match s {
            Ok(s) => s,
            Err(msg) => {
                eprintln!("perfbench: grid_sweep: {msg}");
                failed += 1;
                continue;
            }
        };
        latency_ms.push(s.total_ms());
        if s.report != want.report || s.frontier != want.frontier {
            failed += 1;
        }
        let values = [
            s.cells_ms,
            s.trials_ms,
            s.shard_ms,
            s.shard_ms - s.trials_ms,
            s.merge_ms,
            s.report_ms,
            s.frontier_ms,
            s.checkpoints as f64,
        ];
        for (slot, v) in layers.iter_mut().zip(values) {
            slot.push(v);
        }
    }

    let median = crate::stats::median;
    let names = [
        "cells_ms",
        "trials_ms",
        "shard_ms",
        "ckpt_ms",
        "merge_ms",
        "report_ms",
        "frontier_ms",
        "checkpoints",
    ];
    Ok(Measured {
        attempted,
        failed,
        latency_ms,
        setup_s,
        tail_q: TAIL_Q,
        layers: names
            .iter()
            .zip(&layers)
            .map(|(n, v)| (*n, median(v)))
            .collect(),
    })
}
