//! `paper_repro`: regenerate every registered experiment, back to back.
//!
//! One operation is a full pass over the registry at `--fast` size
//! (e7 at full size, see [`FULL_SIZE`]) on one thread — what a reader
//! re-running the paper's tables waits for. Set-up is what such a
//! reader pays before the first experiment runs: building the
//! registry. An untimed reference pass then fixes the report bytes
//! every later pass must reproduce exactly; an experiment whose
//! in-report asserts fire panics and counts as failed.

use crate::calib::Clock;
use crate::spans::{ms, Spans};
use crate::{Measured, SETUP_REPS};
use std::hint::black_box;
use sim_runtime::{json_core, run_experiment, ExpConfig, Registry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Experiments run at full size rather than `--fast`: e7's statistical
/// assert needs its full trial count (at `--fast` it fires for about
/// one seed in sixteen).
const FULL_SIZE: [&str; 1] = ["e7"];
/// Registry constructions per set-up repetition: one takes well under
/// a microsecond, so a batch is timed and divided.
const SETUP_BATCH: u32 = 10_000;
/// The reported tail percentile: a 30 s window holds only a dozen or
/// so passes, too few for any percentile to have ten samples beyond
/// it, so the median stands in.
const TAIL_Q: f64 = 0.5;

/// One pass's outputs: each experiment's deterministic report body
/// (`None` when it panicked), plus per-experiment run and render times
/// and their total, all scaled to reference-host ms.
struct Pass {
    bodies: Vec<Option<String>>,
    run_ms: Vec<f64>,
    render_ms: f64,
    total_ms: f64,
}

/// Runs every experiment once. The host-speed kernel runs after each
/// experiment, so each is scaled by the host speed around it: one pass
/// spans seconds, long enough for the host's speed to change.
fn pass(registry: &Registry, cfg: &ExpConfig, clock: &mut Clock, spans: &mut Spans) -> Pass {
    let mut out = Pass {
        bodies: Vec::new(),
        run_ms: Vec::new(),
        render_ms: 0.0,
        total_ms: 0.0,
    };
    let full = ExpConfig {
        fast: false,
        ..cfg.clone()
    };
    for exp in registry.iter() {
        let cfg = if FULL_SIZE.contains(&exp.name()) {
            &full
        } else {
            cfg
        };
        let t0 = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| run_experiment(exp, cfg)));
        let t1 = Instant::now();
        let body = report.ok().map(|r| json_core(exp, cfg, &r).to_pretty());
        let t2 = Instant::now();
        spans.record("experiments", exp.name(), t0, t1);
        spans.record("experiments", "render", t1, t2);
        let f = clock.factor();
        out.bodies.push(body);
        out.run_ms.push(ms(t1 - t0) * f);
        out.render_ms += ms(t2 - t1) * f;
        out.total_ms += ms(t2 - t0) * f;
    }
    out
}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, window: Duration, spans: &mut Spans) -> Result<Measured, String> {
    let cfg = ExpConfig {
        seed,
        fast: true,
        threads: 1,
        ..ExpConfig::default()
    };
    let mut clock = Clock::new();
    let mut failed = 0;
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCH {
            black_box(bench::registry());
        }
        let t1 = Instant::now();
        spans.record("setup", "registry", t0, t1);
        setup_s.push((t1 - t0).as_secs_f64() / f64::from(SETUP_BATCH) * clock.factor());
    }
    let registry = bench::registry();
    let reference = pass(&registry, &cfg, &mut clock, spans).bodies;
    for (exp, body) in registry.iter().zip(&reference) {
        let doc = body
            .as_deref()
            .ok_or_else(|| format!("{} failed its in-report checks", exp.name()))?;
        let parsed = sim_observe::parse(doc).map_err(|e| format!("{}: {e}", exp.name()))?;
        if parsed.get("experiment").and_then(sim_observe::Json::as_str) != Some(exp.name()) {
            return Err(format!("{}: report names another experiment", exp.name()));
        }
    }

    let names: Vec<&'static str> = registry.names();
    let mut per_exp: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut render = Vec::new();
    let mut latency_ms = Vec::new();
    let mut attempted = 0;
    let start = Instant::now();
    while start.elapsed() < window {
        let t0 = Instant::now();
        let p = pass(&registry, &cfg, &mut clock, spans);
        spans.record("op", "pass", t0, Instant::now());
        latency_ms.push(p.total_ms);
        attempted += p.bodies.len() as u64;
        failed += p
            .bodies
            .iter()
            .zip(&reference)
            .filter(|(got, want)| got.is_none() || got != want)
            .count() as u64;
        for (slot, t) in per_exp.iter_mut().zip(&p.run_ms) {
            slot.push(*t);
        }
        render.push(p.render_ms);
    }

    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for (name, samples) in names.iter().zip(&per_exp) {
        if let Some(layer) = crate::PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix("_ms") == Some(*name))
        {
            layers.push((layer.0, crate::stats::median(samples)));
        }
    }
    layers.push(("render_ms", crate::stats::median(&render)));
    Ok(Measured {
        attempted,
        failed,
        latency_ms,
        setup_s,
        tail_q: TAIL_Q,
        layers,
    })
}
