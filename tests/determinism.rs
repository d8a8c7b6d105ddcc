//! The tentpole guarantee of the runtime rework: experiment reports
//! are **byte-identical for any worker count**. Every Monte-Carlo loop
//! derives trial `i`'s stream from `(seed, i)` alone, so
//! `--threads 1` and `--threads 4` must produce the same bytes — and
//! a different `--seed` must not.
//!
//! Runs the three sweep-heavy experiments (E1 skew fabrications, E5
//! metastability events, E6 chip yield) in `--fast` mode, then extends
//! the same guarantee to the **structured JSON reports**: the
//! deterministic core emitted by `--json` must be byte-identical for
//! `--threads 1/2/4` across all fourteen experiments (only the `run`
//! section — wall clock, worker stats — may differ). E12's
//! fault-injected sweep gets an explicit pin: seed-derived fault
//! draws must not depend on which worker executes a trial. E13's
//! time-varying fault episodes get the same treatment one level
//! deeper: the per-trial episode *schedules* themselves are
//! byte-compared across worker counts before any simulation runs.

use sim_runtime::{json_core, json_full, run_experiment, ExpConfig, Experiment, RunInfo};

fn report(exp: &dyn Experiment, threads: usize, seed: u64) -> String {
    let cfg = ExpConfig {
        threads,
        seed,
        ..ExpConfig::fast()
    };
    run_experiment(exp, &cfg).to_string()
}

fn assert_thread_count_invariant(exp: &dyn Experiment) {
    let base = report(exp, 1, 1);
    assert!(!base.is_empty(), "{} produced an empty report", exp.name());
    for threads in [2, 4] {
        assert_eq!(
            base,
            report(exp, threads, 1),
            "{}: threads=1 vs threads={threads} reports diverged",
            exp.name()
        );
    }
}

#[test]
fn e1_skew_monte_carlo_identical_across_thread_counts() {
    assert_thread_count_invariant(&bench::experiments::E1);
}

#[test]
fn e5_metastability_identical_across_thread_counts() {
    assert_thread_count_invariant(&bench::experiments::E5);
}

/// E6 now carries the flat-netlist sections — the 1,000,000-stage
/// pipelined clock train and the 1000×1000 mesh fault sweep — so this
/// pin covers the million-gate report bytes across worker counts, not
/// just the legacy sweeps.
#[test]
fn e6_million_gate_report_identical_across_thread_counts() {
    let exp = &bench::experiments::E6;
    let base = report(exp, 1, 1);
    assert!(
        base.contains("pipelined clock train, 1000000 stages"),
        "e6 report lost its 1M-stage netlist section"
    );
    assert!(
        base.contains("wavefront mesh, 1000x1000 cells"),
        "e6 report lost its mesh fault sweep"
    );
    for threads in [2, 4] {
        assert_eq!(
            base,
            report(exp, threads, 1),
            "e6: threads=1 vs threads={threads} reports diverged"
        );
    }
}

/// The deterministic JSON core (everything `--json` writes except the
/// volatile `run` section), pretty-printed — the bytes the regression
/// gate compares against committed baselines.
fn json_core_doc(exp: &dyn Experiment, threads: usize, seed: u64) -> String {
    let cfg = ExpConfig {
        threads,
        seed,
        ..ExpConfig::fast()
    };
    let report = run_experiment(exp, &cfg);
    json_core(exp, &cfg, &report).to_pretty()
}

#[test]
fn json_core_identical_across_thread_counts_for_every_experiment() {
    let registry = bench::registry();
    for exp in registry.iter() {
        let base = json_core_doc(exp, 1, 1);
        assert!(
            base.contains("\"schema\": \"vlsi-sync/experiment-report\""),
            "{}: core is missing the schema marker",
            exp.name()
        );
        for threads in [2, 4] {
            assert_eq!(
                base,
                json_core_doc(exp, threads, 1),
                "{}: JSON core diverged between threads=1 and threads={threads}",
                exp.name()
            );
        }
    }
}

#[test]
fn json_full_only_adds_the_run_section() {
    let exp = &bench::experiments::E3;
    let cfg = ExpConfig::fast();
    let report = run_experiment(exp, &cfg);
    let run = RunInfo {
        threads: 4,
        wall_ms: 12.5,
    };
    let core = json_core(exp, &cfg, &report);
    let full = json_full(exp, &cfg, &report, &run);
    let pairs = full.as_object().expect("report is an object");
    let stripped: Vec<_> = pairs.iter().filter(|(k, _)| k != "run").cloned().collect();
    assert_eq!(
        sim_observe::Json::Object(stripped),
        core,
        "full report must be the core plus exactly the run section"
    );
    assert!(full.get("run").is_some());
}

/// The deterministic trace portion (`Trace::to_text`: every sim-time
/// event, wall spans excluded) at a given worker count. The trace path
/// is never written here — setting it only turns the collectors on.
fn trace_text(exp: &dyn Experiment, threads: usize, seed: u64) -> String {
    let cfg = ExpConfig {
        threads,
        seed,
        trace: Some("unused.json".to_owned()),
        ..ExpConfig::fast()
    };
    run_experiment(exp, &cfg).trace().to_text()
}

#[test]
fn trace_text_identical_across_thread_counts_for_every_experiment() {
    let registry = bench::registry();
    for exp in registry.iter() {
        let base = trace_text(exp, 1, 1);
        assert!(
            base.starts_with("# sim-trace v1"),
            "{}: trace text missing header",
            exp.name()
        );
        for threads in [2, 4] {
            assert_eq!(
                base,
                trace_text(exp, threads, 1),
                "{}: trace text diverged between threads=1 and threads={threads}",
                exp.name()
            );
        }
    }
}

/// `--trace` must not leak into stdout. For e6 this also pits the two
/// ways a netlist run executes against each other on the 1M-stage
/// chain: traced, it takes the event loop; untraced, the levelized
/// pass. The report prints that run's counters.
#[test]
fn tracing_never_changes_the_report_bytes() {
    for exp in [
        &bench::experiments::E1 as &dyn Experiment,
        &bench::experiments::E6,
    ] {
        let plain = report(exp, 2, 1);
        let cfg = ExpConfig {
            threads: 2,
            seed: 1,
            trace: Some("unused.json".to_owned()),
            ..ExpConfig::fast()
        };
        let traced = run_experiment(exp, &cfg).to_string();
        assert_eq!(plain, traced, "{}: --trace leaked into stdout", exp.name());
    }
}

#[test]
fn e12_fault_injected_report_and_trace_identical_across_thread_counts() {
    let exp = &bench::experiments::E12;
    // The stdout report: outcome tallies, retention columns and all.
    assert_thread_count_invariant(exp);
    // The trace: fault_injected markers land at identical sim times
    // regardless of which worker ran the trial that drew them.
    let base = trace_text(exp, 1, 1);
    assert!(
        base.contains("fault_injected"),
        "e12 trace must carry fault markers"
    );
    for threads in [2, 4] {
        assert_eq!(
            base,
            trace_text(exp, threads, 1),
            "e12: fault-injected trace diverged at threads={threads}"
        );
    }
}

/// The episode schedules behind e13, serialized per trial by a
/// [`ParallelSweep`] — the layer *below* the report. If this holds,
/// any report divergence across thread counts would have to come from
/// the simulation itself, never from the fault environment.
#[test]
fn e13_episode_schedules_identical_across_thread_counts() {
    use sim_faults::{EpisodeConfig, EpisodePlan};
    use sim_runtime::ParallelSweep;
    let cfg = EpisodeConfig {
        rate: 0.6,
        min_duration: 30,
        max_duration: 60,
        horizon: 240,
    };
    let schedules = |threads: usize| -> Vec<String> {
        ParallelSweep::new(threads).run(0..16, 7, |trial, _| {
            EpisodePlan::new(7, trial as u64, cfg)
                .schedule(64)
                .iter()
                .map(|ep| format!("{}@{}..{}", ep.site, ep.onset, ep.repair))
                .collect::<Vec<_>>()
                .join(";")
        })
    };
    let base = schedules(1);
    assert!(
        base.iter().any(|s| !s.is_empty()),
        "storm-rate config must actually schedule episodes"
    );
    for threads in [2, 4] {
        assert_eq!(
            base,
            schedules(threads),
            "episode schedules diverged between threads=1 and threads={threads}"
        );
    }
}

/// E13's recovery harness end-to-end: the stdout report (recovery
/// tables, latency quantiles) and the trace (episode onsets plus
/// violation/recovery spans, in sim-time order) must not depend on
/// the worker count.
#[test]
fn e13_recovery_report_and_trace_identical_across_thread_counts() {
    let exp = &bench::experiments::E13;
    assert_thread_count_invariant(exp);
    let base = trace_text(exp, 1, 1);
    assert!(
        base.contains("episode_onset"),
        "e13 trace must carry episode markers"
    );
    for threads in [2, 4] {
        assert_eq!(
            base,
            trace_text(exp, threads, 1),
            "e13: episode trace diverged at threads={threads}"
        );
    }
}

/// E14's topology scorecard end-to-end: the stdout report (geometry
/// tables, SDF corpus verdicts, attribution worked example) and the
/// skew-attribution trace must not depend on the worker count — the
/// Monte-Carlo band sampling inside the scorecard is the only
/// parallel stage, and it derives every trial from `(seed, trial)`.
#[test]
fn e14_topology_report_and_trace_identical_across_thread_counts() {
    let exp = &bench::experiments::E14;
    assert_thread_count_invariant(exp);
    let base = trace_text(exp, 1, 1);
    assert!(
        base.contains("skew_sample"),
        "e14 trace must carry skew-attribution samples"
    );
    for threads in [2, 4] {
        assert_eq!(
            base,
            trace_text(exp, threads, 1),
            "e14: attribution trace diverged at threads={threads}"
        );
    }
}

#[test]
fn different_seed_changes_the_e1_report() {
    let exp = &bench::experiments::E1;
    assert_ne!(
        report(exp, 1, 1),
        report(exp, 1, 2),
        "the seed must actually steer the Monte-Carlo streams"
    );
}
