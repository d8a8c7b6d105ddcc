//! End-to-end checks of the experiment claims: every registered
//! experiment run through its `--fast` path, plus direct
//! library-level checks of the Section VII inverter-string trial (E6),
//! the self-timed advantage analysis (E7), and the hybrid scheme
//! comparison (E5) — at sizes small enough for the test suite.

use vlsi_sync_repro::prelude::*;

/// Drives every experiment exactly as `eN --fast` does. Each report
/// must render non-empty and mention its paper reference, so a broken
/// migration of any binary fails here rather than only at `cargo run`.
#[test]
fn every_registered_experiment_runs_fast() {
    use sim_runtime::{run_experiment, ExpConfig};
    let registry = bench::registry();
    assert_eq!(
        registry.names(),
        [
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
            "e14"
        ]
    );
    for exp in registry.iter() {
        let report = run_experiment(exp, &ExpConfig::fast());
        assert!(
            !report.as_str().trim().is_empty(),
            "{} produced an empty --fast report",
            exp.name()
        );
    }
}

/// The tentpole guarantee of the trace layer, end to end: every
/// experiment's `--fast` trace passes the invariant checker (two-phase
/// non-overlap, handshake ordering, monotone per-lane time, schedule
/// causality, span balance), and the Perfetto export round-trips to
/// byte-identical JSON.
#[test]
fn every_fast_trace_is_checker_clean_and_perfetto_round_trips() {
    use sim_runtime::{run_experiment, ExpConfig};
    let registry = bench::registry();
    for exp in registry.iter() {
        let cfg = ExpConfig {
            trace: Some("unused.json".to_owned()),
            ..ExpConfig::fast()
        };
        let report = run_experiment(exp, &cfg);
        let trace = report.trace();
        assert!(
            trace.event_count() > 0,
            "{}: tracing produced no sim-time events",
            exp.name()
        );
        let check = sim_observe::check_trace(trace);
        assert!(
            check.violations.is_empty(),
            "{}: trace checker found violations: {:?}",
            exp.name(),
            check.violations
        );
        let perfetto = trace.to_perfetto().to_pretty();
        let reparsed = sim_observe::json::parse(&perfetto).expect("perfetto JSON parses");
        let round = sim_observe::Trace::from_perfetto(&reparsed).expect("round-trips");
        assert_eq!(
            round.to_perfetto().to_pretty(),
            perfetto,
            "{}: Perfetto export is not a fixed point under reparse",
            exp.name()
        );
        assert_eq!(
            round.to_text(),
            trace.to_text(),
            "{}: deterministic text diverged after the round-trip",
            exp.name()
        );
    }
}

#[test]
fn inverter_string_speedup_regime() {
    // A scaled-down paper chip (256 stages) must already show a
    // substantial pipelined speedup with the same bias ratio.
    let spec = InverterStringSpec {
        stages: 256,
        ..InverterStringSpec::paper_chip(1)
    };
    let result = InverterString::fabricate(spec).run(4);
    assert!(
        result.speedup() > 20.0,
        "speedup {} too small",
        result.speedup()
    );
    assert!(result.equipotential_cycle > result.pipelined_cycle);
}

#[test]
fn equipotential_cycle_scales_linearly_pipelined_does_not() {
    let run = |stages: usize| {
        let spec = InverterStringSpec {
            stages,
            bias_ps: 0,
            discrepancy_std_ps: 0.0,
            base_delay: SimTime::from_ps(1_000),
            seed: 1,
        };
        InverterString::fabricate(spec).run(4)
    };
    let (r64, r256) = (run(64), run(256));
    let equi_ratio =
        r256.equipotential_cycle.as_ps() as f64 / r64.equipotential_cycle.as_ps() as f64;
    assert!((equi_ratio - 4.0).abs() < 0.2, "equi ratio {equi_ratio}");
    assert_eq!(
        r64.pipelined_cycle, r256.pipelined_cycle,
        "ideal unbiased pipelined cycle must not depend on length"
    );
}

#[test]
fn selftimed_advantage_decays_with_array_size() {
    let adv = |k: usize| {
        PipelineModel::new(k, 1.0, 2.0, 0.9)
            .simulate(400, 11)
            .advantage()
    };
    assert!(adv(1) > adv(64));
    // The paper's probability formula.
    let m = PipelineModel::new(64, 1.0, 2.0, 0.9);
    assert!(m.worst_case_path_probability() > 0.99);
}

#[test]
fn hybrid_constant_while_global_schemes_grow() {
    let params = AnalysisParams::default();
    let link = HandshakeLink::new(1.0, 0.5, Protocol::TwoPhase);
    let hybrid = SyncScheme::Hybrid(HybridParams::new(4, params.delta, 1.0, 0.1, link));
    let equi = SyncScheme::GlobalEquipotential { alpha: 1.0 };
    let (xs, hybrid_curve) = mesh_period_sweep(&hybrid, &[8, 16, 32, 64], &params);
    let (_, equi_curve) = mesh_period_sweep(&equi, &[8, 16, 32, 64], &params);
    assert_eq!(classify_growth(&xs, &hybrid_curve), GrowthClass::Constant);
    assert_eq!(classify_growth(&xs, &equi_curve), GrowthClass::Linear);
    // And at every size the hybrid is at least as fast beyond the
    // crossover.
    assert!(hybrid_curve.last() < equi_curve.last());
}

#[test]
fn handshake_throughput_size_independent() {
    let link = HandshakeLink::new(1.0, 0.5, Protocol::FourPhase);
    let short = HandshakeChain::new(8, link, 1.0).run(30, None, None);
    let long = HandshakeChain::new(512, link, 1.0).run(30, None, None);
    assert!((short.period - long.period).abs() < 1e-9);
    assert!(long.latency > short.latency);
}

#[test]
fn stoppable_clock_eliminates_metastability() {
    let meta = MetastabilityModel::new(0.1, 0.4);
    assert!(
        meta.count_naive_failures_par(100_000, 8.0, 5, &sim_runtime::ParallelSweep::new(1)) > 0
    );
    assert_eq!(meta.count_stoppable_clock_failures(100_000), 0);
    // And the analytic failure probability decays exponentially in
    // settle slack.
    assert!(meta.failure_probability(8.0, 2.0) < meta.failure_probability(8.0, 0.5));
}

/// `--trials` below e5's minimum is a usage error (exit 2) before the
/// run, not a failed `naive > 0` check; the minimum itself runs.
#[test]
fn e5_refuses_fewer_trials_than_its_capture_check_needs() {
    use sim_runtime::run_cli_args;
    let registry = bench::registry();
    let min = registry.get("e5").expect("e5 is registered").min_trials();
    let cli = |trials: usize| {
        let args = ["--fast".to_owned(), "--trials".to_owned(), trials.to_string()];
        run_cli_args(&registry, "e5", args)
    };
    assert_eq!(cli(2), 2);
    assert_eq!(cli(min - 1), 2);
    assert_eq!(cli(min), 0);
}

#[test]
fn scheme_reports_decompose_per_a5() {
    let params = AnalysisParams::default();
    let comm = CommGraph::mesh(16, 16);
    let layout = Layout::grid(&comm);
    for scheme in [
        SyncScheme::GlobalEquipotential { alpha: 1.0 },
        SyncScheme::PipelinedDifference {
            buffer_delay: 1.0,
            spacing: 2.0,
        },
        SyncScheme::PipelinedSummation {
            buffer_delay: 1.0,
            spacing: 2.0,
        },
    ] {
        let r = analyze(&comm, &layout, &scheme, &params);
        assert!(
            (r.period - (r.sigma + r.delta + r.tau)).abs() < 1e-9,
            "{}: period must be sigma+delta+tau",
            r.scheme
        );
    }
}
