//! End-to-end gate-level scenarios: the paper's synchronization
//! mechanisms exercised as actual circuits on the netlist engine,
//! across crates.

use vlsi_sync_repro::prelude::*;

#[test]
fn muller_pipeline_has_selftimed_signature() {
    // Throughput independent of length, latency linear in it — the
    // Section I characterization of self-timing, at gate level.
    let short = MullerPipeline::new(8, SimTime::from_ps(100), SimTime::from_ps(50))
        .run(SimTime::from_ps(300_000));
    let long = MullerPipeline::new(64, SimTime::from_ps(100), SimTime::from_ps(50))
        .run(SimTime::from_ps(300_000));
    let ratio = long.period.as_ps() as f64 / short.period.as_ps() as f64;
    assert!((0.8..1.25).contains(&ratio), "{short:?} vs {long:?}");
    assert!(long.first_arrival.as_ps() > 4 * short.first_arrival.as_ps());
}

#[test]
fn clocked_chain_confirms_a5_in_gates() {
    // The analytic σ + δ + τ period is sufficient; below it, the
    // registers themselves flag the failure.
    let spec = ClockedChainSpec::default_chain();
    let safe = analytic_min_period(spec) + SimTime::from_ps(100);
    let ok = run_chain(spec, safe, 10);
    assert!(ok.clean(), "{ok:?}");
    let unsafe_period = SimTime::from_ps(analytic_min_period(spec).as_ps() - 130);
    let bad = run_chain(spec, unsafe_period, 10);
    assert!(!bad.clean(), "{bad:?}");
}

#[test]
fn element_pair_is_the_hybrid_scheme_in_gates() {
    let pair = ElementPair::new(2, SimTime::from_ps(50), SimTime::from_ps(80));
    let run = pair.run(SimTime::from_ps(250_000));
    // Lock step, alternating, violation-free: Fig. 8's discipline.
    assert!(run.ticks_a >= 100);
    assert!(run.ticks_a.abs_diff(run.ticks_b) <= 1);
    assert_eq!(run.violations, 0);
}

#[test]
fn elmore_quantifies_the_buffering_tradeoff() {
    // The RC story behind A6/A7: the same H-tree is quadratic-ish to
    // settle unbuffered and linear with repeaters.
    let rc = RcParams::new(1.0, 1.0, 0.5);
    let lens = [16.0, 32.0, 64.0, 128.0];
    let unbuf: Vec<f64> = lens.iter().map(|&l| unbuffered_line_delay(l, rc)).collect();
    let buf: Vec<f64> = lens
        .iter()
        .map(|&l| buffered_line_delay(l, 2.0, 1.0, rc))
        .collect();
    assert_eq!(
        classify_growth(&lens, &unbuf),
        GrowthClass::Superlinear,
        "{unbuf:?}"
    );
    assert_eq!(classify_growth(&lens, &buf), GrowthClass::Linear, "{buf:?}");
}

#[test]
fn vcd_export_round_trips_a_simulation() {
    let mut nl = Netlist::new();
    let clock = add_stoppable_clock(&mut nl, 2, SimTime::from_ps(50), SimTime::from_ps(80));
    let mut sim = NetSim::from_netlist(nl);
    sim.watch(clock.clk);
    sim.schedule_input(clock.enable, SimTime::from_ps(100), true);
    sim.run_until(SimTime::from_ps(10_000));
    let vcd = sim.export_vcd(&[(clock.enable, "en"), (clock.clk, "clk")]);
    // Structure: header, two vars, dumpvars, and one timestamp per
    // distinct event time.
    assert!(vcd.contains("$timescale 1ps $end"));
    assert_eq!(vcd.matches("$var wire 1").count(), 2);
    let stamps = vcd.lines().filter(|l| l.starts_with('#')).count();
    assert!(stamps >= sim.transitions_ps(clock.clk).len());
}

#[test]
fn ring_arrays_clock_like_linear_arrays() {
    // Theorem 3 extended to rings: folded layout + interleaved spine.
    let model = SummationModel::from_delay_model(WireDelayModel::new(1.0, 0.1));
    let mut skews = Vec::new();
    for n in [8usize, 64, 512] {
        let comm = CommGraph::ring(n);
        let layout = Layout::folded_ring(&comm);
        let tree = spine_ring(&comm, &layout);
        skews.push(model.max_skew(&tree, &comm));
    }
    assert!((skews[0] - skews[2]).abs() < 1e-9, "{skews:?}");
}

#[test]
fn hex_matmul_under_equalized_htree_is_faithful() {
    // The Fig. 3(c) workload under the Fig. 3(c) clocking: hexagonal
    // matmul driven by a tuned H-tree schedule.
    let a = vec![vec![2, -1, 3], vec![0, 4, 1], vec![-2, 5, -3]];
    let b = vec![vec![1, 2, 0], vec![3, -1, 2], vec![4, 0, -2]];
    let mut hm = HexMatMul::new(&a, &b);
    let comm = hm.comm().clone();
    let layout = Layout::grid(&comm);
    let clk = htree(&comm, &layout).equalized();
    let delays = WireDelayModel::new(0.02, 0.004);
    let timing = CellTiming::new(1.0, 2.0, 0.3, 0.2);
    let period = safe_period_for_tree(&clk, &comm, delays, timing).expect("no race");
    let schedule = worst_case_schedule(&clk, &comm, delays, period);
    let mut exec = SkewedExecutor::new(&comm, &schedule, timing);
    assert!(exec.is_faithful());
    let cycles = hm.cycles_needed();
    exec.run(&mut hm, cycles);
    assert_eq!(hm.product(), HexMatMul::reference(&a, &b));
}
