//! E6 — Section VII: the 2048-inverter pipelined-clocking experiment.
//!
//! Reproduces the paper's chip trial in simulation:
//!
//! * the paper's chip: equipotential cycle ≈ 34 µs, pipelined cycle
//!   ≈ 500 ns, speedup ≈ 68× — our simulated chip should land in the
//!   same regime;
//! * speedup roughly constant across string lengths (the paper:
//!   "a similar inverter string of any length could be clocked 68
//!   times faster");
//! * with zero design bias, the accumulated rise/fall discrepancy
//!   across fabricated chips scales like √n (the paper's yield
//!   analysis), not like n. The per-chip fabrications fan out over
//!   [`sim_runtime::ParallelSweep`];
//! * the same engine then scales the pipelined clock train to a
//!   1,000,000-stage string (~500× the paper's chip) and runs an
//!   e12-style fault sweep on a 1000×1000 wavefront mesh — the
//!   million-gate regime its flat arena exists for.

use crate::{f, Table};
use netlist::prelude::*;
use sim_faults::{FaultPlan, FaultRates};
use sim_runtime::{mean_std, rline, ExpConfig, Experiment, Report, SimRng};

/// See the module docs.
#[derive(Debug)]
pub struct E6;

impl Experiment for E6 {
    fn name(&self) -> &'static str {
        "e6"
    }
    fn title(&self) -> &'static str {
        "pipelined clocking: 2048-inverter chip, 1M-gate netlist"
    }
    fn paper_ref(&self) -> &'static str {
        "Section VII"
    }
    fn approx_ms(&self) -> u64 {
        3_000
    }

    fn run(&self, cfg: &ExpConfig, _rng: &mut SimRng) -> Report {
        let mut r = cfg.report();
        let sweep = cfg.sweep();

        // --- the paper's chip ------------------------------------------------
        // Fabrication seed 1 is "the" chip of Section VII throughout
        // the repo's docs; --seed varies the fleet sweeps below.
        let chip = InverterString::fabricate(InverterStringSpec::paper_chip(1));
        let result = chip.run(6);
        rline!(r, "simulated paper chip (2048 stages, falling-edge design bias):");
        rline!(
            r,
            "  equipotential cycle : {}   (paper: ~34 us)",
            result.equipotential_cycle
        );
        rline!(
            r,
            "  pipelined cycle     : {}   (paper: ~500 ns)",
            result.pipelined_cycle
        );
        rline!(r, "  speedup             : {:.1}x (paper: 68x)", result.speedup());
        assert!(result.speedup() > 40.0 && result.speedup() < 100.0);

        // --- speedup vs length -------------------------------------------------
        rline!(r);
        let mut table = Table::new(&["stages", "equipotential", "pipelined", "speedup"]);
        let lengths: &[usize] = if cfg.fast {
            &[256, 512, 1024]
        } else {
            &[256, 512, 1024, 2048]
        };
        let mut speedups = Vec::new();
        let mut last_chip: Option<(InverterStringSpec, SimTime)> = None;
        for &stages in lengths {
            let spec = InverterStringSpec {
                stages,
                ..InverterStringSpec::paper_chip(1)
            };
            let res = InverterString::fabricate(spec).run(6);
            table.row(&[
                &stages.to_string(),
                &res.equipotential_cycle.to_string(),
                &res.pipelined_cycle.to_string(),
                &format!("{:.1}x", res.speedup()),
            ]);
            speedups.push(res.speedup());
            last_chip = Some((spec, res.pipelined_cycle));
        }
        r.table("speedup_vs_length", &table);

        // Engine telemetry (and the --vcd dump): re-run the longest
        // chip's pipelined clock train at a comfortable 2x its minimum
        // period, with taps along the string.
        let (wave_spec, wave_period) = last_chip.expect("lengths non-empty");
        let wave_chip = InverterString::fabricate(wave_spec);
        let trace_capacity = cfg.tracing().then_some(1 << 16);
        let (mut wave_sim, taps) = wave_chip.waveform(wave_period * 2, 6, 8, trace_capacity);
        wave_sim.record_metrics(r.metrics_mut(), "e6.engine");
        if let Some(path) = &cfg.vcd {
            let named: Vec<(WireId, &str)> =
                taps.iter().map(|(w, s)| (*w, s.as_str())).collect();
            // Stderr: stdout must stay byte-identical with and
            // without --vcd. A failure marks the run so the CLI
            // driver exits nonzero.
            sim_runtime::write_artifact("vcd waveform", path, &wave_sim.export_vcd(&named));
        }
        if let Some(buf) = wave_sim.take_trace() {
            r.trace_mut().add_track("engine", buf);
        }
        let (lo, hi) = speedups
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        rline!(
            r,
            "speedup spread across lengths: {lo:.1}x .. {hi:.1}x (paper: constant 68x)"
        );
        assert!(hi / lo < 1.6, "speedup should be roughly length-independent");

        // --- sqrt(n) yield analysis for unbiased designs -----------------------
        let fab_chips = cfg.size(40, 12);
        rline!(r);
        rline!(
            r,
            "unbiased design: accumulated rise/fall discrepancy across {fab_chips} fabricated"
        );
        rline!(r, "chips per length (std dev, ps) — the paper predicts sqrt(n) growth:");
        let mut yield_table =
            Table::new(&["stages", "std of accumulated discrepancy", "ratio vs half"]);
        let mut prev_std: Option<f64> = None;
        for &stages in lengths {
            // Chip i is always fabricated from seed i, so the sweep's
            // worker count never changes the sample.
            let fab = |i: usize, _rng: &mut SimRng| {
                let spec = InverterStringSpec {
                    stages,
                    bias_ps: 0,
                    discrepancy_std_ps: 40.0,
                    base_delay: SimTime::from_ps(8_000),
                    seed: i as u64,
                };
                InverterString::fabricate(spec).pulse_width_change_ps() as f64
            };
            let (samples, fab_stats, spans) = sweep.run_timed(0..fab_chips, cfg.seed, fab);
            if cfg.tracing() {
                r.record_sweep_trace(&format!("sweep/discrepancy_{stages}"), &spans);
            }
            r.record_sweep(&format!("discrepancy_{stages}"), fab_stats);
            let (_, std) = mean_std(&samples);
            let ratio = prev_std.map_or_else(|| "-".to_owned(), |p| format!("{:.2}", std / p));
            yield_table.row(&[&stages.to_string(), &f(std), &ratio]);
            prev_std = Some(std);
        }
        r.table("sqrt_discrepancy", &yield_table);
        rline!(r, "expected ratio per doubling: sqrt(2) = 1.41 (vs 2.0 for linear growth)");

        // --- yield vs length at a fixed period ----------------------------------
        let yield_chips = cfg.trials_or(24);
        rline!(r);
        rline!(r, "yield analysis (\"if a fixed yield … is desired, chips with a discrepancy");
        rline!(
            r,
            "sum proportional to sqrt(n) must be accepted\"): fraction of {yield_chips} unbiased"
        );
        rline!(r, "chips whose pipelined clock works at a fixed 4 ns period:");
        let mut yield_curve = Table::new(&["stages", "yield at 4ns"]);
        let yield_stages: &[usize] = if cfg.fast {
            &[16, 64, 256]
        } else {
            &[16, 64, 256, 1024]
        };
        for &stages in yield_stages {
            let y = fabrication_yield_par(
                InverterStringSpec {
                    stages,
                    base_delay: SimTime::from_ps(1_000),
                    bias_ps: 0,
                    discrepancy_std_ps: 120.0,
                    seed: 0,
                },
                yield_chips,
                SimTime::from_ps(4_000),
                3,
                &sweep,
            );
            yield_curve.row(&[&stages.to_string(), &format!("{:.0}%", 100.0 * y)]);
        }
        r.table("yield_curve", &yield_curve);

        // --- the paper's proposed fix: one-shot pulse buffers ------------------
        rline!(r);
        rline!(r, "the paper's fix — one-shot pulse generators (\"respond only to rising");
        rline!(r, "edges … generate [their] own falling edges\"):");
        let mut fix_table = Table::new(&[
            "stages", "biased inverter min period", "one-shot min period (width 400ps)",
        ]);
        let fix_stages: &[usize] = if cfg.fast { &[256, 1024] } else { &[256, 1024, 2048] };
        for &stages in fix_stages {
            let inv = InverterString::fabricate(InverterStringSpec {
                stages,
                ..InverterStringSpec::paper_chip(1)
            })
            .min_pipelined_period(4);
            let os = OneShotString::fabricate(OneShotStringSpec {
                stages,
                base_delay: SimTime::from_ps(8_000),
                delay_std_ps: 200.0,
                pulse_width: SimTime::from_ps(400),
                seed: 1,
            })
            .min_period(4);
            fix_table.row(&[&stages.to_string(), &inv.to_string(), &os.to_string()]);
        }
        r.table("one_shot_fix", &fix_table);
        rline!(r, "=> pulse regeneration stops the accumulation: the one-shot string's rate");
        rline!(r, "   is set by the wired-in pulse width alone, at any length.");

        // --- the same experiment at a million gates -----------------------------
        // The engine that ran the 2048-stage chip above runs the
        // pipelined clock train on a string ~500x the paper's chip:
        // same fabrication model, same netlist builder.
        rline!(r);
        let nm_stages: usize = 1_000_000;
        rline!(
            r,
            "flat netlist core (crates/netlist): pipelined clock train, {nm_stages} stages"
        );
        let nm_spec = InverterStringSpec {
            stages: nm_stages,
            ..InverterStringSpec::paper_chip(1)
        };
        let nm_chip = InverterString::fabricate(nm_spec);
        let equip = nm_chip.total_delay_both_edges();
        let shrink = nm_chip.worst_prefix_shrinkage_ps().unsigned_abs();
        // The survival-guaranteed period (pulse keeps >= half its
        // width at the worst prefix, plus stage-delay margin).
        let nm_period = SimTime::from_ps(2 * shrink + 8 * nm_spec.base_delay.as_ps());
        let nm_high = SimTime::from_ps(nm_period.as_ps() / 2);
        let nm_cycles = if cfg.fast { 2 } else { 4 };
        let (nm_clk, nm_far) = (WireId::from_index(0), WireId::from_index(nm_stages));
        let mut nm_sim = NetSim::from_netlist(nm_chip.netlist());
        nm_sim.watch(nm_far);
        if cfg.tracing() {
            nm_sim.enable_trace(1 << 10);
            nm_sim.mark_clock(nm_clk, "nl_clk", 0);
        }
        nm_sim.schedule_clock(nm_clk, SimTime::from_ps(10), nm_period, nm_high, nm_cycles);
        let nm_limit = SimTime::from_ps(
            10 + nm_cycles as u64 * nm_period.as_ps() + 4 * equip.as_ps(),
        );
        let _ = nm_sim
            .run_to_quiescence(nm_limit)
            .unwrap_or_else(|e| panic!("1M-inverter string failed to settle: {e}"));
        let delivered = nm_sim.transitions_ps(nm_far).len();
        assert_eq!(
            delivered,
            2 * nm_cycles,
            "every pipelined edge must reach the far end"
        );
        let nm_stats = nm_sim.stats();
        let nm_speedup = equip.as_ps() as f64 / nm_period.as_ps() as f64;
        let mut nm_table = Table::new(&["quantity", "value"]);
        nm_table.row(&["stages", &nm_stages.to_string()]);
        nm_table.row(&["pipelined period", &nm_period.to_string()]);
        nm_table.row(&["analytic equipotential", &equip.to_string()]);
        nm_table.row(&["speedup", &format!("{nm_speedup:.1}x")]);
        nm_table.row(&["edges delivered", &delivered.to_string()]);
        nm_table.row(&["events processed", &nm_stats.events_processed.to_string()]);
        nm_table.row(&["peak queue depth", &nm_stats.peak_queue_depth.to_string()]);
        nm_table.row(&["settle iterations", &nm_stats.settle_iterations.to_string()]);
        r.table("netlist_pipeline", &nm_table);
        rline!(
            r,
            "=> the paper's ~68x pipelining gain holds unchanged at 500x its chip's length"
        );
        assert!(
            nm_speedup > 40.0 && nm_speedup < 100.0,
            "1M-stage speedup {nm_speedup:.1}x left the paper's regime"
        );
        nm_sim.record_metrics(r.metrics_mut(), "e6.netlist");
        if let Some(buf) = nm_sim.take_trace() {
            r.trace_mut().add_track("netlist", buf);
        }

        // --- 1000x1000 wavefront mesh: the e12 fault sweep at netlist scale ----
        // One sealed arena, one NetSim per (rate) trial; faults are
        // compiled to per-gate words from the same FaultPlan stream
        // e12 uses, so site draws are monotone in the rate: raising
        // the rate only ever adds faults.
        rline!(r);
        let side: usize = 1_000;
        let mesh = MeshSpec::square(side, cfg.seed).build();
        rline!(
            r,
            "wavefront mesh, {side}x{side} cells (one shared arena, {} gates):",
            side * side
        );
        let mesh_rates: &[f64] = if cfg.fast {
            &[0.0, 0.002]
        } else {
            &[0.0, 0.0005, 0.002]
        };
        let mut mesh_table = Table::new(&[
            "fault rate",
            "stuck/transient/delayed",
            "coverage",
            "arrival span",
            "events",
        ]);
        let mut coverages = Vec::new();
        for &rate in mesh_rates {
            let plan = if rate == 0.0 {
                FaultPlan::disabled()
            } else {
                FaultPlan::new(cfg.seed, 0, FaultRates::uniform(rate))
            };
            let out = mesh.run_wave(&plan);
            out.stats.record(r.metrics_mut(), "e6.mesh");
            mesh_table.row(&[
                &format!("{rate:.4}"),
                &format!(
                    "{}/{}/{}",
                    out.faults.stuck, out.faults.transient, out.faults.delayed
                ),
                &format!("{:.2}%", 100.0 * out.coverage()),
                &SimTime::from_ps(out.arrival_span_ps()).to_string(),
                &out.stats.events_processed.to_string(),
            ]);
            coverages.push(out.coverage());
        }
        r.table("mesh_fault_sweep", &mesh_table);
        rline!(
            r,
            "=> an unfaulted wavefront reaches every cell; stuck-low cells cut coverage"
        );
        assert!(
            (coverages[0] - 1.0).abs() < f64::EPSILON,
            "nominal wavefront must reach all cells"
        );
        assert!(
            coverages.last().expect("rates non-empty") < &coverages[0],
            "the faulted sweep should lose cells"
        );

        rline!(r);
        rline!(r, "check: ~68x speedup, constant across lengths, sqrt(n) discrepancy  [OK]");
        r
    }
}
