//! E5 — Section VI, Fig. 8: the hybrid synchronization scheme.
//!
//! Compares the achievable cycle time of all five synchronization
//! schemes on growing `n × n` meshes:
//!
//! * global equipotential clocking grows with the layout diameter;
//! * pipelined clocking under the summation model grows `Ω(n)` in its
//!   skew term (Section V-B);
//! * the hybrid scheme and full self-timing stay **constant** — and
//!   the hybrid does so with less overhead and with purely clocked
//!   cell design;
//!
//! and verifies the stoppable-clock property: zero metastability
//! failures versus a conventional synchronizer's nonzero rate. The
//! metastability Monte-Carlo fans out over
//! [`sim_runtime::ParallelSweep`] in 8192-event chunks.

use crate::{f, growth_label, Table};
use selftimed::prelude::*;
use sim_observe::TraceBuf;
use sim_runtime::{rline, ExpConfig, Experiment, Report, SimRng};
use vlsi_sync::prelude::*;

/// See the module docs.
#[derive(Debug)]
pub struct E5;

/// The naive synchronizer's metastability model and sampling period.
fn metastability() -> (MetastabilityModel, f64) {
    (MetastabilityModel::new(0.05, 0.5), 10.0)
}

/// The chance, per seed, that `naive > 0` may fail at the minimum
/// trial count: no event lands in a capture window.
const ZERO_CAPTURE_ODDS: f64 = 1e-9;

impl Experiment for E5 {
    fn name(&self) -> &'static str {
        "e5"
    }
    fn title(&self) -> &'static str {
        "hybrid synchronization"
    }
    fn paper_ref(&self) -> &'static str {
        "Section VI, Fig. 8"
    }
    fn approx_ms(&self) -> u64 {
        80
    }
    /// The fewest events for which `(1 − p)^events`, the chance of no
    /// capture at per-event capture probability `p`, is at most
    /// `ZERO_CAPTURE_ODDS`.
    fn min_trials(&self) -> usize {
        let (meta, period) = metastability();
        let p = meta.failure_probability(period, 0.0);
        (ZERO_CAPTURE_ODDS.ln() / (-p).ln_1p()).ceil() as usize
    }

    fn run(&self, cfg: &ExpConfig, _rng: &mut SimRng) -> Report {
        let mut r = cfg.report();
        let params = AnalysisParams::default();
        let link = HandshakeLink::new(1.0, 0.5, Protocol::TwoPhase);
        let hybrid_params = HybridParams::new(4, params.delta, 1.0, 0.1, link);
        let schemes = [
            SyncScheme::GlobalEquipotential { alpha: 1.0 },
            SyncScheme::PipelinedSummation {
                buffer_delay: 1.0,
                spacing: 2.0,
            },
            SyncScheme::Hybrid(hybrid_params),
            SyncScheme::FullySelfTimed { link },
        ];
        let sides: &[usize] = if cfg.fast {
            &[8, 16, 32, 64]
        } else {
            &[8, 16, 32, 64, 128]
        };

        let mut table =
            Table::new(&["n", "equipotential", "pipelined(summ.)", "hybrid", "self-timed"]);
        let mut curves: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
        for &n in sides {
            let comm = array_layout::prelude::CommGraph::mesh(n, n);
            let layout = array_layout::prelude::Layout::grid(&comm);
            let periods: Vec<f64> = schemes
                .iter()
                .map(|s| analyze(&comm, &layout, s, &params).period)
                .collect();
            for (curve, &p) in curves.iter_mut().zip(&periods) {
                curve.push(p);
            }
            table.row(&[
                &n.to_string(),
                &f(periods[0]),
                &f(periods[1]),
                &f(periods[2]),
                &f(periods[3]),
            ]);
        }
        r.table("period_vs_n", &table);

        let xs: Vec<f64> = sides.iter().map(|&n| n as f64).collect();
        let names = ["equipotential", "pipelined(summation)", "hybrid", "self-timed"];
        let expected = [
            GrowthClass::Linear,
            GrowthClass::Linear,
            GrowthClass::Constant,
            GrowthClass::Constant,
        ];
        rline!(r);
        for ((name, curve), want) in names.iter().zip(&curves).zip(&expected) {
            let class = classify_growth(&xs, curve);
            rline!(r, "{name:>22}: {}", growth_label(class));
            assert_eq!(class, *want, "{name} growth unexpected");
        }

        // Wave-accurate hybrid simulation with jitter: the period stays
        // bounded as the array grows.
        rline!(r);
        let mut sim_table = Table::new(&["n", "analytic cycle", "simulated (jitter 0.3)"]);
        let sim_sides: &[usize] = if cfg.fast { &[16, 64] } else { &[16, 64, 256] };
        let waves = cfg.size(200, 80);
        for &n in sim_sides {
            let h = HybridArray::over_mesh(n, hybrid_params);
            sim_table.row(&[
                &n.to_string(),
                &f(h.cycle_time()),
                &f(h.simulate_period(waves, 0.3, cfg.seed.wrapping_add(41))),
            ]);
        }
        r.table("hybrid_simulated", &sim_table);

        // The Fig. 8 handshake itself, transition by transition: a short
        // chain over this experiment's link, traced at the protocol level.
        if cfg.tracing() {
            let mut hs = TraceBuf::new(1024);
            let chain = HandshakeChain::new(4, link, 1.0);
            let _ = chain.run(6, None, Some(&mut hs));
            r.trace_mut().add_track("handshake", hs);
        }

        // Gate-level proof of the Fig. 8 discipline: two elements with
        // stoppable ring-oscillator clocks, synchronized by two gates.
        use netlist::SimTime;
        let mut pair = ElementPair::new(2, SimTime::from_ps(50), SimTime::from_ps(80));
        if cfg.tracing() {
            pair.enable_trace(1 << 15);
        }
        let local_period = pair.local_period();
        let (run, mut pair_sim, pair_signals) =
            pair.run_capture(SimTime::from_ps(cfg.size(300_000, 100_000) as u64));
        if let Some(path) = &cfg.vcd {
            // Stderr: stdout must stay byte-identical with and
            // without --vcd. A failure marks the run so the CLI
            // driver exits nonzero.
            sim_runtime::write_artifact("vcd waveform", path, &pair_sim.export_vcd(&pair_signals));
        }
        if let Some(buf) = pair_sim.take_trace() {
            r.trace_mut().add_track("engine", buf);
        }
        rline!(r);
        rline!(r, "gate-level element pair (ring period {local_period}):");
        rline!(
            r,
            "  ticks A/B: {}/{} (lock step), handshake cycle {} ps, timing violations: {}",
            run.ticks_a,
            run.ticks_b,
            run.period_ps,
            run.violations
        );
        assert_eq!(run.violations, 0);
        assert!(run.ticks_a.abs_diff(run.ticks_b) <= 1);

        // Metastability: stoppable clock vs naive synchronizer, the
        // Monte-Carlo fanned out across the sweep's workers.
        let (meta, period) = metastability();
        let events = cfg.trials_or(1_000_000);
        let naive = meta.count_naive_failures_par(events, period, cfg.seed, &cfg.sweep());
        let stoppable = meta.count_stoppable_clock_failures(events);
        r.metrics_mut().add("e5.naive_failures", naive as u64);
        r.metrics_mut().add("e5.stoppable_failures", stoppable as u64);
        rline!(r);
        rline!(r, "metastable captures over {events} async events:");
        rline!(r, "  naive free-running synchronizer : {naive}");
        rline!(r, "  hybrid stoppable clock          : {stoppable}");
        assert!(naive > 0);
        assert_eq!(stoppable, 0);
        rline!(r);
        rline!(r, "check: hybrid constant cycle, zero metastability  [OK]");
        r
    }
}
