//! E11 — the failure threshold of A5, measured functionally.
//!
//! "These synchronization errors due to clock skews can be avoided by
//! lowering clock rates and/or adding delay to circuits, thereby
//! slowing the computation" (Section I). This experiment sweeps the
//! clock period of a skew-afflicted FIR array across the analytic
//! threshold `σ + δ + setup` and reports, per period, over many
//! sampled fabrications:
//!
//! * the fraction of fabrications whose computation comes out wrong;
//! * whether any edge raced (hold) — the failure that no period fixes
//!   — before and after delay padding.
//!
//! The failure rate collapses to zero exactly at the analytic
//! threshold, and padding δ_min converts racing fabrications into
//! clean ones: both of the paper's remedies, quantified. The
//! per-fabrication executions fan out over
//! [`sim_runtime::ParallelSweep`].

use crate::{f, Table};
use array_layout::prelude::*;
use clock_tree::prelude::*;
use sim_runtime::{rline, ExpConfig, Experiment, Report, SimRng};
use systolic::prelude::*;
use vlsi_sync::prelude::*;

/// See the module docs.
#[derive(Debug)]
pub struct E11;

impl Experiment for E11 {
    fn name(&self) -> &'static str {
        "e11"
    }
    fn title(&self) -> &'static str {
        "functional failure rate vs clock period"
    }
    fn paper_ref(&self) -> &'static str {
        "Section I remedies: lower the rate / add delay"
    }
    fn approx_ms(&self) -> u64 {
        8
    }

    fn run(&self, cfg: &ExpConfig, _rng: &mut SimRng) -> Report {
        let mut r = cfg.report();
        let weights = [3, -1, 4, 1, -5, 9, 2, -6];
        let xs: Vec<i64> = (0..30).map(|i| (i * i) % 19 - 9).collect();
        let expected = SystolicFir::reference(&weights, &xs);

        let comm = SystolicFir::new(&weights, &xs).comm().clone();
        let layout = Layout::linear_row(&comm);
        // The Fig. 3(a) H-tree on a line: the *wrong* tree under the
        // summation model, so fabrications actually produce visible skew.
        let tree = htree(&comm, &layout);
        let delays = WireDelayModel::new(0.25, 0.12);
        let timing = CellTiming::new(1.0, 2.0, 0.3, 0.2);
        let fabrications = cfg.trials_or(60);
        let sweep = cfg.sweep();

        // The analytic worst-case threshold over all fabrications.
        let worst_sigma = max_worst_case_skew(&tree, &comm, delays);
        let threshold = worst_sigma + timing.delta_max + timing.setup;
        rline!(
            r,
            "worst-case skew {} -> analytic safe period {}",
            f(worst_sigma),
            f(threshold)
        );
        rline!(r);

        let mut table = Table::new(&["period / threshold", "wrong-output rate", "hold races"]);
        let mut clk_buf = cfg.tracing().then(|| sim_observe::TraceBuf::new(32));
        for (step, frac) in [0.55, 0.7, 0.85, 1.0, 1.15].into_iter().enumerate() {
            let period = threshold * frac;
            if let Some(buf) = clk_buf.as_mut() {
                // The swept clock period as trace time: one edge per
                // setting, crossing the analytic threshold at frac 1.0.
                buf.record(sim_observe::TraceEvent::ClockEdge {
                    t_ps: sim_observe::ps_from_units(period),
                    signal: "swept_period".to_owned(),
                    rising: step % 2 == 0,
                    phase: 0,
                });
            }
            // Fabrication i always uses schedule seed i (matching the
            // sequential sweep of old), so the worker count never
            // changes the tally.
            let fab = |i: usize, _rng: &mut SimRng| {
                let schedule = sampled_schedule(&tree, &comm, delays, period, i as u64);
                let statuses = classify_edges(&comm, &schedule, timing);
                let raced = statuses.contains(&TransferStatus::HoldViolation);
                let mut fir = SystolicFir::new(&weights, &xs);
                let mut exec = SkewedExecutor::new(&comm, &schedule, timing);
                let cycles = fir.cycles_needed();
                exec.run(&mut fir, cycles);
                (fir.outputs() != expected, raced)
            };
            let (outcomes, sweep_stats, spans) = sweep.run_timed(0..fabrications, cfg.seed, fab);
            if cfg.tracing() {
                r.record_sweep_trace(&format!("sweep/fabrications_{frac:.2}"), &spans);
            }
            r.record_sweep(&format!("fabrications_{frac:.2}"), sweep_stats);
            let wrong = outcomes.iter().filter(|&&(w, _)| w).count();
            let races = outcomes.iter().filter(|&&(_, x)| x).count();
            table.row(&[
                &format!("{frac:.2}"),
                &format!("{:.0}%", 100.0 * wrong as f64 / fabrications as f64),
                &races.to_string(),
            ]);
            if frac >= 1.0 {
                assert_eq!(wrong, 0, "at/above the threshold every fabrication is clean");
            }
        }
        if let Some(buf) = clk_buf {
            r.trace_mut().add_track("clock", buf);
        }
        r.table("failure_vs_period", &table);

        // The other remedy: a fabrication with a manufactured hold race,
        // fixed by delay padding rather than by any period.
        rline!(r);
        let raced = ClockSchedule::new(
            (0..comm.node_count()).map(|i| i as f64 * 1.5).collect(),
            1_000.0,
        );
        let before = classify_edges(&comm, &raced, timing);
        let padded_timing = CellTiming::new(12.0, 13.0, 0.3, 0.2);
        let after = classify_edges(&comm, &raced, padded_timing);
        let races_before = before
            .iter()
            .filter(|&&s| s == TransferStatus::HoldViolation)
            .count();
        let races_after = after
            .iter()
            .filter(|&&s| s == TransferStatus::HoldViolation)
            .count();
        rline!(
            r,
            "hold races on a badly skewed schedule: {races_before} before padding, {races_after} after raising delta_min"
        );
        assert!(races_before > 0);
        assert_eq!(races_after, 0);
        rline!(r);
        rline!(r, "check: failure rate collapses at sigma+delta+setup; padding kills races  [OK]");
        r
    }
}
