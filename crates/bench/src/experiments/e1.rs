//! E1 — Section III derivation, Figs. 1–2: the two skew models.
//!
//! Validates, by Monte-Carlo over sampled fabrications, that the skew
//! between two communicating cells always lies within the analytic
//! band of Section III:
//!
//! ```text
//! ε·s  ≤  σ_worst  =  m·d + ε·s  ≤  (m+ε)·s
//! ```
//!
//! on trees where the difference metric dominates (unequal root
//! distances) and trees where the summation metric dominates
//! (equalized paths). The fabrication sweep fans out over
//! [`sim_runtime::ParallelSweep`], one per-trial stream per sample.

use crate::{f, skew_sample_event, Table};
use array_layout::prelude::*;
use clock_tree::prelude::*;
use sim_observe::{TraceBuf, TraceEvent};
use sim_runtime::{rline, ExpConfig, Experiment, Report, SimRng};

/// See the module docs.
#[derive(Debug)]
pub struct E1;

impl Experiment for E1 {
    fn name(&self) -> &'static str {
        "e1"
    }
    fn title(&self) -> &'static str {
        "difference vs summation skew models"
    }
    fn paper_ref(&self) -> &'static str {
        "Section III, Figs. 1-2"
    }
    fn approx_ms(&self) -> u64 {
        20
    }

    fn run(&self, cfg: &ExpConfig, _rng: &mut SimRng) -> Report {
        let mut r = cfg.report();
        let mut skew_buf = cfg.tracing().then(|| TraceBuf::new(256));
        let model = WireDelayModel::new(1.0, 0.1);
        let samples = cfg.trials_or(20_000);
        let sweep = cfg.sweep();

        let mut table = Table::new(&[
            "tree", "pair", "d", "s", "beta*s (lower)", "observed max", "m*d+eps*s (worst)",
            "(m+eps)*s (cap)",
        ]);

        // Case A: spine on a linear array — neighbouring pairs, d = s = 1.
        let comm = CommGraph::linear(32);
        let layout = Layout::linear_row(&comm);
        let spine_tree = spine(&comm, &layout);
        // Case B: H-tree on the same array — the middle pair meets at the
        // root, s large, d ~ 0.
        let htree_tree = htree(&comm, &layout);

        let cases: [(&str, &ClockTree, CellId, CellId); 3] = [
            ("spine", &spine_tree, CellId::new(15), CellId::new(16)),
            ("htree", &htree_tree, CellId::new(15), CellId::new(16)),
            ("htree", &htree_tree, CellId::new(0), CellId::new(1)),
        ];

        for (idx, (name, tree, a, b)) in cases.into_iter().enumerate() {
            let d = tree.difference_distance(a, b);
            let s = tree.summation_distance(a, b);
            let worst = worst_case_skew(tree, model, a, b);
            let lower = achievable_skew_lower_bound(tree, model, a, b);
            let cap = model.max_rate() * s;
            let case_seed = cfg.seed.wrapping_add(idx as u64);
            let trial = |_i: usize, rng: &mut SimRng| {
                let rates = model.sample_rates(tree, rng);
                let arr = ArrivalTimes::from_rates(tree, &rates);
                arr.skew(tree, a, b)
            };
            let (skews, sweep_stats, spans) = sweep.run_timed(0..samples, case_seed, trial);
            if cfg.tracing() {
                r.record_sweep_trace(&format!("sweep/case{idx}_{name}"), &spans);
            }
            r.record_sweep(&format!("case{idx}_{name}"), sweep_stats);
            if let Some(buf) = skew_buf.as_mut() {
                // Causal attribution of the worst observed trial: re-derive
                // that trial's fabrication from its per-trial RNG stream and
                // decompose the skew over the path symmetric difference.
                let best = skews
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.partial_cmp(y.1).expect("finite skew"))
                    .map_or(0, |(i, _)| i);
                let mut rng = SimRng::for_trial(case_seed, best as u64);
                let rates = model.sample_rates(tree, &mut rng);
                buf.record(skew_sample_event(0, &attribute_skew(tree, &rates, a, b)));
            }
            let observed = skews.into_iter().fold(0.0f64, f64::max);
            r.metrics_mut()
                .gauge(&format!("e1.case{idx}.observed_max_skew"), observed);
            assert!(
                observed <= worst + 1e-9,
                "observed exceeded analytic worst case"
            );
            assert!(worst <= cap + 1e-9, "worst case exceeded (m+eps)*s cap");
            table.row(&[
                name,
                &format!("({},{})", a.index(), b.index()),
                &f(d),
                &f(s),
                &f(lower),
                &f(observed),
                &f(worst),
                &f(cap),
            ]);
        }
        if let Some(buf) = skew_buf {
            r.trace_mut().add_track("skew", buf);
            // A reference two-phase discipline (assumption A4): phi0 and
            // phi1 strictly non-overlapping, so the trace checker's
            // clock-overlap rule has a well-formed witness.
            let mut clk = TraceBuf::new(64);
            for c in 0..4u64 {
                let t = c * 1000;
                let edge = |t_ps: u64, signal: &str, rising: bool, phase: u8| {
                    TraceEvent::ClockEdge {
                        t_ps,
                        signal: signal.to_owned(),
                        rising,
                        phase,
                    }
                };
                clk.record(edge(t, "phi0", true, 0));
                clk.record(edge(t + 400, "phi0", false, 0));
                clk.record(edge(t + 500, "phi1", true, 1));
                clk.record(edge(t + 900, "phi1", false, 1));
            }
            r.trace_mut().add_track("clock", clk);
        }
        r.table("skew_models", &table);
        rline!(r);
        rline!(r, "check: observed <= m*d + eps*s <= (m+eps)*s on every pair  [OK]");
        rline!(
            r,
            "note: the spine keeps s at the cell pitch; the H-tree's middle pair pays s = {}",
            f(htree_tree.summation_distance(CellId::new(15), CellId::new(16)))
        );
        r
    }
}
