//! A gate-level Muller pipeline: the canonical self-timed FIFO built
//! from C-elements and inverters (Seitz, "System Timing", ch. 7 of
//! Mead & Conway — the paper's reference \[10\]).
//!
//! Structure (2-phase signalling; every *transition* is a token):
//!
//! ```text
//! s0 --[C1]-- s1 --[C2]-- s2 -- … --[Cn]-- sn
//!      ▲  ▲        ▲  ▲
//!      |  └ inv(s2)|  └ inv(s3) …      (ack: next stage's state, inverted)
//!      └ s0        └ s1                (req: previous stage's state)
//! ```
//!
//! A self-oscillating source (an inverter from `s1` back to `s0`)
//! injects a token whenever stage 1 is free; an inverter from `sn`
//! back to `Cn`'s ack input consumes tokens as they arrive.
//!
//! The experiment-level point mirrors the paper's Section I: the
//! steady-state token *throughput* of the pipeline is set by the local
//! C-element/inverter loop and is **independent of pipeline length**,
//! while latency grows linearly — measured here on an actual gate
//! netlist rather than an abstract recurrence.

use crate::arena::{Netlist, WireId};
use crate::engine::NetSim;
use crate::time::SimTime;

/// A gate-level self-timed pipeline of C-elements.
#[derive(Debug)]
pub struct MullerPipeline {
    sim: NetSim,
    stage_wires: Vec<WireId>,
    built_stages: usize,
    source_inv_delay: SimTime,
}

/// Measurements from running a [`MullerPipeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MullerRun {
    /// Tokens (transitions) observed at the last stage.
    pub tokens_delivered: usize,
    /// Mean time between consecutive tokens at the last stage.
    pub period: SimTime,
    /// Time of the first token's arrival at the last stage.
    pub first_arrival: SimTime,
}

impl MullerPipeline {
    /// Builds a pipeline of `stages` C-elements with the given gate
    /// delays.
    ///
    /// # Panics
    ///
    /// Panics unless `stages ≥ 2` and delays are positive.
    #[must_use]
    pub fn new(stages: usize, c_delay: SimTime, inv_delay: SimTime) -> Self {
        assert!(stages >= 2, "need at least two stages");
        assert!(
            c_delay > SimTime::ZERO && inv_delay > SimTime::ZERO,
            "gate delays must be positive"
        );
        let mut nl = Netlist::new();
        // s[0] is the source state; s[i] the output of C_i.
        let s: Vec<WireId> = (0..=stages).map(|_| nl.add_wire()).collect();
        // Ack wires: nb[i] = NOT s[i+1] for i in 1..stages; the last
        // stage's ack comes from an inverter on its own output (an
        // always-willing consumer with one inverter of consume time).
        for i in 1..=stages {
            let ack = nl.add_wire();
            nl.add_inverter(s[(i + 1).min(stages)], ack, inv_delay, inv_delay);
            nl.add_c_element(s[i - 1], ack, s[i], c_delay);
        }
        // Self-oscillating source: s0 = NOT s1 (token injected as soon
        // as stage 1 accepted the previous one).
        nl.add_inverter(s[1], s[0], inv_delay, inv_delay);
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(s[stages]);
        MullerPipeline {
            sim,
            stage_wires: s,
            built_stages: stages,
            source_inv_delay: inv_delay,
        }
    }

    /// Number of C-element stages.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.built_stages
    }

    /// Kicks the pipeline and runs it until `until`, measuring token
    /// delivery at the last stage.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline delivers fewer than two tokens (it
    /// should be live by construction).
    #[must_use]
    pub fn run(mut self, until: SimTime) -> MullerRun {
        // Power-on kick. Construction leaves the source wire statically
        // at 1 (the source inverter's consistent state), which is not
        // an *event*, so nothing reacts. Pull it low, then raise it
        // again after the source inverter's inertial window: the
        // rising transition is the first token, and the inverter loop
        // sustains the stream afterwards.
        let s0 = self.stage_wires[0];
        let gap = self.source_inv_delay * 2 + SimTime::from_ps(2);
        self.sim.schedule_input(s0, SimTime::from_ps(1), false);
        self.sim.schedule_input(s0, SimTime::from_ps(1) + gap, true);
        self.sim.run_until(until);
        let out = *self.stage_wires.last().expect("non-empty");
        let transitions = self.sim.transitions_ps(out);
        assert!(
            transitions.len() >= 2,
            "pipeline stalled: only {} transitions at the sink",
            transitions.len()
        );
        let first_arrival = transitions[0].0;
        let last = transitions[transitions.len() - 1].0;
        MullerRun {
            tokens_delivered: transitions.len(),
            period: SimTime::from_ps((last - first_arrival) / (transitions.len() as u64 - 1)),
            first_arrival: SimTime::from_ps(first_arrival),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    #[test]
    fn pipeline_is_live() {
        let run = MullerPipeline::new(4, ps(100), ps(50)).run(ps(100_000));
        assert!(run.tokens_delivered > 10, "{run:?}");
    }

    #[test]
    fn throughput_independent_of_length() {
        let short = MullerPipeline::new(4, ps(100), ps(50)).run(ps(200_000));
        let long = MullerPipeline::new(64, ps(100), ps(50)).run(ps(200_000));
        let ratio = long.period.as_ps() as f64 / short.period.as_ps() as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "throughput should not depend on length: {} vs {}",
            short.period,
            long.period
        );
    }

    #[test]
    fn latency_grows_with_length() {
        let short = MullerPipeline::new(4, ps(100), ps(50)).run(ps(200_000));
        let long = MullerPipeline::new(64, ps(100), ps(50)).run(ps(200_000));
        assert!(long.first_arrival > short.first_arrival * 4);
    }

    #[test]
    fn slower_gates_mean_slower_tokens() {
        let fast = MullerPipeline::new(8, ps(100), ps(50)).run(ps(200_000));
        let slow = MullerPipeline::new(8, ps(300), ps(150)).run(ps(600_000));
        assert!(slow.period > fast.period * 2);
    }
}
