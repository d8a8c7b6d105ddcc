//! The Section VII fix: clock distribution through one-shot pulse
//! buffers.
//!
//! The inverter-string experiment shows pipelined clock rate limited
//! by accumulated rise/fall discrepancy. The paper's proposed cure:
//! "make each buffer respond only to rising edges on its input and to
//! generate its own falling edges with a one-shot pulse generator",
//! with the pulse width "wired into the circuit".
//!
//! This module builds that clock string from [`OneShot`] buffers and
//! shows the payoff: because every stage regenerates a fresh
//! fixed-width pulse, *nothing accumulates* — the minimum workable
//! period is set by the one-shot's own recovery (≈ 2× the pulse
//! width), independent of string length, design bias, or per-stage
//! delay variation. The cost the paper names — the wired-in pulse
//! width — is the `pulse_width` parameter.
//!
//! [`OneShot`]: crate::engine::Simulator::add_one_shot

use crate::chain::{build_chain, ChainStage};
use crate::engine::{NetId, Simulator};
use crate::time::SimTime;
use sim_runtime::{sample_normal, SimRng};

/// Parameters of a one-shot-buffered clock string.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneShotStringSpec {
    /// Number of one-shot buffer stages.
    pub stages: usize,
    /// Nominal per-stage propagation delay.
    pub base_delay: SimTime,
    /// Std-dev (ps) of the per-stage Gaussian delay variation —
    /// affects *latency* only, never pulse width.
    pub delay_std_ps: f64,
    /// The wired-in pulse width each stage regenerates.
    pub pulse_width: SimTime,
    /// RNG seed (one fabricated chip).
    pub seed: u64,
}

/// A fabricated one-shot clock string.
#[derive(Debug, Clone)]
pub struct OneShotString {
    delays: Vec<SimTime>,
    pulse_width: SimTime,
}

impl OneShotString {
    /// Fabricates the string: samples per-stage delays.
    ///
    /// # Panics
    ///
    /// Panics unless `stages > 0`, delays/widths are positive, and the
    /// variation is non-negative.
    #[must_use]
    pub fn fabricate(spec: OneShotStringSpec) -> Self {
        assert!(spec.stages > 0, "need at least one stage");
        assert!(
            spec.base_delay > SimTime::ZERO && spec.pulse_width > SimTime::ZERO,
            "delays must be positive"
        );
        assert!(spec.delay_std_ps >= 0.0, "variation must be non-negative");
        let mut rng = SimRng::seed_from_u64(spec.seed);
        let base = spec.base_delay.as_ps() as f64;
        let delays = (0..spec.stages)
            .map(|_| {
                let d = (base + sample_normal(&mut rng, 0.0, spec.delay_std_ps)).max(1.0);
                SimTime::from_ps(d.round() as u64)
            })
            .collect();
        OneShotString {
            delays,
            pulse_width: spec.pulse_width,
        }
    }

    /// Number of stages.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.delays.len()
    }

    /// The string as a [`ChainStage`] list, shared with the netlist
    /// core (see [`crate::chain`]).
    #[must_use]
    pub fn chain_stages(&self) -> Vec<ChainStage> {
        self.delays
            .iter()
            .map(|&delay| ChainStage::OneShot {
                delay,
                pulse_width: self.pulse_width,
            })
            .collect()
    }

    fn build(&self) -> (Simulator, NetId, NetId) {
        let mut sim = Simulator::new();
        let nodes = build_chain(&mut sim, &self.chain_stages());
        let (input, far) = (nodes[0], *nodes.last().expect("non-empty chain"));
        sim.watch(far);
        (sim, input, far)
    }

    /// Returns `true` when a clock train of `cycles` rising edges at
    /// the given period delivers every pulse to the far end.
    ///
    /// # Panics
    ///
    /// Panics if `period` is too small to drive or `cycles == 0`.
    #[must_use]
    pub fn clock_survives(&self, period: SimTime, cycles: usize) -> bool {
        assert!(period.as_ps() >= 4, "period too small");
        assert!(cycles > 0, "need at least one cycle");
        let (mut sim, input, output) = self.build();
        let high = SimTime::from_ps(period.as_ps() / 2);
        sim.schedule_clock(input, SimTime::from_ps(10), period, high, cycles);
        let total_delay: u64 = self.delays.iter().map(|d| d.as_ps()).sum();
        let limit = SimTime::from_ps(
            10 + period.as_ps() * (cycles as u64 + 4) + 4 * total_delay + 1_000,
        );
        sim.run_to_quiescence(limit).expect("feed-forward settles");
        sim.transitions(output).len() == 2 * cycles
    }

    /// Binary-searches the minimum workable period.
    #[must_use]
    pub fn min_period(&self, cycles: usize) -> SimTime {
        let mut hi = self.pulse_width * 8;
        while !self.clock_survives(hi, cycles) {
            hi = hi * 2;
            assert!(hi.as_ps() < u64::MAX / 4, "no workable period found");
        }
        let mut lo = SimTime::from_ps(4);
        while hi.as_ps() - lo.as_ps() > 1 {
            let mid = SimTime::from_ps((lo.as_ps() + hi.as_ps()) / 2);
            if self.clock_survives(mid, cycles) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(stages: usize, std: f64, seed: u64) -> OneShotStringSpec {
        OneShotStringSpec {
            stages,
            base_delay: SimTime::from_ps(1_000),
            delay_std_ps: std,
            pulse_width: SimTime::from_ps(400),
            seed,
        }
    }

    #[test]
    fn min_period_independent_of_length() {
        let short = OneShotString::fabricate(spec(16, 0.0, 1)).min_period(4);
        let long = OneShotString::fabricate(spec(256, 0.0, 1)).min_period(4);
        assert_eq!(short, long, "{short} vs {long}");
    }

    #[test]
    fn min_period_independent_of_delay_variation() {
        // The whole point: variation moves latency, not pulse width.
        let clean = OneShotString::fabricate(spec(64, 0.0, 1)).min_period(4);
        let noisy = OneShotString::fabricate(spec(64, 150.0, 7)).min_period(4);
        assert_eq!(clean, noisy, "{clean} vs {noisy}");
    }

    #[test]
    fn min_period_set_by_pulse_recovery() {
        let s = OneShotString::fabricate(spec(32, 0.0, 1));
        let min = s.min_period(4);
        // Non-retriggerable recovery: twice the pulse width, ± the
        // input duty rounding.
        let expected = 2 * 400;
        assert!(
            (min.as_ps() as i64 - expected).unsigned_abs() <= 16,
            "min {min} vs expected ~{expected} ps"
        );
    }

    #[test]
    fn pulses_regenerate_at_fixed_width() {
        let s = OneShotString::fabricate(spec(8, 80.0, 3));
        let (mut sim, input, output) = s.build();
        sim.schedule_clock(input, SimTime::from_ps(10), SimTime::from_ps(2_000), SimTime::from_ps(1_000), 3);
        sim.run_to_quiescence(SimTime::from_ps(1_000_000)).expect("settles");
        let trans = sim.transitions(output);
        assert_eq!(trans.len(), 6);
        // Every output pulse is exactly the wired-in width.
        for pair in trans.chunks(2) {
            let width = pair[1].0 - pair[0].0;
            assert_eq!(width, SimTime::from_ps(400), "{trans:?}");
        }
    }

    #[test]
    fn survives_monotone_in_period() {
        let s = OneShotString::fabricate(spec(48, 60.0, 5));
        let min = s.min_period(4);
        assert!(s.clock_survives(min, 4));
        assert!(s.clock_survives(min * 2, 4));
        assert!(!s.clock_survives(SimTime::from_ps(min.as_ps() - 2), 4));
    }
}
