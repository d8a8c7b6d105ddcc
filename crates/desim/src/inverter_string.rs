//! The Section VII inverter-string experiment, in simulation.
//!
//! The paper built an nMOS chip with a string of 2048 minimum
//! inverters and compared two ways of running a clock through it:
//!
//! * **Equipotential mode** — wait for each edge to propagate through
//!   the *entire* string before launching the next: the cycle time is
//!   the full round trip (the paper measured ≈ 34 µs);
//! * **Pipelined mode** — launch edges continuously so several are in
//!   flight at once: the cycle time is limited only by how much a
//!   pulse *shrinks* per stage due to the rise/fall discrepancy (the
//!   paper measured ≈ 500 ns — 68× faster).
//!
//! This module reproduces the experiment on the [`Simulator`]: each
//! inverter gets a rise and fall delay composed of a base delay, a
//! deterministic design *bias* (the paper's circuit favoured falling
//! edges), and a Gaussian per-stage discrepancy (the paper's √n yield
//! analysis). The minimum workable pipelined period is found by binary
//! search on the property "every launched pulse emerges at the far
//! end" — narrower pulses are swallowed by the simulator's inertial
//! delay exactly as the physical string swallows them.

use crate::chain::{build_chain, ChainStage};
use crate::engine::{NetId, Simulator};
use crate::time::SimTime;
use sim_runtime::{sample_normal, ParallelSweep, SimRng};

/// Parameters of one simulated inverter-string chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverterStringSpec {
    /// Number of inverters in the string. Must be even so the far end
    /// has the same polarity as the input.
    pub stages: usize,
    /// Nominal propagation delay of one inverter, each edge.
    pub base_delay: SimTime,
    /// Deterministic design bias, in picoseconds: each inverter's
    /// output-falling transition is `bias_ps/2` faster and its rising
    /// transition `bias_ps/2` slower (the paper's "slight bias … toward
    /// falling edges"). Zero for an unbiased design.
    pub bias_ps: u64,
    /// Standard deviation, in picoseconds, of the per-stage Gaussian
    /// rise/fall discrepancy (process variation).
    pub discrepancy_std_ps: f64,
    /// RNG seed: one seed = one fabricated chip.
    pub seed: u64,
}

impl InverterStringSpec {
    /// The paper's 2048-stage chip with a falling-edge bias sized so
    /// that pipelined mode comes out ≈ 68× faster than equipotential
    /// mode, as measured on the real chip.
    ///
    /// The base delay is 8 ns per stage (a plausible minimum-inverter
    /// figure for the era: 2 × 2048 × 8 ns ≈ 33 µs ≈ the measured
    /// 34 µs equipotential cycle) and the bias is `base/68`.
    #[must_use]
    pub fn paper_chip(seed: u64) -> Self {
        InverterStringSpec {
            stages: 2048,
            base_delay: SimTime::from_ps(8_000),
            bias_ps: 8_000 / 68,
            discrepancy_std_ps: 10.0,
            seed,
        }
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero or odd, or the bias would drive a
    /// delay negative.
    fn check(&self) {
        assert!(self.stages > 0, "need at least one stage");
        assert!(self.stages.is_multiple_of(2), "stage count must be even");
        assert!(
            self.bias_ps / 2 < self.base_delay.as_ps(),
            "bias larger than base delay"
        );
        assert!(self.discrepancy_std_ps >= 0.0, "std must be non-negative");
    }

    /// Samples the concrete per-stage (rise, fall) delays of one chip.
    ///
    /// The design bias alternates sign between odd and even stages.
    /// In an inverter string a *uniform* rise/fall asymmetry cancels
    /// pairwise (a pulse alternates polarity stage to stage); what
    /// kills pulses is odd inverters differing from even inverters —
    /// exactly the effect the paper discusses ("if the impedance of
    /// the outputs of the odd inverters is the same as that of the
    /// even inverters, rising and falling edges should traverse the
    /// string at essentially the same speed").
    #[must_use]
    fn sample_delays(&self) -> Vec<(SimTime, SimTime)> {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let base = self.base_delay.as_ps() as f64;
        let half_bias = self.bias_ps as f64 / 2.0;
        (0..self.stages)
            .map(|i| {
                let g = sample_normal(&mut rng, 0.0, self.discrepancy_std_ps) / 2.0;
                let sign = if i % 2 == 0 { -1.0 } else { 1.0 };
                let rise = (base + sign * half_bias + g).max(1.0);
                let fall = (base - sign * half_bias - g).max(1.0);
                (
                    SimTime::from_ps(rise.round() as u64),
                    SimTime::from_ps(fall.round() as u64),
                )
            })
            .collect()
    }
}

/// The paper's yield analysis, executable: the fraction of fabricated
/// chips (varying the seed, keeping everything else from `spec`) whose
/// pipelined clock works at the given `period`.
///
/// "If a fixed yield, independent of n, is desired, chips with a
/// discrepancy sum proportional to the standard deviation, hence
/// proportional to √n, must be accepted" — so at a fixed period the
/// yield falls as strings lengthen, and holding yield fixed forces the
/// period up like √n.
///
/// # Panics
///
/// Panics if `chips == 0` or the spec/period are invalid (see
/// [`InverterString::pipelined_clock_survives`]).
#[must_use]
pub fn fabrication_yield(
    spec: InverterStringSpec,
    chips: usize,
    period: SimTime,
    cycles: usize,
) -> f64 {
    assert!(chips > 0, "need at least one chip");
    let working = (0..chips as u64)
        .filter(|&seed| {
            InverterString::fabricate(InverterStringSpec { seed, ..spec })
                .pipelined_clock_survives(period, cycles)
        })
        .count();
    working as f64 / chips as f64
}

/// Parallel variant of [`fabrication_yield`] for the E6 sweep: chips
/// fan out across a [`ParallelSweep`]. Chip `i` is always fabricated
/// from seed `i`, exactly as in the sequential version, so this
/// returns a value bit-identical to [`fabrication_yield`] for every
/// worker count.
///
/// # Panics
///
/// Panics if `chips == 0` or the spec/period are invalid (see
/// [`InverterString::pipelined_clock_survives`]).
#[must_use]
pub fn fabrication_yield_par(
    spec: InverterStringSpec,
    chips: usize,
    period: SimTime,
    cycles: usize,
    sweep: &ParallelSweep,
) -> f64 {
    assert!(chips > 0, "need at least one chip");
    let working = sweep.count(chips, spec.seed, |i, _rng| {
        InverterString::fabricate(InverterStringSpec {
            seed: i as u64,
            ..spec
        })
        .pipelined_clock_survives(period, cycles)
    });
    working as f64 / chips as f64
}

/// Results of running both clocking modes on one simulated chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverterStringResult {
    /// Full-cycle time in equipotential mode (rise settle + fall
    /// settle through the whole string).
    pub equipotential_cycle: SimTime,
    /// Minimum period at which every pulse of a continuous clock
    /// train still emerges from the far end.
    pub pipelined_cycle: SimTime,
}

impl InverterStringResult {
    /// Speedup of pipelined over equipotential mode (the paper's 68×).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.equipotential_cycle.as_ps() as f64 / self.pipelined_cycle.as_ps() as f64
    }
}

/// One simulated inverter-string chip with fixed fabricated delays.
#[derive(Debug, Clone)]
pub struct InverterString {
    spec: InverterStringSpec,
    delays: Vec<(SimTime, SimTime)>,
}

impl InverterString {
    /// Fabricates a chip: samples its per-stage delays from the spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see [`InverterStringSpec`]).
    #[must_use]
    pub fn fabricate(spec: InverterStringSpec) -> Self {
        spec.check();
        let delays = spec.sample_delays();
        InverterString { spec, delays }
    }

    /// The spec this chip was fabricated from.
    #[must_use]
    pub fn spec(&self) -> &InverterStringSpec {
        &self.spec
    }

    /// Width change, in picoseconds, of a pulse entering the string
    /// *high*, after traversing the whole string. Negative = the pulse
    /// shrank.
    ///
    /// A high pulse entering stage `k` leaves as a low pulse whose
    /// width changed by `rise_k − fall_k`; a low pulse's width changes
    /// by `fall_k − rise_k`. Since the pulse's polarity alternates
    /// stage to stage, the change for a high-entry pulse is the
    /// alternating sum of the per-stage asymmetries.
    #[must_use]
    pub fn pulse_width_change_ps(&self) -> i64 {
        self.high_pulse_prefix_changes().last().copied().unwrap_or(0)
    }

    /// Worst (most negative) pulse-width change experienced at any
    /// prefix of the string, by a pulse of either entry polarity —
    /// a pulse dies at the worst prefix, not only at the end. The
    /// analytic counterpart of the pipelined cycle limit.
    #[must_use]
    pub fn worst_prefix_shrinkage_ps(&self) -> i64 {
        // Low-entry pulses see the negated changes, so the binding
        // constraint is the largest prefix magnitude.
        let worst_abs = self
            .high_pulse_prefix_changes()
            .into_iter()
            .map(i64::abs)
            .max()
            .unwrap_or(0);
        -worst_abs
    }

    fn high_pulse_prefix_changes(&self) -> Vec<i64> {
        let mut run = 0i64;
        self.delays
            .iter()
            .enumerate()
            .map(|(k, (r, f))| {
                let asym = r.as_ps() as i64 - f.as_ps() as i64;
                // High-polarity at even path positions (entered high).
                run += if k % 2 == 0 { asym } else { -asym };
                run
            })
            .collect()
    }

    /// The chip as a [`ChainStage`] list — the single source of truth
    /// both the legacy [`Simulator`] and the flat netlist core build
    /// their circuits from (see [`crate::chain`]).
    #[must_use]
    pub fn chain_stages(&self) -> Vec<ChainStage> {
        self.delays
            .iter()
            .map(|&(rise, fall)| ChainStage::Inverter { rise, fall })
            .collect()
    }

    /// Sum of all per-stage delays, both edges — the analytic
    /// equipotential cycle (`2 × Σ base` for an unbiased string, and
    /// exactly what [`InverterString::equipotential_cycle`] measures,
    /// since biases and discrepancies cancel pairwise over a rise +
    /// fall round trip only in expectation, not per chip).
    #[must_use]
    pub fn total_delay_both_edges(&self) -> SimTime {
        let ps: u64 = self
            .delays
            .iter()
            .map(|&(r, f)| r.as_ps() + f.as_ps())
            .sum();
        SimTime::from_ps(ps)
    }

    fn build(&self) -> (Simulator, NetId, NetId) {
        let mut sim = Simulator::new();
        let nodes = build_chain(&mut sim, &self.chain_stages());
        let (input, far) = (nodes[0], *nodes.last().expect("non-empty chain"));
        sim.watch(far);
        (sim, input, far)
    }

    /// Measures the equipotential cycle: drive one rising edge, wait
    /// for the far end to settle, drive the falling edge, wait again;
    /// the cycle is the sum of both settle times (the "equipotential
    /// state" convention of A6).
    ///
    /// # Panics
    ///
    /// Panics if the string fails to settle (cannot happen for a
    /// feed-forward chain).
    #[must_use]
    pub fn equipotential_cycle(&self) -> SimTime {
        let (mut sim, input, output) = self.build();
        let limit = self.spec.base_delay * (4 * self.spec.stages as u64 + 16);
        let t0 = SimTime::from_ps(10);
        sim.schedule_input(input, t0, true);
        sim.run_to_quiescence(limit).expect("chain settles");
        let rise_settle = last_transition(&sim, output).expect("edge arrives") - t0;
        let t1 = sim.now() + SimTime::from_ps(10);
        sim.schedule_input(input, t1, false);
        sim.run_to_quiescence(limit * 2).expect("chain settles");
        let fall_settle = last_transition(&sim, output).expect("edge arrives") - t1;
        rise_settle + fall_settle
    }

    /// Returns `true` when a continuous clock of the given `period`
    /// (50 % duty at the input) delivers all `cycles` pulses to the
    /// far end of the string.
    ///
    /// # Panics
    ///
    /// Panics if `period < 2` ps or `cycles == 0`.
    #[must_use]
    pub fn pipelined_clock_survives(&self, period: SimTime, cycles: usize) -> bool {
        assert!(period.as_ps() >= 2, "period too small");
        assert!(cycles > 0, "need at least one cycle");
        let (mut sim, input, output) = self.build();
        let high = SimTime::from_ps(period.as_ps() / 2);
        sim.schedule_clock(input, SimTime::from_ps(10), period, high, cycles);
        let limit = period * (cycles as u64 + 4)
            + self.spec.base_delay * (4 * self.spec.stages as u64 + 16);
        sim.run_to_quiescence(limit).expect("chain settles");
        sim.transitions(output).len() == 2 * cycles
    }

    /// Finds, by binary search, the minimum period at which a
    /// `cycles`-pulse clock train fully survives the string.
    ///
    /// # Panics
    ///
    /// Panics if even the equipotential-scale period fails (cannot
    /// happen for valid specs).
    #[must_use]
    pub fn min_pipelined_period(&self, cycles: usize) -> SimTime {
        // Upper bound: a generous multiple of the analytic shrinkage
        // plus a couple of stage delays always survives.
        let analytic = 2 * self.worst_prefix_shrinkage_ps().unsigned_abs();
        let mut hi = SimTime::from_ps((analytic + 8 * self.spec.base_delay.as_ps()).max(16));
        while !self.pipelined_clock_survives(hi, cycles) {
            hi = hi * 2;
            assert!(
                hi.as_ps() < u64::MAX / 4,
                "no workable pipelined period found"
            );
        }
        let mut lo = SimTime::from_ps(2);
        // Invariant: hi survives, lo does not (or is the floor).
        while hi.as_ps() - lo.as_ps() > 1 {
            let mid = SimTime::from_ps((lo.as_ps() + hi.as_ps()) / 2);
            if self.pipelined_clock_survives(mid, cycles) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Runs a pipelined clock of the given `period` for `cycles`
    /// cycles with `taps` evenly spaced nets along the string watched,
    /// and returns the finished simulator together with `(net, name)`
    /// pairs ready for [`crate::vcd::export_vcd`] — the machinery
    /// behind e6's `--vcd` flag.
    ///
    /// The first tap is always the clock input (named `clk_in`), the
    /// last is the far end of the string; intermediate taps are named
    /// `stage_<k>` after their stage index. `taps` is clamped to
    /// `[2, stages + 1]`.
    ///
    /// With `trace_capacity`, event-lifecycle tracing is enabled on the
    /// simulator before the clock train starts (a ring of that
    /// capacity), with the clock input marked as phase-0 `clk_in`;
    /// retrieve the ring from the returned simulator with
    /// [`Simulator::take_trace`].
    ///
    /// # Panics
    ///
    /// Panics if `period < 2` ps or `cycles == 0`.
    #[must_use]
    pub fn waveform(
        &self,
        period: SimTime,
        cycles: usize,
        taps: usize,
        trace_capacity: Option<usize>,
    ) -> (Simulator, Vec<(NetId, String)>) {
        assert!(period.as_ps() >= 2, "period too small");
        assert!(cycles > 0, "need at least one cycle");
        let mut sim = Simulator::new();
        let nets = build_chain(&mut sim, &self.chain_stages());
        let input = nets[0];
        let taps = taps.clamp(2, nets.len());
        let mut signals = Vec::with_capacity(taps);
        for k in 0..taps {
            let idx = k * (nets.len() - 1) / (taps - 1);
            let name = if idx == 0 {
                "clk_in".to_owned()
            } else {
                format!("stage_{idx}")
            };
            sim.watch(nets[idx]);
            signals.push((nets[idx], name));
        }
        if let Some(capacity) = trace_capacity {
            sim.enable_trace(capacity);
            sim.mark_clock(input, "clk_in", 0);
        }
        let high = SimTime::from_ps(period.as_ps() / 2);
        sim.schedule_clock(input, SimTime::from_ps(10), period, high, cycles);
        let limit = period * (cycles as u64 + 4)
            + self.spec.base_delay * (4 * self.spec.stages as u64 + 16);
        sim.run_to_quiescence(limit).expect("chain settles");
        (sim, signals)
    }

    /// Runs the full experiment: equipotential cycle and minimum
    /// pipelined cycle.
    #[must_use]
    pub fn run(&self, cycles: usize) -> InverterStringResult {
        InverterStringResult {
            equipotential_cycle: self.equipotential_cycle(),
            pipelined_cycle: self.min_pipelined_period(cycles),
        }
    }
}

fn last_transition(sim: &Simulator, net: NetId) -> Option<SimTime> {
    sim.transitions(net).last().map(|&(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(stages: usize, bias_ps: u64, std: f64, seed: u64) -> InverterStringSpec {
        InverterStringSpec {
            stages,
            base_delay: SimTime::from_ps(1_000),
            bias_ps,
            discrepancy_std_ps: std,
            seed,
        }
    }

    #[test]
    fn equipotential_cycle_proportional_to_length() {
        let short = InverterString::fabricate(quick_spec(32, 0, 0.0, 1));
        let long = InverterString::fabricate(quick_spec(128, 0, 0.0, 1));
        let cs = short.equipotential_cycle().as_ps() as f64;
        let cl = long.equipotential_cycle().as_ps() as f64;
        let ratio = cl / cs;
        assert!((ratio - 4.0).abs() < 0.1, "ratio {ratio}");
        // Unbiased, variation-free: cycle = 2 × stages × base.
        assert_eq!(cs as u64, 2 * 32 * 1_000);
    }

    #[test]
    fn pipelined_period_independent_of_length_when_unbiased_and_exact() {
        let short = InverterString::fabricate(quick_spec(16, 0, 0.0, 1));
        let long = InverterString::fabricate(quick_spec(64, 0, 0.0, 1));
        let ps_ = short.min_pipelined_period(4);
        let pl = long.min_pipelined_period(4);
        assert_eq!(ps_, pl, "{ps_} vs {pl}");
        // With symmetric delays a pulse never shrinks: the limit is
        // set by the inertial width of one stage (~2 × base).
        assert!(pl.as_ps() <= 3 * 1_000, "period {pl}");
    }

    #[test]
    fn bias_costs_pipelined_rate_proportionally_to_length() {
        let short = InverterString::fabricate(quick_spec(32, 100, 0.0, 1));
        let long = InverterString::fabricate(quick_spec(128, 100, 0.0, 1));
        let p_short = short.min_pipelined_period(4).as_ps();
        let p_long = long.min_pipelined_period(4).as_ps();
        // Pulse shrinkage accumulates ∝ n, so the minimum period must
        // grow roughly 4× (plus the constant stage-width floor).
        assert!(p_long > p_short, "{p_long} vs {p_short}");
        let ratio = p_long as f64 / p_short as f64;
        assert!(ratio > 2.0, "ratio {ratio}");
    }

    #[test]
    fn speedup_roughly_constant_across_lengths_with_bias() {
        // The paper's key observation: with a deterministic bias the
        // pipelined advantage is a constant factor, independent of n.
        let r32 = InverterString::fabricate(quick_spec(32, 100, 0.0, 1)).run(4);
        let r128 = InverterString::fabricate(quick_spec(128, 100, 0.0, 1)).run(4);
        let (s32, s128) = (r32.speedup(), r128.speedup());
        assert!(
            (s32 / s128 - 1.0).abs() < 0.35,
            "speedups diverge: {s32} vs {s128}"
        );
        assert!(s32 > 2.0, "no speedup at all: {s32}");
    }

    #[test]
    fn discrepancy_accumulates_with_bias() {
        let chip = InverterString::fabricate(quick_spec(64, 100, 0.0, 1));
        // The alternating bias shrinks one polarity by `bias` per
        // stage, monotonically.
        assert_eq!(chip.pulse_width_change_ps(), -64 * 100);
        assert_eq!(chip.worst_prefix_shrinkage_ps(), -64 * 100);
    }

    #[test]
    fn unbiased_chip_discrepancy_scales_like_sqrt_n() {
        // The paper's yield analysis: with zero design bias, the
        // accumulated discrepancy over n stages is a random walk, so
        // its magnitude grows ~√n, not ~n.
        let shrink_at = |stages: usize| -> f64 {
            let samples: Vec<f64> = (0..40)
                .map(|seed| {
                    InverterString::fabricate(quick_spec(stages, 0, 40.0, seed))
                        .pulse_width_change_ps() as f64
                })
                .collect();
            let (_, std) = sim_runtime::mean_std(&samples);
            std
        };
        let (s64, s256) = (shrink_at(64), shrink_at(256));
        let ratio = s256 / s64;
        // √(256/64) = 2; allow generous sampling noise but exclude
        // linear growth (ratio 4).
        assert!(ratio > 1.2 && ratio < 3.2, "ratio {ratio}");
    }

    #[test]
    fn yield_falls_with_length_at_fixed_period() {
        // The paper's yield argument: unbiased strings accumulate a
        // √n random-walk discrepancy, so a period adequate for short
        // strings loses yield on long ones.
        let spec = |stages: usize| InverterStringSpec {
            stages,
            base_delay: SimTime::from_ps(1_000),
            bias_ps: 0,
            discrepancy_std_ps: 120.0,
            seed: 0,
        };
        // Pick a period that most short chips can manage.
        let period = SimTime::from_ps(4_000);
        let y_short = fabrication_yield(spec(16), 24, period, 3);
        let y_long = fabrication_yield(spec(256), 24, period, 3);
        assert!(
            y_short > y_long + 0.2,
            "yield should fall with length: {y_short} vs {y_long}"
        );
    }

    #[test]
    fn yield_monotone_in_period() {
        let spec = InverterStringSpec {
            stages: 64,
            base_delay: SimTime::from_ps(1_000),
            bias_ps: 0,
            discrepancy_std_ps: 120.0,
            seed: 0,
        };
        let y_tight = fabrication_yield(spec, 24, SimTime::from_ps(2_600), 3);
        let y_loose = fabrication_yield(spec, 24, SimTime::from_ps(8_000), 3);
        assert!(y_loose >= y_tight, "{y_loose} vs {y_tight}");
        assert!(y_loose >= 0.9, "a generous period should pass ~all chips");
    }

    #[test]
    fn parallel_yield_matches_sequential_exactly() {
        let spec = InverterStringSpec {
            stages: 48,
            base_delay: SimTime::from_ps(1_000),
            bias_ps: 0,
            discrepancy_std_ps: 120.0,
            seed: 0,
        };
        let period = SimTime::from_ps(2_800);
        let sequential = fabrication_yield(spec, 20, period, 3);
        for threads in [1, 2, 4] {
            let par =
                fabrication_yield_par(spec, 20, period, 3, &ParallelSweep::new(threads));
            assert_eq!(
                sequential.to_bits(),
                par.to_bits(),
                "threads {threads} diverged"
            );
        }
    }

    #[test]
    fn fabrication_is_deterministic_per_seed() {
        let a = InverterString::fabricate(quick_spec(64, 0, 20.0, 7));
        let b = InverterString::fabricate(quick_spec(64, 0, 20.0, 7));
        assert_eq!(a.pulse_width_change_ps(), b.pulse_width_change_ps());
        let c = InverterString::fabricate(quick_spec(64, 0, 20.0, 8));
        assert_ne!(
            a.pulse_width_change_ps(),
            c.pulse_width_change_ps(),
            "different chips should differ"
        );
    }

    #[test]
    fn survives_monotone_in_period() {
        let chip = InverterString::fabricate(quick_spec(32, 100, 5.0, 3));
        let min = chip.min_pipelined_period(4);
        assert!(chip.pipelined_clock_survives(min, 4));
        assert!(chip.pipelined_clock_survives(min * 2, 4));
        if min.as_ps() > 4 {
            assert!(!chip
                .pipelined_clock_survives(SimTime::from_ps(min.as_ps() - 2), 4));
        }
    }

    #[test]
    fn waveform_taps_span_the_string() {
        let chip = InverterString::fabricate(quick_spec(32, 0, 0.0, 1));
        let period = chip.min_pipelined_period(3) * 2;
        let (sim, signals) = chip.waveform(period, 3, 5, None);
        assert_eq!(signals.len(), 5);
        assert_eq!(signals[0].1, "clk_in");
        assert_eq!(signals.last().expect("taps").1, "stage_32");
        // Every tap carries the full clock train: 2 transitions/cycle.
        for (net, name) in &signals {
            assert_eq!(sim.transitions(*net).len(), 6, "tap {name}");
        }
        // And the result feeds straight into the VCD exporter.
        let named: Vec<(NetId, &str)> =
            signals.iter().map(|(n, s)| (*n, s.as_str())).collect();
        let vcd = crate::vcd::export_vcd(&sim, &named);
        assert!(vcd.contains("$var wire 1 ! clk_in $end"));
        assert!(sim.stats().events_processed > 0);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_stage_count_rejected() {
        let _ = InverterString::fabricate(quick_spec(33, 0, 0.0, 1));
    }

    #[test]
    fn paper_chip_spec_shape() {
        let spec = InverterStringSpec::paper_chip(1);
        assert_eq!(spec.stages, 2048);
        assert_eq!(spec.bias_ps, 117);
    }
}
