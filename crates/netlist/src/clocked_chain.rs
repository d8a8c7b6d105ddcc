//! A gate-level clocked shift-register chain with a skewed clock
//! spine: assumption A5 demonstrated by the simulator's own
//! setup/hold checking.
//!
//! The chain models one row of a clocked processor array: registers
//! pass a data token rightward through combinational delay `delta`,
//! while the clock arrives at register `i` after travelling `i`
//! segments of a buffered clock spine (each segment `skew_step`
//! later) — the Fig. 4(b) arrangement, with the skew made explicit.
//!
//! Single-phase timing says the chain works iff
//! `period ≥ skew_step + delta + setup` *against* the clock direction
//! (data flowing with the clock gains slack; hold needs
//! `delta ≥ skew_step + hold` when data flows with it). The
//! [`run_chain`] harness sweeps periods and reports both the
//! register-detected violations and whether the data pattern came
//! through intact.

use crate::arena::Netlist;
use crate::engine::{NetSim, ViolationKind};
use crate::time::SimTime;

/// Configuration of the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockedChainSpec {
    /// Number of registers.
    pub registers: usize,
    /// Combinational (data) delay between registers — the δ of A5.
    pub delta: SimTime,
    /// Clock arrival difference between adjacent registers — the σ of
    /// A5 for this chain.
    pub skew_step: SimTime,
    /// Register setup window.
    pub setup: SimTime,
    /// Register hold window.
    pub hold: SimTime,
    /// Register clock-to-q delay.
    pub clk_to_q: SimTime,
    /// If `true`, the clock spine runs *with* the data (downstream
    /// registers clocked later); if `false`, against it.
    pub clock_with_data: bool,
}

impl ClockedChainSpec {
    /// A reasonable default: 8 registers, δ = 2 ns, 200 ps skew step,
    /// 100 ps windows, clock running with the data.
    #[must_use]
    pub fn default_chain() -> Self {
        ClockedChainSpec {
            registers: 8,
            delta: SimTime::from_ps(2_000),
            skew_step: SimTime::from_ps(200),
            setup: SimTime::from_ps(100),
            hold: SimTime::from_ps(100),
            clk_to_q: SimTime::from_ps(150),
            clock_with_data: true,
        }
    }
}

/// Outcome of driving the chain for a number of cycles at one period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainOutcome {
    /// Setup violations recorded by the registers.
    pub setup_violations: usize,
    /// Hold violations recorded by the registers.
    pub hold_violations: usize,
    /// The bit sequence observed at the final register's output.
    pub received: Vec<bool>,
    /// The bit sequence that was transmitted.
    pub sent: Vec<bool>,
}

impl ChainOutcome {
    /// `true` when the data arrived uncorrupted and no timing window
    /// was violated.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.setup_violations == 0 && self.hold_violations == 0 && self.received == self.sent
    }
}

/// Builds and runs the chain at the given clock period, shifting the
/// alternating pattern `1010…` (`cycles` bits) through it.
///
/// # Panics
///
/// Panics unless `spec.registers ≥ 2`, delays are positive, and
/// `period` exceeds the clock's high phase.
#[must_use]
pub fn run_chain(spec: ClockedChainSpec, period: SimTime, cycles: usize) -> ChainOutcome {
    assert!(spec.registers >= 2, "need at least two registers");
    assert!(cycles >= 1, "need at least one cycle");
    let r = spec.registers;
    let mut nl = Netlist::new();

    // Clock spine: root clock wire plus one buffered tap per register;
    // the first tap has negligible delay, each later one adds a
    // `skew_step` segment.
    let clk_root = nl.add_wire();
    let mut taps = Vec::with_capacity(r);
    let mut prev = clk_root;
    for i in 0..r {
        let d = if i == 0 { SimTime::from_ps(1) } else { spec.skew_step };
        let tap = nl.add_wire();
        nl.add_buffer(prev, tap, d, d);
        taps.push(tap);
        prev = tap;
    }
    if !spec.clock_with_data {
        taps.reverse();
    }

    // Data path: din -> reg0 -> delay -> reg1 -> … -> regN.
    let din = nl.add_wire();
    let mut d_wire = din;
    let mut q_last = din;
    for (i, &tap) in taps.iter().enumerate() {
        let q = nl.add_wire();
        nl.add_register(d_wire, tap, q, spec.setup, spec.hold, spec.clk_to_q);
        if i + 1 < r {
            let delayed = nl.add_wire();
            nl.add_buffer(q, delayed, spec.delta, spec.delta);
            d_wire = delayed;
        }
        q_last = q;
    }
    let mut sim = NetSim::from_netlist(nl);
    sim.watch(q_last);

    // Drive: clock edges every `period`; data toggles `delta` after
    // each launch edge would have propagated, i.e. the source behaves
    // like one more register stage feeding din.
    let total_cycles = cycles + r + 2;
    let high = SimTime::from_ps(period.as_ps() / 2);
    let start = SimTime::from_ps(10);
    sim.schedule_clock(clk_root, start, period, high, total_cycles);
    let sent: Vec<bool> = (0..cycles).map(|i| i % 2 == 0).collect();
    for (i, &bit) in sent.iter().enumerate() {
        // Launch bit i just after clock edge i (source clk-to-q).
        let t = start + period * (i as u64) + spec.clk_to_q;
        sim.schedule_input(din, t, bit);
    }
    let limit = start + period * (total_cycles as u64 + 4) + spec.delta * (r as u64 + 4);
    sim.run_to_quiescence(limit).expect("chain settles");

    // The alternating pattern means every delivered bit appears as a
    // transition; compare as many as were sent.
    let received: Vec<bool> = sim
        .transitions_ps(q_last)
        .iter()
        .map(|&(_, v)| v)
        .take(sent.len())
        .collect();
    let setup_violations = sim
        .violations()
        .iter()
        .filter(|v| v.kind == ViolationKind::Setup)
        .count();
    let hold_violations = sim
        .violations()
        .iter()
        .filter(|v| v.kind == ViolationKind::Hold)
        .count();
    ChainOutcome {
        setup_violations,
        hold_violations,
        received,
        sent,
    }
}

/// The A5-style analytic minimum period for the chain:
/// `clk_to_q + δ + setup ± skew_step`. With the clock running *with*
/// the data the receiver's edge is `skew_step` later than the
/// sender's, crediting the launch-to-capture budget; against the data
/// it debits it — the directional asymmetry behind "lowering clock
/// rates" as a skew remedy.
#[must_use]
pub fn analytic_min_period(spec: ClockedChainSpec) -> SimTime {
    let base = spec.clk_to_q + spec.delta + spec.setup;
    if spec.clock_with_data {
        base.saturating_sub(spec.skew_step)
    } else {
        base + spec.skew_step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    #[test]
    fn clean_at_generous_period() {
        let spec = ClockedChainSpec::default_chain();
        let outcome = run_chain(spec, ps(10_000), 8);
        assert!(outcome.clean(), "{outcome:?}");
        assert_eq!(outcome.received, outcome.sent);
    }

    #[test]
    fn too_fast_clock_violates_setup() {
        let spec = ClockedChainSpec::default_chain();
        // Just below the analytic minimum (2150 ps with the skew
        // credit): data arrives inside the setup window of the next
        // capture edge.
        let outcome = run_chain(spec, ps(2_020), 8);
        assert!(outcome.setup_violations > 0, "{outcome:?}");
    }

    #[test]
    fn absurdly_fast_clock_collapses_data_entirely() {
        // Below δ itself, the combinational stage cannot even pass
        // the pattern: pulses are swallowed (inertial delay) and
        // nothing reaches the far end — a deeper failure than a setup
        // miss.
        let spec = ClockedChainSpec::default_chain();
        let outcome = run_chain(spec, ps(1_200), 8);
        assert!(outcome.received.is_empty(), "{outcome:?}");
        assert!(!outcome.clean());
    }

    #[test]
    fn analytic_period_is_sufficient() {
        let spec = ClockedChainSpec::default_chain();
        let t = analytic_min_period(spec);
        let outcome = run_chain(spec, t + ps(100), 8);
        assert_eq!(outcome.setup_violations, 0, "{outcome:?}");
        assert_eq!(outcome.hold_violations, 0, "{outcome:?}");
    }

    #[test]
    fn clock_against_data_needs_longer_period() {
        let with = ClockedChainSpec {
            clock_with_data: true,
            ..ClockedChainSpec::default_chain()
        };
        let against = ClockedChainSpec {
            clock_with_data: false,
            ..ClockedChainSpec::default_chain()
        };
        assert!(analytic_min_period(against) > analytic_min_period(with));
        // And the DES agrees: at a period between the two bounds the
        // with-the-data chain is clean, while against the data the
        // datum lands inside the receiver's hold window (arrival
        // 2350 − P after its capture edge; P = 2300 puts it at +50).
        let mid = ps(2_300);
        let ok = run_chain(with, mid, 8);
        assert_eq!(ok.setup_violations + ok.hold_violations, 0, "{ok:?}");
        let bad = run_chain(against, mid, 8);
        assert!(
            bad.setup_violations + bad.hold_violations > 0,
            "{bad:?}"
        );
    }

    #[test]
    fn excessive_skew_with_data_causes_hold_races() {
        // Clock running with the data by more than delta + clk_to_q:
        // the receiver's edge lands after the *next* datum arrives.
        let spec = ClockedChainSpec {
            skew_step: ps(2_500),
            delta: ps(300),
            clk_to_q: ps(100),
            ..ClockedChainSpec::default_chain()
        };
        let outcome = run_chain(spec, ps(20_000), 8);
        assert!(
            outcome.hold_violations > 0 || outcome.received != outcome.sent,
            "{outcome:?}"
        );
    }
}
