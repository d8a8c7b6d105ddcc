//! A gate-level stoppable (gated ring-oscillator) clock: the local
//! clock of a Section VI hybrid element.
//!
//! The hybrid scheme's safety argument is structural: "an element
//! stops its clock synchronously and has its clock started
//! asynchronously", so no register edge can coincide with a changing
//! asynchronous input. This module builds the actual circuit — a ring
//! oscillator gated by a NAND — and the tests demonstrate both halves
//! of the argument on the engine's own setup/hold checker: data
//! arriving only while the clock is parked is always sampled cleanly,
//! while a free-running clock sampling the same traffic records
//! violations.

use crate::arena::{GateKind, Netlist, WireId};
use crate::time::SimTime;

/// Handles to a gated ring-oscillator clock inside a [`Netlist`].
#[derive(Debug, Clone, Copy)]
pub struct StoppableClock {
    /// Drive high to run the clock, low to park it (parked level is
    /// high).
    pub enable: WireId,
    /// The clock output.
    pub clk: WireId,
    /// The oscillation period.
    pub period: SimTime,
}

/// Builds a stoppable clock: `NAND(enable, clk)` feeding a chain of
/// `2·half_stages` inverters back to `clk`. While `enable` is high the
/// loop has odd inversion parity and oscillates with period
/// `2·(nand_delay + 2·half_stages·inv_delay)`; when `enable` drops,
/// `clk` parks high within one loop traversal. The NAND's start-up
/// event (its low inputs disagree with its low output) parks the
/// clock high right after time zero.
///
/// # Panics
///
/// Panics unless `half_stages ≥ 1` and delays are positive.
pub fn add_stoppable_clock(
    nl: &mut Netlist,
    half_stages: usize,
    inv_delay: SimTime,
    nand_delay: SimTime,
) -> StoppableClock {
    assert!(half_stages >= 1, "need at least one inverter pair");
    assert!(
        inv_delay > SimTime::ZERO && nand_delay > SimTime::ZERO,
        "delays must be positive"
    );
    let enable = nl.add_wire();
    let clk = nl.add_wire();
    let nand_out = nl.add_wire();
    // Chain: nand_out -> inv -> inv -> … -> clk (2·half_stages invs).
    let mut prev = nand_out;
    for _ in 0..2 * half_stages - 1 {
        let n = nl.add_wire();
        nl.add_inverter(prev, n, inv_delay, inv_delay);
        prev = n;
    }
    nl.add_inverter(prev, clk, inv_delay, inv_delay);
    nl.add_gate2(
        GateKind::Nand2,
        enable,
        clk,
        nand_out,
        nand_delay,
        nand_delay,
    );
    let loop_delay = nand_delay + inv_delay * (2 * half_stages as u64);
    StoppableClock {
        enable,
        clk,
        period: loop_delay * 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{NetSim, ViolationKind};

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    /// Builds a clock (plus whatever `extra` adds) and a simulator
    /// watching its output.
    fn clock_sim(extra: impl FnOnce(&mut Netlist, &StoppableClock)) -> (NetSim, StoppableClock) {
        let mut nl = Netlist::new();
        let clock = add_stoppable_clock(&mut nl, 2, ps(50), ps(80));
        extra(&mut nl, &clock);
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(clock.clk);
        (sim, clock)
    }

    /// Count clk transitions in a window.
    fn edges_between(sim: &NetSim, clk: WireId, from: SimTime, to: SimTime) -> usize {
        sim.transitions_ps(clk)
            .iter()
            .filter(|&&(t, _)| t >= from.as_ps() && t < to.as_ps())
            .count()
    }

    #[test]
    fn parked_clock_is_silent() {
        let (mut sim, clock) = clock_sim(|_, _| {});
        sim.run_to_quiescence(ps(1_000_000))
            .expect("parked = quiescent");
        // At most the single power-on transition to the parked level.
        assert!(sim.transitions_ps(clock.clk).len() <= 1);
        assert!(sim.value(clock.clk), "parks high");
    }

    #[test]
    fn enabled_clock_oscillates_at_loop_period() {
        let (mut sim, clock) = clock_sim(|_, _| {});
        sim.schedule_input(clock.enable, ps(100), true);
        sim.run_until(ps(50_000));
        let edges = sim.transitions_ps(clock.clk);
        assert!(edges.len() > 10, "clock must run: {edges:?}");
        // Same-direction edges are one period apart.
        let rises: Vec<u64> = edges.iter().filter(|&&(_, v)| v).map(|&(t, _)| t).collect();
        let diffs: Vec<u64> = rises.windows(2).map(|w| w[1] - w[0]).collect();
        for d in &diffs[1..] {
            assert_eq!(*d, clock.period.as_ps(), "period drift: {diffs:?}");
        }
    }

    #[test]
    fn disabling_parks_and_reenabling_resumes() {
        let (mut sim, clock) = clock_sim(|_, _| {});
        sim.schedule_input(clock.enable, ps(100), true);
        sim.schedule_input(clock.enable, ps(20_000), false);
        sim.schedule_input(clock.enable, ps(40_000), true);
        sim.run_until(ps(60_000));
        let clk = clock.clk;
        assert!(edges_between(&sim, clk, ps(100), ps(20_000)) > 5);
        // After one loop traversal past the disable, silence.
        assert_eq!(
            edges_between(&sim, clk, ps(21_000), ps(40_000)),
            0,
            "parked clock must not tick"
        );
        assert!(edges_between(&sim, clk, ps(40_000), ps(60_000)) > 5);
    }

    /// A register sampling `d` off the clock; `d` is the netlist's
    /// next-to-last wire.
    fn sampling_register(nl: &mut Netlist, clock: &StoppableClock) {
        let d = nl.add_wire();
        let q = nl.add_wire();
        nl.add_register(d, clock.clk, q, ps(60), ps(60), ps(30));
    }

    #[test]
    fn stoppable_clock_samples_async_data_without_violations() {
        // Protocol: data may only change while the clock is parked;
        // the clock is started (asynchronously) afterwards and stopped
        // again before the next change — Fig. 8's discipline.
        let (mut sim, clock) = clock_sim(sampling_register);
        let d = WireId::from_index(sim.netlist().n_wires() - 2);
        let mut t = ps(1_000);
        for i in 0..20u64 {
            // Change data while parked…
            sim.schedule_input(d, t, i % 2 == 0);
            // …then run the clock for a couple of periods.
            sim.schedule_input(clock.enable, t + ps(500), true);
            sim.schedule_input(clock.enable, t + ps(500) + clock.period * 2, false);
            t = t + ps(500) + clock.period * 3 + ps(500);
        }
        sim.run_until(t + ps(10_000));
        assert!(
            sim.transitions_ps(clock.clk).len() >= 40,
            "clock must actually have ticked"
        );
        assert!(
            sim.violations().is_empty(),
            "stoppable-clock discipline must be violation-free: {:?}",
            sim.violations()
        );
    }

    #[test]
    fn free_running_clock_on_async_data_violates() {
        // The contrast: the same data traffic against an always-on
        // clock whose phase drifts over the data eventually lands a
        // change inside a setup/hold window.
        let (mut sim, clock) = clock_sim(sampling_register);
        let d = WireId::from_index(sim.netlist().n_wires() - 2);
        sim.schedule_input(clock.enable, ps(100), true);
        // Data toggling with a period incommensurate with the clock's
        // 960 ps: phases sweep the whole cycle.
        let mut t = ps(1_000);
        for i in 0..200u64 {
            sim.schedule_input(d, t, i % 2 == 0);
            t += ps(1_013);
        }
        sim.run_until(t + ps(10_000));
        assert!(
            sim.violations()
                .iter()
                .any(|v| v.kind == ViolationKind::Setup || v.kind == ViolationKind::Hold),
            "free-running sampling of async data must eventually violate"
        );
    }
}
