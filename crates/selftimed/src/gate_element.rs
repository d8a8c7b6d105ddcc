//! A gate-level pair of hybrid elements: Fig. 8's "an element stops
//! its clock synchronously and has its clock started asynchronously",
//! implemented as an actual circuit and simulated at the gate level.
//!
//! Each element owns a stoppable (gated ring-oscillator) local clock
//! and a one-bit *phase* register toggled by its own clock. The
//! synchronization network is two gates:
//!
//! ```text
//! enable_A = XNOR(phase_A, phase_B)   (A ticks when it is not ahead)
//! enable_B = XOR (phase_A, phase_B)   (B ticks when it is behind)
//! ```
//!
//! A's tick flips `phase_A`, which *synchronously* drops `enable_A`
//! (the element stops its own clock) and *asynchronously* raises
//! `enable_B` (the neighbour's clock is started by the handshake).
//! Ticks therefore alternate A, B, A, B, … in lock step, at a rate set
//! entirely by local gate delays — the hybrid scheme's constant cycle,
//! with zero setup/hold violations by construction.

use netlist::stoppable_clock::{add_stoppable_clock, StoppableClock};
use netlist::{GateKind, NetSim, Netlist, SimTime, WireId};

/// The two-element gate-level hybrid network.
#[derive(Debug)]
pub struct ElementPair {
    sim: NetSim,
    phase_a: WireId,
    phase_b: WireId,
    clock_a: StoppableClock,
    clock_b: StoppableClock,
}

/// Result of running the element pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairRun {
    /// Tick count of element A (phase transitions).
    pub ticks_a: usize,
    /// Tick count of element B.
    pub ticks_b: usize,
    /// Mean time between consecutive A-ticks, in picoseconds.
    pub period_ps: u64,
    /// Setup/hold violations recorded anywhere in the circuit.
    pub violations: usize,
    /// Interleaved tick log: `(time, element)` with `0 = A, 1 = B`.
    pub log: Vec<(SimTime, u8)>,
}

impl ElementPair {
    /// Builds the pair. `half_stages`, `inv_delay`, `nand_delay` size
    /// each element's ring oscillator; the phase registers get
    /// generous windows that the protocol must (and does) respect.
    ///
    /// # Panics
    ///
    /// Panics on non-positive delays (see
    /// [`add_stoppable_clock`]).
    #[must_use]
    pub fn new(half_stages: usize, inv_delay: SimTime, nand_delay: SimTime) -> Self {
        let mut nl = Netlist::new();
        let clock_a = add_stoppable_clock(&mut nl, half_stages, inv_delay, nand_delay);
        let clock_b = add_stoppable_clock(&mut nl, half_stages, inv_delay, nand_delay);
        // Phase registers: Q toggles every local clock tick
        // (D = NOT Q).
        let (phase_a, phase_b) = (nl.add_wire(), nl.add_wire());
        let (da, db) = (nl.add_wire(), nl.add_wire());
        let reg_delay = SimTime::from_ps(30);
        let window = SimTime::from_ps(40);
        nl.add_register(da, clock_a.clk, phase_a, window, window, reg_delay);
        nl.add_register(db, clock_b.clk, phase_b, window, window, reg_delay);
        nl.add_inverter(phase_a, da, SimTime::from_ps(20), SimTime::from_ps(20));
        nl.add_inverter(phase_b, db, SimTime::from_ps(20), SimTime::from_ps(20));
        // The synchronization network.
        let gd = SimTime::from_ps(25);
        nl.add_gate2(GateKind::Xnor2, phase_a, phase_b, clock_a.enable, gd, gd);
        nl.add_gate2(GateKind::Xor2, phase_a, phase_b, clock_b.enable, gd, gd);
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(phase_a);
        sim.watch(phase_b);
        // Also watched for waveform capture (`run_capture`): the local
        // clocks and their enables tell the whole stop/start story.
        sim.watch(clock_a.clk);
        sim.watch(clock_b.clk);
        sim.watch(clock_a.enable);
        sim.watch(clock_b.enable);
        ElementPair {
            sim,
            phase_a,
            phase_b,
            clock_a,
            clock_b,
        }
    }

    /// The local ring period of each element's clock.
    #[must_use]
    pub fn local_period(&self) -> SimTime {
        self.clock_a.period
    }

    /// Enables event-lifecycle tracing on the underlying simulator
    /// (see [`NetSim::enable_trace`]) and marks both local clocks,
    /// so a traced run records `ClockEdge` events for `clk_a`/`clk_b`.
    /// Call before [`ElementPair::run_capture`]; retrieve the ring
    /// from the returned simulator with `take_trace`.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.sim.enable_trace(capacity);
        // Both marked phase 0: the local clocks are independent rings,
        // not a two-phase discipline, so A4 non-overlap does not apply.
        self.sim.mark_clock(self.clock_a.clk, "clk_a", 0);
        self.sim.mark_clock(self.clock_b.clk, "clk_b", 0);
    }

    /// Runs until `until` and reports tick statistics.
    ///
    /// # Panics
    ///
    /// Panics if the network deadlocks (fewer than two A-ticks).
    #[must_use]
    pub fn run(self, until: SimTime) -> PairRun {
        self.run_capture(until).0
    }

    /// Like [`ElementPair::run`], but also hands back the finished
    /// simulator together with named signals of interest
    /// (`clk_a/clk_b`, `enable_a/enable_b`, `phase_a/phase_b`) — what
    /// a VCD dump or an engine trace wants.
    ///
    /// # Panics
    ///
    /// As for [`ElementPair::run`].
    #[must_use]
    pub fn run_capture(
        mut self,
        until: SimTime,
    ) -> (PairRun, NetSim, Vec<(WireId, &'static str)>) {
        self.sim.run_until(until);
        let signals = vec![
            (self.clock_a.clk, "clk_a"),
            (self.clock_b.clk, "clk_b"),
            (self.clock_a.enable, "enable_a"),
            (self.clock_b.enable, "enable_b"),
            (self.phase_a, "phase_a"),
            (self.phase_b, "phase_b"),
        ];
        let ticks = |wire| -> Vec<SimTime> {
            self.sim
                .transitions_ps(wire)
                .iter()
                .map(|&(t, _)| SimTime::from_ps(t))
                .collect()
        };
        let (a, b) = (ticks(self.phase_a), ticks(self.phase_b));
        assert!(a.len() >= 2, "element pair deadlocked: A ticks {}", a.len());
        let period_ps =
            (a.last().expect("non-empty").as_ps() - a[0].as_ps()) / (a.len() as u64 - 1);
        let mut log: Vec<(SimTime, u8)> = a
            .iter()
            .map(|&t| (t, 0u8))
            .chain(b.iter().map(|&t| (t, 1u8)))
            .collect();
        log.sort();
        let run = PairRun {
            ticks_a: a.len(),
            ticks_b: b.len(),
            period_ps,
            violations: self.sim.violations().len(),
            log,
        };
        (run, self.sim, signals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    fn run_pair() -> PairRun {
        ElementPair::new(2, ps(50), ps(80)).run(ps(200_000))
    }

    #[test]
    fn elements_tick_in_lock_step() {
        let run = run_pair();
        assert!(run.ticks_a > 10, "{run:?}");
        // Lock step: counts within one of each other.
        assert!(
            run.ticks_a.abs_diff(run.ticks_b) <= 1,
            "A {} vs B {}",
            run.ticks_a,
            run.ticks_b
        );
        // And strictly alternating, A first.
        for (i, &(_, who)) in run.log.iter().enumerate() {
            assert_eq!(who as usize, i % 2, "tick order broke at {i}: {:?}", run.log);
        }
    }

    #[test]
    fn no_timing_violations_by_construction() {
        let run = run_pair();
        assert_eq!(run.violations, 0, "{run:?}");
    }

    #[test]
    fn pair_rate_constant_over_time() {
        let short = ElementPair::new(2, ps(50), ps(80)).run(ps(100_000));
        let long = ElementPair::new(2, ps(50), ps(80)).run(ps(400_000));
        let ratio = long.period_ps as f64 / short.period_ps as f64;
        assert!((0.9..1.1).contains(&ratio), "{short:?} vs {long:?}");
    }

    #[test]
    fn capture_exposes_signals_and_a_checkable_trace() {
        let mut pair = ElementPair::new(2, ps(50), ps(80));
        pair.enable_trace(1 << 14);
        let (run, mut sim, signals) = pair.run_capture(ps(200_000));
        assert_eq!(run, run_pair(), "capture must not perturb the run");
        assert_eq!(signals.len(), 6);
        for &(wire, name) in &signals {
            assert!(
                !sim.transitions_ps(wire).is_empty(),
                "signal {name} never toggled"
            );
        }
        let buf = sim.take_trace().expect("tracing was enabled");
        let mut trace = sim_observe::Trace::new();
        trace.add_track("pair", buf);
        assert!(trace.event_count() > 0);
        let report = sim_observe::check_trace(&trace);
        assert!(report.is_ok(), "{:?}", report.violations);
    }

    #[test]
    fn slower_gates_slow_the_handshake_rate() {
        let fast = ElementPair::new(2, ps(50), ps(80)).run(ps(300_000));
        let slow = ElementPair::new(2, ps(150), ps(240)).run(ps(900_000));
        assert!(slow.period_ps > 2 * fast.period_ps, "{fast:?} vs {slow:?}");
    }
}
