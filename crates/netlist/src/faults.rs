//! Gate-level fault injection and run-outcome classification.
//!
//! Two ways to bridge a [`FaultPlan`] to the engine's fault hooks
//! ([`NetSim::pin_wire`], [`NetSim::schedule_upset`],
//! [`NetSim::scale_wire_delay`]):
//!
//! * [`inject_wire_faults`] asks the plan per wire (site = wire
//!   index), for small hand-built circuits;
//! * [`gate_fault_words`] compiles the plan into one packed
//!   [`FaultWord`] per gate (site = gate index, a `u32` column riding
//!   alongside the arena) and [`inject_fault_words`] applies the
//!   column in one batch pass. At a million gates the per-site query —
//!   three RNG draws and an enum — belongs in such a pass: sweeps that
//!   reuse one sealed arena across trials pay the RNG cost once per
//!   trial in a tight loop instead of once per gate-build.
//!
//! [`classify_run`] turns the watchdog's [`Halt`] plus the caller's
//! completion check into a structured [`RunOutcome`] — the form every
//! fault-injected trial must terminate in.
//!
//! Word layout (low to high bits):
//!
//! ```text
//! [1:0]   kind     0 = none, 1 = stuck-at, 2 = transient, 3 = delay
//! [2]     stuck-at value (kind 1)
//! [31:16] payload  kind 2: upset position, 1/65536ths of the window
//!                  kind 3: delay scale in percent (1..=10000)
//! ```

use crate::arena::{SealedNetlist, WireId};
use crate::engine::{Halt, NetSim};
use crate::time::SimTime;
use sim_faults::{FaultPlan, GateFault, RunOutcome};

const KIND_NONE: u32 = 0;
const KIND_STUCK: u32 = 1;
const KIND_TRANSIENT: u32 = 2;
const KIND_DELAY: u32 = 3;

/// One gate's fault assignment, packed (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultWord(u32);

impl FaultWord {
    /// The no-fault word.
    pub const NONE: FaultWord = FaultWord(0);

    /// Packs a drawn [`GateFault`] (or its absence).
    #[must_use]
    pub fn pack(fault: Option<GateFault>) -> FaultWord {
        match fault {
            None => FaultWord(KIND_NONE),
            Some(GateFault::StuckAt(v)) => FaultWord(KIND_STUCK | (u32::from(v) << 2)),
            Some(GateFault::Transient { at_frac }) => {
                // Quantize [0, 1) to 16 bits; the window mapping at
                // injection time reconstructs the fraction.
                let q = ((at_frac.clamp(0.0, 1.0) * 65_536.0) as u32).min(65_535);
                FaultWord(KIND_TRANSIENT | (q << 16))
            }
            Some(GateFault::Delay { scale_pct }) => {
                let pct = scale_pct.clamp(1, 10_000);
                FaultWord(KIND_DELAY | (pct << 16))
            }
        }
    }

    /// Unpacks back to the enum form (`None` for the no-fault word).
    #[must_use]
    pub fn unpack(self) -> Option<GateFault> {
        match self.0 & 0b11 {
            KIND_STUCK => Some(GateFault::StuckAt(self.0 & 0b100 != 0)),
            KIND_TRANSIENT => Some(GateFault::Transient {
                at_frac: f64::from(self.0 >> 16) / 65_536.0,
            }),
            KIND_DELAY => Some(GateFault::Delay {
                scale_pct: self.0 >> 16,
            }),
            _ => None,
        }
    }

    /// Whether this word carries any fault.
    #[must_use]
    pub fn is_faulty(self) -> bool {
        self.0 & 0b11 != KIND_NONE
    }
}

/// Draws the plan once per gate (site = gate index) into a packed
/// word column. An all-[`FaultWord::NONE`] column for a disabled plan
/// costs one branch per gate and no RNG.
#[must_use]
pub fn gate_fault_words(plan: &FaultPlan, nl: &SealedNetlist) -> Vec<FaultWord> {
    if !plan.is_enabled() {
        return vec![FaultWord::NONE; nl.n_gates()];
    }
    (0..nl.n_gates())
        .map(|g| FaultWord::pack(plan.gate_fault(g as u64)))
        .collect()
}

/// Tally of one injection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionSummary {
    /// Gates pinned stuck-at (output wedged).
    pub stuck: usize,
    /// Gates given one scheduled transient upset.
    pub transient: usize,
    /// Gates with scaled propagation delay.
    pub delayed: usize,
}

impl InjectionSummary {
    /// Total faulted gates.
    #[must_use]
    pub fn total(&self) -> usize {
        self.stuck + self.transient + self.delayed
    }
}

/// Applies a word column to a simulator: stuck-at pins the gate's
/// output wire, a transient schedules one upset inside
/// `[sim.now(), window_end)`, a delay fault scales the output wire's
/// delay. Words must come from the same sealed arena the simulator
/// runs.
///
/// # Panics
///
/// Panics if the column length does not match the arena, or if
/// `window_end` precedes the current sim time while transients are
/// present.
pub fn inject_fault_words(
    sim: &mut NetSim,
    words: &[FaultWord],
    window_end: SimTime,
) -> InjectionSummary {
    let nl = std::sync::Arc::clone(sim.netlist());
    assert_eq!(
        words.len(),
        nl.n_gates(),
        "fault-word column does not match the arena"
    );
    let start_ps = sim.now().as_ps();
    let mut summary = InjectionSummary::default();
    for (gate, word) in nl.gates.iter().zip(words) {
        let Some(fault) = word.unpack() else { continue };
        let out = WireId(gate.out);
        match fault {
            GateFault::StuckAt(v) => {
                sim.pin_wire(out, v);
                summary.stuck += 1;
            }
            GateFault::Transient { at_frac } => {
                let end_ps = window_end.as_ps();
                assert!(end_ps >= start_ps, "upset window ends in the past");
                let span = end_ps - start_ps;
                let t = start_ps + ((span as f64) * at_frac) as u64;
                sim.schedule_upset(out, SimTime::from_ps(t.max(start_ps)));
                summary.transient += 1;
            }
            GateFault::Delay { scale_pct } => {
                sim.scale_wire_delay(out, scale_pct.clamp(1, 10_000));
                summary.delayed += 1;
            }
        }
    }
    summary
}

/// Applies the plan's gate faults to `wires`, using each wire's dense
/// index as its fault-plan site id. Transient upsets land at
/// `window * at_frac` (clamped to the simulated present). Returns the
/// number of faults injected.
///
/// Call once after building the simulator and before running it; with
/// a disabled plan this is a no-op.
pub fn inject_wire_faults(
    sim: &mut NetSim,
    plan: &FaultPlan,
    wires: &[WireId],
    window: SimTime,
) -> u64 {
    if !plan.is_enabled() {
        return 0;
    }
    let mut injected = 0;
    for &wire in wires {
        match plan.gate_fault(wire.index() as u64) {
            Some(GateFault::StuckAt(v)) => sim.pin_wire(wire, v),
            Some(GateFault::Transient { at_frac }) => {
                let at = SimTime::from_ps(((window.as_ps() as f64) * at_frac) as u64).max(sim.now());
                sim.schedule_upset(wire, at);
            }
            Some(GateFault::Delay { scale_pct }) => sim.scale_wire_delay(wire, scale_pct),
            None => continue,
        }
        injected += 1;
    }
    injected
}

/// Classifies a watchdog-supervised run: recorded setup/hold
/// violations dominate; otherwise a quiescent circuit whose workload
/// finished is [`RunOutcome::Ok`], a quiescent circuit with pending
/// obligations (`done == false`) is a [`RunOutcome::Deadlock`], and an
/// exhausted sim-time or event budget is [`RunOutcome::Budget`]
/// (livelock or "too slow to count as working").
#[must_use]
pub fn classify_run(sim: &NetSim, halt: Halt, done: bool) -> RunOutcome {
    if !sim.violations().is_empty() {
        return RunOutcome::TimingViolation;
    }
    match halt {
        Halt::Quiescent { .. } if done => RunOutcome::Ok,
        Halt::Quiescent { .. } => RunOutcome::Deadlock,
        Halt::SimLimit { .. } | Halt::EventLimit { .. } => RunOutcome::Budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RunBudget;
    use crate::Netlist;
    use sim_faults::FaultRates;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    /// A clean inverter chain of `n` wires; wire `k` is `WireId(k)`.
    fn chain(n: usize) -> (NetSim, Vec<WireId>) {
        let mut nl = Netlist::new();
        let wires: Vec<WireId> = (0..n).map(|_| nl.add_wire()).collect();
        for w in wires.windows(2) {
            nl.add_inverter(w[0], w[1], ps(100), ps(100));
        }
        (NetSim::from_netlist(nl), wires)
    }

    #[test]
    fn stuck_at_pin_blocks_all_later_drivers() {
        let (mut sim, wires) = chain(4);
        sim.pin_wire(wires[1], true);
        sim.schedule_input(wires[0], ps(500), true);
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        // wires[1] would normally go low (inverted high input) — it is
        // pinned high instead, and the chain repeats from there.
        assert!(sim.value(wires[1]));
        assert!(!sim.value(wires[2]));
        assert!(sim.value(wires[3]));
        assert!(sim.stats().faults_injected >= 1);
    }

    #[test]
    fn upset_flips_and_circuit_reacts() {
        let (mut sim, wires) = chain(3);
        sim.watch(wires[2]);
        // No input stimulus at all; the SEU is the only activity.
        sim.schedule_upset(wires[0], ps(1_000));
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        assert!(sim.value(wires[0]), "upset flipped the wire");
        // Chain parity: wire 2 follows wire 0 after 200 ps.
        assert_eq!(sim.transitions_ps(wires[2]), &[(1_200, true)]);
        assert_eq!(sim.stats().faults_injected, 1);
    }

    #[test]
    fn delay_fault_stretches_propagation() {
        let (mut sim, wires) = chain(2);
        sim.watch(wires[1]);
        sim.scale_wire_delay(wires[1], 300); // 3x nominal
        sim.schedule_input(wires[0], ps(1_000), true);
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        assert_eq!(sim.transitions_ps(wires[1]), &[(1_300, false)]);
    }

    #[test]
    fn budgeted_run_classifies_quiescent_done_as_ok() {
        let (mut sim, wires) = chain(3);
        sim.schedule_input(wires[0], ps(100), true);
        let halt = sim.run_budgeted(RunBudget::new(ps(100_000), 1_000));
        assert!(matches!(halt, Halt::Quiescent { .. }));
        let done = sim.value(wires[2]); // workload: the edge arrived
        assert_eq!(classify_run(&sim, halt, done), RunOutcome::Ok);
    }

    #[test]
    fn watchdog_classifies_stalled_rendezvous_as_deadlock() {
        // A C-element rendezvous whose second input is stuck low: the
        // request propagates, the acknowledge never forms, the circuit
        // quiesces with the obligation unmet — a deadlock, detected
        // and classified instead of hanging.
        let mut nl = Netlist::new();
        let (req, peer, ack) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        nl.add_c_element(req, peer, ack, ps(50));
        let mut sim = NetSim::from_netlist(nl);
        sim.pin_wire(peer, false); // the lost transition
        sim.schedule_input(req, ps(100), true);
        let halt = sim.run_budgeted(RunBudget::new(ps(1_000_000), 10_000));
        assert!(matches!(halt, Halt::Quiescent { .. }));
        let done = sim.value(ack); // obligation: the ack must rise
        assert_eq!(classify_run(&sim, halt, done), RunOutcome::Deadlock);
    }

    #[test]
    fn watchdog_classifies_oscillation_as_budget() {
        // A free-running clock never quiesces: the event budget trips.
        let (mut sim, wires) = chain(1);
        sim.schedule_clock(wires[0], ps(0), ps(1_000), ps(500), 100_000);
        let halt = sim.run_budgeted(RunBudget::new(ps(u64::MAX / 2), 500));
        assert!(matches!(halt, Halt::EventLimit { .. }));
        assert_eq!(classify_run(&sim, halt, false), RunOutcome::Budget);
        // And a sim-time budget trips on its own.
        let (mut sim, wires) = chain(1);
        sim.schedule_clock(wires[0], ps(0), ps(1_000), ps(500), 100_000);
        let halt = sim.run_budgeted(RunBudget::new(ps(10_000), u64::MAX));
        assert!(matches!(halt, Halt::SimLimit { .. }));
        assert_eq!(classify_run(&sim, halt, false), RunOutcome::Budget);
    }

    #[test]
    fn timing_violations_dominate_classification() {
        let mut nl = Netlist::new();
        let (d, clk, q) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        nl.add_register(d, clk, q, ps(100), ps(100), ps(20));
        let mut sim = NetSim::from_netlist(nl);
        sim.schedule_input(d, ps(470), true);
        sim.schedule_input(clk, ps(500), true);
        let halt = sim.run_budgeted(RunBudget::new(ps(100_000), 1_000));
        assert_eq!(classify_run(&sim, halt, true), RunOutcome::TimingViolation);
    }

    #[test]
    fn plan_driven_injection_is_deterministic() {
        let plan = FaultPlan::new(1, 7, FaultRates::uniform(0.4));
        let run = || {
            let (mut sim, wires) = chain(32);
            let injected = inject_wire_faults(&mut sim, &plan, &wires, ps(10_000));
            sim.schedule_input(wires[0], ps(100), true);
            let halt = sim.run_budgeted(RunBudget::new(ps(1_000_000), 100_000));
            let values: Vec<bool> = wires.iter().map(|&w| sim.value(w)).collect();
            (injected, halt, values, sim.stats())
        };
        assert_eq!(run(), run());
        let (injected, ..) = run();
        assert!(injected > 0, "a 40% plan over 32 wires injects something");
        // A disabled plan injects nothing.
        let (mut sim, wires) = chain(8);
        assert_eq!(
            inject_wire_faults(&mut sim, &FaultPlan::disabled(), &wires, ps(1_000)),
            0
        );
        assert_eq!(sim.stats().faults_injected, 0);
    }

    #[test]
    fn upsets_appear_in_the_event_trace_and_pass_the_checker() {
        let (mut sim, wires) = chain(3);
        sim.enable_trace(1 << 10);
        sim.schedule_input(wires[0], ps(100), true);
        sim.schedule_upset(wires[1], ps(5_000));
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        let buf = sim.take_trace().expect("tracing enabled");
        let (events, _) = buf.into_ordered();
        assert!(events
            .iter()
            .any(|e| e.kind() == "fault_injected" && e.to_text().contains("site=net1 kind=seu_flip")));
        let mut trace = sim_observe::Trace::new();
        let mut buf2 = sim_observe::TraceBuf::new(events.len());
        for ev in events {
            buf2.record(ev);
        }
        trace.add_track("engine", buf2);
        let check = sim_observe::check_trace(&trace);
        assert!(check.is_ok(), "{:?}", check.violations);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let cases = [
            None,
            Some(GateFault::StuckAt(true)),
            Some(GateFault::StuckAt(false)),
            Some(GateFault::Delay { scale_pct: 150 }),
            Some(GateFault::Delay { scale_pct: 10_000 }),
        ];
        for c in cases {
            assert_eq!(FaultWord::pack(c).unpack(), c, "{c:?}");
        }
        // Transients quantize: round-trip to within 1/65536.
        let w = FaultWord::pack(Some(GateFault::Transient { at_frac: 0.37 }));
        match w.unpack() {
            Some(GateFault::Transient { at_frac }) => {
                assert!((at_frac - 0.37).abs() < 1.0 / 65_536.0 + 1e-12);
            }
            other => panic!("expected transient, got {other:?}"),
        }
        assert!(w.is_faulty());
        assert!(!FaultWord::NONE.is_faulty());
    }

    #[test]
    fn word_column_matches_per_site_queries() {
        let mut nl = crate::Netlist::new();
        let mut prev = nl.add_wire();
        for _ in 0..64 {
            let next = nl.add_wire();
            nl.add_inverter(
                prev,
                next,
                SimTime::from_ps(10),
                SimTime::from_ps(12),
            );
            prev = next;
        }
        let sealed = nl.seal();
        let plan = FaultPlan::new(0xF15C, 3, FaultRates::uniform(0.2));
        let words = gate_fault_words(&plan, &sealed);
        assert_eq!(words.len(), sealed.n_gates());
        for (g, w) in words.iter().enumerate() {
            let direct = plan.gate_fault(g as u64);
            match (w.unpack(), direct) {
                (a, b) if a == b => {}
                // Transient fractions quantize through the word.
                (
                    Some(GateFault::Transient { at_frac: a }),
                    Some(GateFault::Transient { at_frac: b }),
                ) => assert!((a - b).abs() < 1.0 / 65_536.0 + 1e-12),
                (a, b) => panic!("site {g}: {a:?} != {b:?}"),
            }
        }
    }

    #[test]
    fn disabled_plan_is_all_none() {
        let mut nl = crate::Netlist::new();
        let a = nl.add_wire();
        let b = nl.add_wire();
        nl.add_buffer(a, b, SimTime::from_ps(5), SimTime::from_ps(5));
        let sealed = nl.seal();
        let words = gate_fault_words(&FaultPlan::disabled(), &sealed);
        assert!(words.iter().all(|w| !w.is_faulty()));
    }
}
