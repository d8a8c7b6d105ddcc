//! Differential suite: the netlist engine against the frozen answers
//! of the heap-scheduled reference engine it replaced.
//!
//! Every scenario is a small circuit plus a script of stimuli, faults
//! and run calls, covering every gate kind (buffer, inverter, one-shot,
//! the six two-input kinds, C-element, register), every fault hook
//! (stuck-at pin, SEU upset, delay scale, compiled fault words) and
//! every run mode (`run_until`, `run_to_quiescence`, `run_budgeted`).
//! Its fingerprint — each run call's result, the final time, the full
//! [`EngineStats`] set and its metrics-JSON bytes, recorded timing
//! violations, every wire's final value, the watched waveforms, their
//! VCD bytes and the event trace — was captured once from the
//! reference engine and committed under `tests/golden/engine/`. The
//! pinned contract is *byte identity*: any divergence is an
//! engine-semantics bug, not noise.

use netlist::prelude::*;
use sim_faults::{FaultPlan, FaultRates, GateFault};
use sim_observe::TraceEvent;
use std::fmt::Write as _;
use std::sync::Arc;

fn ps(v: u64) -> SimTime {
    SimTime::from_ps(v)
}

/// One scripted action, applied in order.
#[derive(Debug, Clone)]
enum Act {
    Watch(WireId, String),
    /// Enable tracing (ring large enough to drop nothing).
    Trace,
    MarkClock(WireId, &'static str, u8),
    Pin(WireId, bool),
    Upset(WireId, u64),
    Scale(WireId, u32),
    /// A compiled fault-word column over a window ending at the given
    /// time (the netlist's batch injection path).
    Words(Vec<FaultWord>, u64),
    Input(WireId, u64, bool),
    /// `schedule_clock(wire, start, period, high, cycles)`.
    Clock(WireId, u64, u64, u64, usize),
    RunUntil(u64),
    Quiesce(u64),
    /// `run_budgeted(sim_limit, max_events)`.
    Budget(u64, u64),
}

struct Scenario {
    name: &'static str,
    sealed: Arc<SealedNetlist>,
    acts: Vec<Act>,
}

impl Scenario {
    fn new(name: &'static str, netlist: Netlist) -> Self {
        Scenario::sealed(name, Arc::new(netlist.seal()))
    }

    fn sealed(name: &'static str, sealed: Arc<SealedNetlist>) -> Self {
        Scenario {
            name,
            sealed,
            acts: Vec::new(),
        }
    }

    fn act(&mut self, act: Act) -> &mut Self {
        self.acts.push(act);
        self
    }

    fn watch(&mut self, wire: WireId, name: &str) -> &mut Self {
        self.act(Act::Watch(wire, name.to_owned()))
    }
}

/// What one engine produced for a scenario, rendered engine-neutrally.
#[derive(Default)]
struct Fingerprint {
    steps: Vec<String>,
    now_ps: u64,
    stats: String,
    metrics: String,
    violations: Vec<(u64, ViolationKind, usize)>,
    values: String,
    waves: Vec<(String, Vec<(u64, bool)>)>,
    vcd: String,
    trace: Vec<String>,
}

impl Fingerprint {
    fn render(&self, name: &str) -> String {
        let mut out = format!("scenario {name}\n");
        for step in &self.steps {
            let _ = writeln!(out, "step {step}");
        }
        let _ = writeln!(out, "now {}", self.now_ps);
        let _ = writeln!(out, "stats {}", self.stats);
        let _ = writeln!(out, "violations {}", self.violations.len());
        for (at, kind, wire) in &self.violations {
            let _ = writeln!(out, "  {at} {kind:?} wire {wire}");
        }
        let _ = writeln!(out, "values {}", self.values);
        for (name, wave) in &self.waves {
            let _ = write!(out, "wave {name}:");
            for (t, v) in wave {
                let _ = write!(out, " {t}:{}", u8::from(*v));
            }
            out.push('\n');
        }
        let _ = writeln!(out, "metrics\n{}", self.metrics);
        let _ = writeln!(out, "vcd\n{}", self.vcd);
        let _ = writeln!(out, "trace {}", self.trace.len());
        for line in &self.trace {
            let _ = writeln!(out, "  {line}");
        }
        out
    }
}

fn metrics_bytes(stats: &EngineStats, now_ps: u64) -> String {
    let mut m = sim_observe::Metrics::new();
    stats.record(&mut m, "core");
    m.add("core.sim_time_ps", now_ps);
    m.to_json().to_pretty()
}

fn trace_lines(events: Vec<TraceEvent>) -> Vec<String> {
    events.iter().map(TraceEvent::to_text).collect()
}

fn halt_text(halt: Halt) -> String {
    match halt {
        Halt::Quiescent { at } => format!("quiescent {}", at.as_ps()),
        Halt::SimLimit { at } => format!("sim-limit {}", at.as_ps()),
        Halt::EventLimit { at } => format!("event-limit {}", at.as_ps()),
    }
}

/// Runs a scenario on the netlist engine.
fn run_netsim(sc: &Scenario) -> Fingerprint {
    let sealed = Arc::clone(&sc.sealed);
    let mut sim = NetSim::new(Arc::clone(&sealed));
    let mut fp = Fingerprint::default();
    let mut watched: Vec<(WireId, String)> = Vec::new();
    for act in &sc.acts {
        match act.clone() {
            Act::Watch(w, name) => {
                sim.watch(w);
                watched.push((w, name));
            }
            Act::Trace => sim.enable_trace(1 << 20),
            Act::MarkClock(w, signal, phase) => sim.mark_clock(w, signal, phase),
            Act::Pin(w, v) => sim.pin_wire(w, v),
            Act::Upset(w, t) => sim.schedule_upset(w, ps(t)),
            Act::Scale(w, pct) => sim.scale_wire_delay(w, pct),
            Act::Words(words, end) => {
                let summary = inject_fault_words(&mut sim, &words, ps(end));
                fp.steps.push(format!(
                    "words {}/{}/{}",
                    summary.stuck, summary.transient, summary.delayed
                ));
            }
            Act::Input(w, t, v) => sim.schedule_input(w, ps(t), v),
            Act::Clock(w, start, period, high, cycles) => {
                sim.schedule_clock(w, ps(start), ps(period), ps(high), cycles);
            }
            Act::RunUntil(t) => {
                sim.run_until(ps(t));
                fp.steps
                    .push(format!("run_until {t} -> {}", sim.now().as_ps()));
            }
            Act::Quiesce(limit) => {
                let r = sim.run_to_quiescence(ps(limit));
                fp.steps.push(match r {
                    Ok(t) => format!("quiesce {limit} -> ok {}", t.as_ps()),
                    Err(e) => format!("quiesce {limit} -> still active at {}", e.limit.as_ps()),
                });
            }
            Act::Budget(limit, events) => {
                let halt = sim.run_budgeted(RunBudget::new(ps(limit), events));
                fp.steps
                    .push(format!("budget {limit}/{events} -> {}", halt_text(halt)));
            }
        }
    }
    fp.now_ps = sim.now().as_ps();
    fp.stats = format!("{:?}", sim.stats());
    fp.metrics = metrics_bytes(&sim.stats(), fp.now_ps);
    fp.violations = sim
        .violations()
        .iter()
        .map(|v| (v.at.as_ps(), v.kind, v.data_wire.index()))
        .collect();
    fp.values = (0..sealed.n_wires())
        .map(|k| {
            if sim.value(WireId::from_index(k)) {
                '1'
            } else {
                '0'
            }
        })
        .collect();
    fp.waves = watched
        .iter()
        .map(|(w, name)| (name.clone(), sim.transitions_ps(*w).to_vec()))
        .collect();
    let named: Vec<(WireId, &str)> = watched.iter().map(|(w, n)| (*w, n.as_str())).collect();
    fp.vcd = sim.export_vcd(&named);
    if let Some(buf) = sim.take_trace() {
        let (events, dropped) = buf.into_ordered();
        assert_eq!(dropped, 0, "{}: trace ring overflowed", sc.name);
        fp.trace = trace_lines(events);
    }
    fp
}

/// Checks a scenario against its committed golden fingerprint and
/// returns the netlist engine's fingerprint for further assertions.
fn check(sc: &Scenario) -> Fingerprint {
    let fp = run_netsim(sc);
    let got = fp.render(sc.name);
    let path = format!(
        "{}/tests/golden/engine/{}.txt",
        env!("CARGO_MANIFEST_DIR"),
        sc.name
    );
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: cannot read golden file {path}: {e}", sc.name));
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{}: fingerprint diverges from the reference at line {}:\n  got:  {:?}\n  want: {:?}",
            sc.name,
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
    fp
}

/// A chain of `stages` gates, stage `k` built by
/// `add(netlist, k, input, output)`, wires allocated in chain order:
/// element `k` is the output of stage `k - 1`, element 0 the chain
/// input.
fn chain(
    nl: &mut Netlist,
    stages: usize,
    mut add: impl FnMut(&mut Netlist, usize, WireId, WireId),
) -> Vec<WireId> {
    let mut wires = vec![nl.add_wire()];
    for k in 0..stages {
        let out = nl.add_wire();
        add(nl, k, wires[k], out);
        wires.push(out);
    }
    wires
}

fn wave(fp: &Fingerprint, name: &str) -> Vec<(u64, bool)> {
    fp.waves
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, w)| w.clone())
        .expect("watched")
}

/// e6-small: a 64-stage fabricated inverter string under a pipelined
/// clock train, compared tap by tap — waveforms, VCD bytes, counters,
/// and metrics bytes.
#[test]
fn e6_small_inverter_string_matches_reference_engine() {
    let spec = InverterStringSpec {
        stages: 64,
        ..InverterStringSpec::paper_chip(1)
    };
    let chip = InverterString::fabricate(spec);
    let nodes: Vec<WireId> = (0..=spec.stages).map(WireId::from_index).collect();
    let mut sc = Scenario::new("e6_small_inverter_string", chip.netlist());
    for k in [0usize, 16, 32, 48, 64] {
        sc.watch(nodes[k], &format!("tap_{k}"));
    }
    let shrink = chip.worst_prefix_shrinkage_ps().unsigned_abs();
    let period = 2 * shrink + 8 * spec.base_delay.as_ps();
    let limit = 10 + 3 * period + 4 * chip.total_delay_both_edges().as_ps();
    sc.act(Act::Clock(nodes[0], 10, period, period / 2, 3))
        .act(Act::Quiesce(limit));
    let fp = check(&sc);
    // Every pipelined edge reached the far end.
    assert_eq!(wave(&fp, "tap_64").len(), 6);
}

/// e2-small: the buffered clock spine of the clocked chain — the
/// arrival (skew) profile along the spine, edge for edge.
#[test]
fn e2_small_clock_spine_skew_matches_reference_engine() {
    let spec = ClockedChainSpec::default_chain();
    let skew = spec.skew_step.as_ps();
    let mut nl = Netlist::new();
    let nodes = chain(&mut nl, spec.registers, |nl, k, i, o| {
        let d = if k == 0 { ps(1) } else { ps(skew) };
        nl.add_buffer(i, o, d, d);
    });
    let mut sc = Scenario::new("e2_small_clock_spine", nl);
    for (k, &w) in nodes.iter().enumerate() {
        sc.watch(w, &format!("tap_{k}"));
    }
    for (t, v) in [
        (1_000, true),
        (6_000, false),
        (11_000, true),
        (16_000, false),
    ] {
        sc.act(Act::Input(nodes[0], t, v));
    }
    sc.act(Act::RunUntil(50_000));
    let fp = check(&sc);
    // Past the 1 ps root buffer (tap 0 is the raw input, tap 1 the
    // first buffered tap), each tap's first rise arrives one skew step
    // after its predecessor's.
    let rises: Vec<u64> = (0..nodes.len())
        .map(|k| wave(&fp, &format!("tap_{k}"))[0].0)
        .collect();
    for k in 2..rises.len() {
        assert_eq!(rises[k], rises[k - 1] + skew, "tap {k} skew step wrong");
    }
}

/// e5-small: a fabricated one-shot string — pulse regeneration
/// timing, including the self-generated falling edges.
#[test]
fn e5_small_one_shot_string_matches_reference_engine() {
    let spec = OneShotStringSpec {
        stages: 24,
        base_delay: ps(1_000),
        delay_std_ps: 60.0,
        pulse_width: ps(400),
        seed: 3,
    };
    let nodes: Vec<WireId> = (0..=spec.stages).map(WireId::from_index).collect();
    let mut sc = Scenario::new(
        "e5_small_one_shot_string",
        OneShotString::fabricate(spec).netlist(),
    );
    for k in [1usize, 12, 24] {
        sc.watch(nodes[k], &format!("tap_{k}"));
    }
    // A train of trigger pulses faster than the string's latency: the
    // one-shots regenerate width 400 ps pulses at every stage.
    for i in 0..4u64 {
        let t = 500 + i * 3_000;
        sc.act(Act::Input(nodes[0], t, true))
            .act(Act::Input(nodes[0], t + 150, false));
    }
    sc.act(Act::Quiesce(200_000));
    let fp = check(&sc);
    for k in [1usize, 12, 24] {
        assert!(
            wave(&fp, &format!("tap_{k}")).len() >= 8,
            "tap {k} lost pulses"
        );
    }
}

/// The fault path across layers: a compiled fault-word column applied
/// to a 12×12 mesh must leave every wire where the reference engine's
/// per-net fault hooks left it.
#[test]
fn mesh_fault_words_match_reference_engine() {
    let mesh = MeshSpec::square(12, 5).build();
    let plan = FaultPlan::new(5, 0, FaultRates::uniform(0.05));
    let words = gate_fault_words(&plan, mesh.sealed());
    let window = mesh.settle_limit().as_ps();
    let mut sc = Scenario::sealed("mesh_fault_words", Arc::clone(mesh.sealed()));
    sc.act(Act::Words(words, window))
        .act(Act::Input(mesh.input(), 10, true))
        .act(Act::Quiesce(window));
    let fp = check(&sc);
    assert_ne!(
        fp.steps[0], "words 0/0/0",
        "the 5% plan should fault some gates"
    );
}

/// An inverter chain under a pulse narrower than its inertial window.
#[test]
fn inverter_chain_swallows_a_narrow_pulse() {
    let mut nl = Netlist::new();
    let w = chain(&mut nl, 5, |nl, _, i, o| {
        nl.add_inverter(i, o, ps(100), ps(140));
    });
    let mut sc = Scenario::new("inverter_chain_narrow_pulse", nl);
    sc.watch(w[0], "a").watch(w[5], "last");
    sc.act(Act::Trace)
        .act(Act::Input(w[0], 300, true))
        .act(Act::Input(w[0], 900, false))
        .act(Act::Input(w[0], 950, true))
        .act(Act::RunUntil(5_000));
    check(&sc);
}

/// Every symmetric two-input kind, including start-up resolution:
/// NAND, NOR and XNOR of two low inputs disagree with their low
/// outputs at construction and resolve through scheduled events.
#[test]
fn two_input_kinds_match_reference_engine() {
    let mut nl = Netlist::new();
    let (a, b) = (nl.add_wire(), nl.add_wire());
    let kinds = [
        GateKind::Or2,
        GateKind::And2,
        GateKind::Nand2,
        GateKind::Nor2,
        GateKind::Xor2,
        GateKind::Xnor2,
    ];
    let outs: Vec<WireId> = kinds
        .iter()
        .enumerate()
        .map(|(k, &kind)| {
            let o = nl.add_wire();
            nl.add_gate2(kind, a, b, o, ps(40 + 10 * k as u64), ps(30 + 5 * k as u64));
            o
        })
        .collect();
    // A second level mixing kinds, fed by the first.
    let (x, y) = (nl.add_wire(), nl.add_wire());
    nl.add_gate2(GateKind::Xor2, outs[2], outs[3], x, ps(25), ps(25));
    nl.add_gate2(GateKind::Nand2, outs[0], outs[5], y, ps(35), ps(20));
    let mut sc = Scenario::new("two_input_kinds", nl);
    sc.watch(a, "a").watch(b, "b").watch(x, "x").watch(y, "y");
    for (o, kind) in outs.iter().zip(kinds) {
        sc.watch(*o, &format!("{kind:?}"));
    }
    sc.act(Act::Trace);
    for (w, t, v) in [
        (a, 200, true),
        (b, 400, true),
        (a, 600, false),
        (a, 615, true), // narrower than every window
        (b, 900, false),
        (a, 1_200, false),
        (b, 1_220, true),
        (b, 1_500, false),
    ] {
        sc.act(Act::Input(w, t, v));
    }
    sc.act(Act::RunUntil(3_000));
    check(&sc);
}

/// C-elements: follow on agreement, hold on disagreement, start at
/// agreeing inputs, rendezvous of a fast and a slow buffer chain, and
/// a self-oscillating Muller pipeline.
#[test]
fn c_elements_match_reference_engine() {
    let mut nl = Netlist::new();
    let (a, b, q) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
    nl.add_c_element(a, b, q, ps(100));
    let src = nl.add_wire();
    let mut fast = src;
    for _ in 0..2 {
        let n = nl.add_wire();
        nl.add_buffer(fast, n, ps(100), ps(100));
        fast = n;
    }
    let mut slow = src;
    for _ in 0..8 {
        let n = nl.add_wire();
        nl.add_buffer(slow, n, ps(100), ps(100));
        slow = n;
    }
    let meet = nl.add_wire();
    nl.add_c_element(fast, slow, meet, ps(10));
    // Muller pipeline: s0 --C1-- s1 -- … --C6-- s6, acks inverted
    // from the next stage, a source inverter s1 -> s0.
    let stages = 6;
    let s: Vec<WireId> = (0..=stages).map(|_| nl.add_wire()).collect();
    for i in 1..=stages {
        let ack = nl.add_wire();
        nl.add_inverter(s[(i + 1).min(stages)], ack, ps(50), ps(50));
        nl.add_c_element(s[i - 1], ack, s[i], ps(100));
    }
    nl.add_inverter(s[1], s[0], ps(50), ps(50));
    let mut sc = Scenario::new("c_elements", nl);
    sc.watch(q, "q")
        .watch(meet, "meet")
        .watch(s[stages], "sink");
    sc.act(Act::Trace);
    for (w, t, v) in [
        (a, 1_000, true),
        (b, 2_000, true),
        (a, 3_000, false),
        (b, 4_000, false),
        (src, 1_000, true),
        (s[0], 1, false),
        (s[0], 103, true),
    ] {
        sc.act(Act::Input(w, t, v));
    }
    sc.act(Act::RunUntil(12_000));
    let fp = check(&sc);
    assert_eq!(wave(&fp, "q"), vec![(2_100, true), (4_100, false)]);
    assert_eq!(wave(&fp, "meet"), vec![(1_810, true)]);
}

/// The clocked chain of registers behind a skewed buffer spine, at a
/// generous period, a setup-violating one, and under a hold race.
#[test]
fn register_chains_match_reference_engine() {
    for (name, skew, delta, c2q, period) in [
        ("registers_clean", 200, 2_000, 150, 10_000),
        ("registers_setup", 200, 2_000, 150, 2_020),
        ("registers_hold", 2_500, 300, 100, 20_000),
    ] {
        let regs = 8;
        let mut nl = Netlist::new();
        let spine = chain(&mut nl, regs, |nl, k, i, o| {
            let d = if k == 0 { ps(1) } else { ps(skew) };
            nl.add_buffer(i, o, d, d);
        });
        let din = nl.add_wire();
        let (mut d_wire, mut q_last) = (din, din);
        for (i, &tap) in spine[1..].iter().enumerate() {
            let q = nl.add_wire();
            nl.add_register(d_wire, tap, q, ps(100), ps(100), ps(c2q));
            if i + 1 < regs {
                let delayed = nl.add_wire();
                nl.add_buffer(q, delayed, ps(delta), ps(delta));
                d_wire = delayed;
            }
            q_last = q;
        }
        let mut sc = Scenario::new(name, nl);
        sc.watch(q_last, "q_last").watch(din, "din");
        let cycles = 8;
        let total = cycles + regs + 2;
        sc.act(Act::Clock(spine[0], 10, period, period / 2, total));
        for i in 0..cycles as u64 {
            sc.act(Act::Input(din, 10 + period * i + c2q, i % 2 == 0));
        }
        let limit = 10 + period * (total as u64 + 4) + delta * (regs as u64 + 4);
        sc.act(Act::Quiesce(limit));
        let fp = check(&sc);
        match name {
            "registers_clean" => assert!(fp.violations.is_empty()),
            "registers_setup" => {
                assert!(fp.violations.iter().any(|v| v.1 == ViolationKind::Setup));
            }
            _ => assert!(fp.violations.iter().any(|v| v.1 == ViolationKind::Hold)),
        }
    }
}

/// A NAND-gated ring oscillator: park, run, park, resume — and a
/// register sampling asynchronous data off the free-running clock.
#[test]
fn stoppable_clock_matches_reference_engine() {
    let mut nl = Netlist::new();
    let clock = add_stoppable_clock(&mut nl, 2, ps(50), ps(80));
    let (d, q) = (nl.add_wire(), nl.add_wire());
    nl.add_register(d, clock.clk, q, ps(60), ps(60), ps(30));
    let mut sc = Scenario::new("stoppable_clock", nl);
    sc.watch(clock.clk, "clk")
        .watch(clock.enable, "enable")
        .watch(q, "q");
    sc.act(Act::Trace)
        .act(Act::MarkClock(clock.clk, "clk", 0))
        .act(Act::Input(clock.enable, 100, true))
        .act(Act::Input(clock.enable, 20_000, false))
        .act(Act::Input(clock.enable, 40_000, true));
    // Data toggling at a period incommensurate with the ring's 960 ps.
    for i in 0..40u64 {
        sc.act(Act::Input(d, 1_000 + 1_013 * i, i % 2 == 0));
    }
    sc.act(Act::RunUntil(60_000));
    let fp = check(&sc);
    assert!(
        !fp.violations.is_empty(),
        "free-running sampling must violate"
    );
}

/// Fig. 8's element pair: two stoppable clocks, two toggling phase
/// registers, the XNOR/XOR synchronization network — traced, with
/// both local clocks marked.
#[test]
fn element_pair_matches_reference_engine() {
    let mut nl = Netlist::new();
    let clock_a = add_stoppable_clock(&mut nl, 2, ps(50), ps(80));
    let clock_b = add_stoppable_clock(&mut nl, 2, ps(50), ps(80));
    let (phase_a, phase_b) = (nl.add_wire(), nl.add_wire());
    let (da, db) = (nl.add_wire(), nl.add_wire());
    nl.add_register(da, clock_a.clk, phase_a, ps(40), ps(40), ps(30));
    nl.add_register(db, clock_b.clk, phase_b, ps(40), ps(40), ps(30));
    nl.add_inverter(phase_a, da, ps(20), ps(20));
    nl.add_inverter(phase_b, db, ps(20), ps(20));
    nl.add_gate2(
        GateKind::Xnor2,
        phase_a,
        phase_b,
        clock_a.enable,
        ps(25),
        ps(25),
    );
    nl.add_gate2(
        GateKind::Xor2,
        phase_a,
        phase_b,
        clock_b.enable,
        ps(25),
        ps(25),
    );
    let mut sc = Scenario::new("element_pair", nl);
    sc.watch(clock_a.clk, "clk_a")
        .watch(clock_b.clk, "clk_b")
        .watch(clock_a.enable, "enable_a")
        .watch(clock_b.enable, "enable_b")
        .watch(phase_a, "phase_a")
        .watch(phase_b, "phase_b");
    sc.act(Act::Trace)
        .act(Act::MarkClock(clock_a.clk, "clk_a", 0))
        .act(Act::MarkClock(clock_b.clk, "clk_b", 0))
        .act(Act::RunUntil(30_000));
    let fp = check(&sc);
    assert!(fp.violations.is_empty());
    assert!(wave(&fp, "phase_a").len() > 10);
}

/// The watchdog's four verdicts and the delay/pin/upset hooks: a clean
/// chain, a stalled rendezvous, a setup violation, a free-running
/// oscillator against the event and the sim-time budget, and a
/// plan-driven chain (site = wire index, upsets at `window·at_frac`).
#[test]
fn watchdog_runs_match_reference_engine() {
    let inverters = |n: usize| {
        let mut nl = Netlist::new();
        let w = chain(&mut nl, n - 1, |nl, _, i, o| {
            nl.add_inverter(i, o, ps(100), ps(100));
        });
        (nl, w)
    };

    let (nl, w) = inverters(5);
    let mut sc = Scenario::new("watchdog_clean_chain", nl);
    sc.act(Act::Input(w[0], 500, true))
        .act(Act::Budget(100_000, 10_000));
    check(&sc);

    let mut nl = Netlist::new();
    let (req, peer, ack) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
    nl.add_c_element(req, peer, ack, ps(50));
    let mut sc = Scenario::new("watchdog_stuck_rendezvous", nl);
    sc.act(Act::Pin(peer, false))
        .act(Act::Input(req, 100, true))
        .act(Act::Budget(1_000_000, 10_000));
    check(&sc);

    let mut nl = Netlist::new();
    let (d, clk, q) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
    nl.add_register(d, clk, q, ps(100), ps(100), ps(20));
    let mut sc = Scenario::new("watchdog_setup_violation", nl);
    sc.act(Act::Input(d, 470, true))
        .act(Act::Input(clk, 500, true))
        .act(Act::Input(d, 540, false))
        .act(Act::Budget(100_000, 10_000));
    let fp = check(&sc);
    assert_eq!(fp.violations.len(), 2, "one setup and one hold violation");

    let mut nl = Netlist::new();
    let osc = nl.add_wire();
    let mut sc = Scenario::new("watchdog_oscillator", nl);
    sc.act(Act::Clock(osc, 0, 1_000, 500, 1_000))
        .act(Act::Budget(u64::MAX / 2, 500))
        .act(Act::Budget(600_000, u64::MAX))
        .act(Act::Quiesce(700_000));
    check(&sc);

    let (nl, w) = inverters(25);
    let mut sc = Scenario::new("watchdog_plan_driven_chain", nl);
    let plan = FaultPlan::new(7, 0, FaultRates::uniform(0.3));
    sc.act(Act::Trace);
    for &wire in &w {
        match plan.gate_fault(wire.index() as u64) {
            Some(GateFault::StuckAt(v)) => sc.act(Act::Pin(wire, v)),
            Some(GateFault::Transient { at_frac }) => {
                sc.act(Act::Upset(wire, (50_000.0 * at_frac) as u64))
            }
            Some(GateFault::Delay { scale_pct }) => sc.act(Act::Scale(wire, scale_pct)),
            None => &mut sc,
        };
    }
    sc.act(Act::Input(w[0], 500, true))
        .act(Act::Budget(1_000_000, 100_000));
    check(&sc);
}

/// Delay scaling, a stuck-at pin and an SEU upset on one buffer chain.
#[test]
fn fault_hooks_match_reference_engine() {
    let mut nl = Netlist::new();
    let w = chain(&mut nl, 6, |nl, _, i, o| {
        nl.add_buffer(i, o, ps(70), ps(70));
    });
    let mut sc = Scenario::new("fault_hooks", nl);
    sc.watch(w[2], "mid").watch(w[6], "last");
    sc.act(Act::Trace)
        .act(Act::Scale(w[2], 300))
        .act(Act::Pin(w[4], true))
        .act(Act::Upset(w[6], 50))
        .act(Act::Input(w[0], 100, true))
        .act(Act::RunUntil(3_000));
    check(&sc);
}

/// One-shot pulse train feeding a buffer, with triggers both wider
/// and narrower than the pulse.
#[test]
fn one_shot_pulse_train_matches_reference_engine() {
    let mut nl = Netlist::new();
    let (trig, pulse, shaped) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
    nl.add_one_shot(trig, pulse, ps(40), ps(200));
    nl.add_buffer(pulse, shaped, ps(10), ps(10));
    let mut sc = Scenario::new("one_shot_pulse_train", nl);
    sc.watch(pulse, "pulse").watch(shaped, "shaped");
    for (t, v) in [
        (100, true),
        (150, false),
        (1_000, true),
        (1_100, false),
        (1_300, true),
    ] {
        sc.act(Act::Input(trig, t, v));
    }
    sc.act(Act::Quiesce(5_000));
    check(&sc);
}

/// Register windows at their boundaries: data changes exactly at and
/// one picosecond inside the setup and hold windows, plus a register
/// with zero windows whose data and clock change at the same instant.
#[test]
fn register_windows_match_reference_engine() {
    let mut nl = Netlist::new();
    let (d, clk, q) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
    nl.add_register(d, clk, q, ps(100), ps(100), ps(20));
    let (d0, q0) = (nl.add_wire(), nl.add_wire());
    nl.add_register(d0, clk, q0, ps(0), ps(0), ps(20));
    let mut sc = Scenario::new("register_windows", nl);
    sc.watch(q, "q").watch(q0, "q0");
    sc.act(Act::Clock(clk, 1_000, 1_000, 500, 6));
    for (w, t, v) in [
        (d, 900, true),   // exactly setup before the 1000 edge: clean
        (d, 1_901, false), // 99 ps before the 2000 edge: setup
        (d, 3_100, true),  // exactly hold after the 3000 edge: clean
        (d, 4_099, false), // 99 ps after the 4000 edge: hold
        (d0, 5_000, true), // coincident with the 5000 edge, no windows
    ] {
        sc.act(Act::Input(w, t, v));
    }
    sc.act(Act::Quiesce(20_000));
    let fp = check(&sc);
    assert_eq!(fp.violations.len(), 2, "{:?}", fp.violations);
}

/// C-element start states: agreeing high inputs (both driven by
/// inverters of a low wire) start the output high, disagreeing
/// inputs hold the low start, and the first edge moves both.
#[test]
fn c_element_start_states_match_reference_engine() {
    let mut nl = Netlist::new();
    let x = nl.add_wire();
    let (h1, h2) = (nl.add_wire(), nl.add_wire());
    nl.add_inverter(x, h1, ps(10), ps(10));
    nl.add_inverter(x, h2, ps(15), ps(15));
    let (agree, disagree, tail) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
    nl.add_c_element(h1, h2, agree, ps(50));
    nl.add_c_element(x, h1, disagree, ps(40));
    nl.add_buffer(agree, tail, ps(5), ps(5));
    let mut sc = Scenario::new("c_element_start_states", nl);
    sc.watch(agree, "agree")
        .watch(disagree, "disagree")
        .watch(tail, "tail");
    sc.act(Act::Input(x, 100, true))
        .act(Act::Input(x, 400, false))
        .act(Act::Quiesce(2_000));
    check(&sc);
}
